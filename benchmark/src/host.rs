//! The host roofline, measured in the same run it is used in: STREAM-style
//! triad bandwidth and a multiply-add peak, on one thread and on every
//! core. Every `roofline_pct` divides by these.

use std::time::Instant;

use crate::metrics::Metric;
use crate::stats::median;
use crate::trace::Tracer;

/// Triad passes and multiply-add bursts per measurement.
const REPS: usize = 3;
/// Used when sysfs does not say how large the last-level cache is.
const FALLBACK_LLC_BYTES: usize = 32 << 20;

/// The denominators of a roofline, for one thread count.
#[derive(Debug, Clone, Copy)]
pub struct Peak {
    pub triad_gbps: f64,
    pub fma_gflops: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub threads: usize,
    pub llc_bytes: usize,
    pub triad_bytes: usize,
    pub t1: Peak,
    pub tn: Peak,
}

impl Peak {
    /// Attainable Gflop/s at `flop_per_byte`: the lower of the compute peak
    /// and bandwidth times intensity.
    pub fn attainable_gflops(&self, flop_per_byte: f64) -> f64 {
        self.fma_gflops.min(self.triad_gbps * flop_per_byte)
    }
}

/// Largest cache `cpu0` reports, in bytes.
fn llc_bytes() -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let size = std::fs::read_to_string(e.ok()?.path().join("size")).ok()?;
        let size = size.trim();
        let (digits, scale) = match size.as_bytes().last()? {
            b'K' => (&size[..size.len() - 1], 1 << 10),
            b'M' => (&size[..size.len() - 1], 1 << 20),
            _ => (size, 1),
        };
        Some(digits.parse::<usize>().ok()? * scale)
    })
    .max()
}

fn ram_bytes() -> Option<usize> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = meminfo.lines().find(|l| l.starts_with("MemTotal:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib << 10)
}

/// `a = b + s·c` over the slices; 12 bytes move per element.
fn triad(a: &mut [f32], b: &[f32], c: &[f32], s: f32) {
    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
        *a = *b + s * *c;
    }
}

/// Median-of-`REPS` triad bandwidth with the arrays split over `threads`.
fn triad_gbps(a: &mut [f32], b: &[f32], c: &[f32], threads: usize) -> f64 {
    let chunk = a.len().div_ceil(threads);
    let passes: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            std::thread::scope(|scope| {
                for ((a, b), c) in a
                    .chunks_mut(chunk)
                    .zip(b.chunks(chunk))
                    .zip(c.chunks(chunk))
                {
                    scope.spawn(move || triad(a, b, c, std::hint::black_box(3.0)));
                }
            });
            (12 * a.len()) as f64 / started.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&passes)
}

/// `LANES` independent multiply-add chains. Built like the library (no
/// `target-cpu`), so this is the peak the library's own inner loops could
/// reach, not the silicon's. Whether the chains stay in registers is the
/// compiler's call and flips with the lane count (48 lanes run at a fifth
/// of the rate of 32 or 64 here), so both widths run and the faster counts.
fn fma_burst<const LANES: usize>(iters: u64) -> f32 {
    let mut acc = [1.0f32; LANES];
    let (mul, add) = (
        std::hint::black_box(0.999_999_f32),
        std::hint::black_box(1e-6_f32),
    );
    for _ in 0..iters {
        for x in &mut acc {
            *x = *x * mul + add;
        }
    }
    acc.iter().sum()
}

fn burst_gflops<const LANES: usize>(threads: usize) -> f64 {
    const ITERS: u64 = 4_000_000;
    let bursts: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        std::hint::black_box(fma_burst::<LANES>(std::hint::black_box(ITERS)))
                    });
                }
            });
            (2 * LANES as u64 * ITERS * threads as u64) as f64
                / started.elapsed().as_secs_f64()
                / 1e9
        })
        .collect();
    median(&bursts)
}

fn fma_gflops(threads: usize) -> f64 {
    burst_gflops::<32>(threads).max(burst_gflops::<64>(threads))
}

/// Measures the host. The three triad arrays together hold four times the
/// last-level cache, capped at a quarter of RAM.
pub fn probe(tr: &mut Tracer) -> Host {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let llc = llc_bytes().unwrap_or(FALLBACK_LLC_BYTES);
    let ram = ram_bytes().unwrap_or(4 * llc * 4);
    let triad_bytes = (4 * llc).min(ram / 4);
    let n = triad_bytes / 12;
    let span = tr.begin("host.triad", "host");
    let (mut a, b, c) = (vec![0.0f32; n], vec![1.0f32; n], vec![2.0f32; n]);
    let triad_t1 = triad_gbps(&mut a, &b, &c, 1);
    let triad_tn = triad_gbps(&mut a, &b, &c, threads);
    std::hint::black_box(&a);
    drop((a, b, c));
    tr.end(span);
    let span = tr.begin("host.fma", "host");
    let host = Host {
        threads,
        llc_bytes: llc,
        triad_bytes,
        t1: Peak {
            triad_gbps: triad_t1,
            fma_gflops: fma_gflops(1),
        },
        tn: Peak {
            triad_gbps: triad_tn,
            fma_gflops: fma_gflops(threads),
        },
    };
    tr.end(span);
    host
}

impl Host {
    pub fn metrics(&self) -> [Metric; 4] {
        [
            Metric::new("host.triad_gbps_t1", self.t1.triad_gbps, "GB/s", REPS),
            Metric::new("host.triad_gbps_tn", self.tn.triad_gbps, "GB/s", REPS),
            Metric::new("host.fma_gflops_t1", self.t1.fma_gflops, "Gflop/s", REPS),
            Metric::new("host.fma_gflops_tn", self.tn.fma_gflops, "Gflop/s", REPS),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_roofline_is_the_lower_of_compute_and_bandwidth() {
        let peak = Peak {
            triad_gbps: 10.0,
            fma_gflops: 40.0,
        };
        assert_eq!(peak.attainable_gflops(0.25), 2.5);
        assert_eq!(peak.attainable_gflops(100.0), 40.0);
    }

    #[test]
    fn triad_and_burst_compute_what_they_say() {
        let (mut a, b, c) = (vec![0.0f32; 7], vec![1.0f32; 7], vec![2.0f32; 7]);
        triad(&mut a, &b, &c, 3.0);
        assert_eq!(a, vec![7.0; 7]);
        assert!(fma_burst::<32>(10).is_finite());
    }
}
