//! Keeping the measurement on the quieter vCPU.
//!
//! The sandbox gives the benchmark a few vCPUs of a shared host, and each
//! of them flips, on its own and for seconds to minutes at a time, between
//! a quiet mode and one in which the same vector code runs about twice
//! slower (a busy neighbour on the core's other hardware thread). An op
//! that the scheduler happens to leave on the busy vCPU measures the
//! neighbour, not the program.
//!
//! So the benchmark runs on one vCPU at a time. Before every timed op it
//! runs a yardstick, a small fixed matrix product of its own taking about
//! a tenth of a millisecond, a few times on each vCPU it is allowed, and
//! stays on, or moves to, the one that ran it fastest. It moves itself with
//! `taskset`, because the package forbids `unsafe` and `std` has no call
//! for it. Where `taskset` is missing or refuses, the run carries on
//! unpinned and says so.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::stats::median;

/// Edge of the yardstick's square matrices: 96³ multiply-adds.
const EDGE: usize = 96;
/// Yardstick runs behind one reading; the reading is their median.
const READS: usize = 15;
/// Another vCPU must read this much faster to be worth the move: the
/// caches stay behind.
const WORTH_MOVING: f64 = 1.1;
/// vCPUs tried before an op, at most: each costs a few milliseconds.
const MAX_CPUS: usize = 4;

pub struct Quiet {
    /// The vCPUs this process was allowed at start.
    cpus: Vec<usize>,
    /// Index into `cpus` of the one it is pinned to, once it is.
    at: Option<usize>,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    /// Fastest single yardstick run seen (µs): what a quiet vCPU reads.
    best_us: f64,
    /// What each `settle` left the process with: the yardstick's median on
    /// the vCPU it chose over `best_us` at the time, 1 on a quiet vCPU.
    readings: Vec<f64>,
    moves: usize,
}

/// `0-3,8,10-11` → `[0, 1, 2, 3, 8, 10, 11]`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let mut ends = part.splitn(2, '-').map(|n| n.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(lo)), None) => cpus.push(lo),
            (Some(Ok(lo)), Some(Ok(hi))) => cpus.extend(lo..=hi),
            _ => {}
        }
    }
    cpus
}

fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("Cpus_allowed_list:"))?;
            Some(parse_cpu_list(line.split_once(':')?.1))
        })
        .unwrap_or_default()
}

/// Pins every thread of this process to `cpus`.
fn pin_to(cpus: &[usize]) -> bool {
    let list: Vec<String> = cpus.iter().map(usize::to_string).collect();
    Command::new("taskset")
        .args(["-a", "-c", "-p", &list.join(",")])
        .arg(std::process::id().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}

impl Quiet {
    fn with_cpus(cpus: Vec<usize>) -> Self {
        let fill = |scale: f32| -> Vec<f32> {
            (0..EDGE * EDGE)
                .map(|i| (i % 89) as f32 * scale + 0.5)
                .collect()
        };
        Quiet {
            cpus,
            at: None,
            a: fill(1e-3),
            b: fill(2e-3),
            c: vec![0.0; EDGE * EDGE],
            best_us: f64::INFINITY,
            readings: Vec::new(),
            moves: 0,
        }
    }

    /// Pins the process to the first vCPU it is allowed, if it is allowed
    /// more than one and can move itself.
    pub fn new() -> Self {
        let mut q = Quiet::with_cpus(allowed_cpus());
        q.cpus.truncate(MAX_CPUS);
        if q.cpus.len() > 1 && pin_to(&q.cpus[..1]) {
            q.at = Some(0);
        }
        q
    }

    /// Reads the yardstick but never moves.
    #[cfg(test)]
    pub fn off() -> Self {
        Quiet::with_cpus(Vec::new())
    }

    pub fn pinned(&self) -> bool {
        self.at.is_some()
    }

    /// One `info` line: whether the run could move itself, how often it
    /// did, and how busy the vCPUs it settled on read.
    pub fn report(&self) {
        println!(
            "info quiet pinned {} moves {} of {} yardstick p50 {:.3} max {:.3} (1 = the fastest run seen)",
            self.pinned(),
            self.moves,
            self.readings.len(),
            median(&self.readings),
            self.readings.iter().copied().fold(f64::NAN, f64::max),
        );
    }

    /// One yardstick run: `c += a × b`, in µs.
    fn yardstick_us(&mut self) -> f64 {
        let (a, b) = (std::hint::black_box(&self.a), std::hint::black_box(&self.b));
        let started = Instant::now();
        self.c.fill(0.0);
        for i in 0..EDGE {
            for k in 0..EDGE {
                let x = a[i * EDGE + k];
                let (row, out) = (
                    &b[k * EDGE..(k + 1) * EDGE],
                    &mut self.c[i * EDGE..(i + 1) * EDGE],
                );
                for (o, r) in out.iter_mut().zip(row) {
                    *o += x * r;
                }
            }
        }
        std::hint::black_box(&self.c);
        started.elapsed().as_secs_f64() * 1e6
    }

    /// The median of a few yardstick runs on the current vCPU, in µs.
    fn reading_us(&mut self) -> f64 {
        let runs: Vec<f64> = (0..READS).map(|_| self.yardstick_us()).collect();
        self.best_us = runs.iter().copied().fold(self.best_us, f64::min);
        median(&runs)
    }

    /// Called before a timed op, outside its timer: leaves the process on
    /// the quietest vCPU it can find now.
    pub fn settle(&mut self) {
        let mut here = self.reading_us();
        if let Some(home) = self.at {
            let (mut best, mut now) = (home, home);
            for other in (0..self.cpus.len()).filter(|&o| o != home) {
                if !pin_to(&self.cpus[other..=other]) {
                    continue;
                }
                now = other;
                let there = self.reading_us();
                if there * WORTH_MOVING < here {
                    (here, best) = (there, other);
                }
            }
            if now != best {
                pin_to(&self.cpus[best..=best]);
            }
            self.moves += usize::from(best != home);
            self.at = Some(best);
        }
        self.readings.push(here / self.best_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list(" 0-3,8,10-11"), vec![0, 1, 2, 3, 8, 10, 11]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn an_unpinned_quiet_reads_the_yardstick_and_never_moves() {
        let mut q = Quiet::off();
        q.settle();
        q.settle();
        assert!(!q.pinned());
        assert_eq!((q.readings.len(), q.moves), (2, 0));
        assert!(q.readings.iter().all(|&r| r >= 1.0), "{:?}", q.readings);
        assert!(q.best_us > 0.0 && q.best_us.is_finite());
    }
}
