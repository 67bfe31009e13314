//! One run of one workload in this process: untraced for the end-to-end
//! metrics, or traced for the per-layer metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use substation::transformer::interp;

use crate::host;
use crate::metrics::{self, Metric};
use crate::quiet::Quiet;
use crate::replay;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{self, OpResult, Workload};

/// Set-ups per untraced run; `setup_s` is the fastest of them. At least
/// `MIN_SETUPS`, carrying on until `MIN_SETUP_TOTAL_S` have been spent
/// setting up or `MAX_SETUPS` made: a set-up of a few hundred ms is the
/// reading a noisy second moves most, so the cheap ones get more samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 7;
const MIN_SETUP_TOTAL_S: f64 = 6.0;
/// Untraced/traced op pairs every scene of a traced run makes at least.
const MIN_PAIRS: usize = 2;
/// Share of `--seconds` a traced run spends alternating untraced and
/// traced ops of the workload it was started for.
const SELECTED_SHARE: f64 = 0.2;
/// The workloads whose spans the per-layer metrics are read from. A traced
/// run plays each as a short scene, whichever workload it was started for,
/// because it has to report every per-layer metric.
const HOME_SCENES: [&str; 4] = ["bert_fwd", "gpt_generate", "train_step", "plan_compile"];

/// What a run reports.
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub info: Vec<Metric>,
    pub fingerprint: u64,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Outcome of one op run under `catch_unwind`: an op fails if it returns
/// `Err` or panics, and the run carries on.
fn guarded<T>(f: impl FnOnce() -> OpResult<T>) -> OpResult<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(panic) => Err(panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .map_or("op panicked".to_string(), |m| format!("op panicked: {m}"))),
    }
}

/// The timed window of an untraced run.
#[derive(Default)]
pub struct Timed {
    pub op_ms: Vec<f64>,
    pub units: f64,
    pub wall_s: f64,
    pub attempted: usize,
    pub failures: Vec<String>,
}

/// Runs ops for about `seconds`, in whole passes over the workload's
/// inputs: it stops at the pass boundary nearest to `seconds`.
pub fn run_ops(w: &mut dyn Workload, seconds: f64, quiet: &mut Quiet) -> Timed {
    let mut t = Timed::default();
    let cycle = w.cycle_len().max(1);
    let started = Instant::now();
    loop {
        for _ in 0..cycle {
            let i = t.attempted;
            t.attempted += 1;
            quiet.settle();
            let op_started = Instant::now();
            match guarded(|| w.op(i)) {
                Ok(()) => {
                    t.op_ms.push(op_started.elapsed().as_secs_f64() * 1e3);
                    t.units += w.units(i);
                }
                Err(e) => t.failures.push(format!("op {i}: {e}")),
            }
        }
        t.wall_s = started.elapsed().as_secs_f64();
        let pass_s = t.wall_s / (t.attempted / cycle) as f64;
        if t.wall_s + pass_s / 2.0 >= seconds {
            return t;
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

fn cold_build(name: &str, seed: u64) -> OpResult<Box<dyn Workload>> {
    interp::clear_plan_cache();
    interp::clear_arena_cache();
    guarded(|| workloads::build(name, seed))
}

/// The untraced run: set up several times from cold caches, time ops for
/// `seconds`, then check the outputs outside the timed window.
pub fn untraced(name: &str, seed: u64, seconds: f64) -> OpResult<Report> {
    let mut setup_s: Vec<f64> = Vec::with_capacity(MAX_SETUPS);
    let mut workload = None;
    let mut quiet = Quiet::new();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < MIN_SETUP_TOTAL_S && setup_s.len() < MAX_SETUPS)
    {
        // free the previous model first: the peak is one model's, not two
        drop(workload.take());
        quiet.settle();
        let started = Instant::now();
        workload = Some(cold_build(name, seed)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    println!("info setup_s each {setup_s:.3?}");
    // Read here, before the timed window. Read at exit, `plan_compile`'s
    // peak is the allocator's mood: the same ops on the same inputs left
    // 83 to 144 MB behind from one process to the next (a zeroed arena
    // slab comes untouched from `mmap` or memset from the free list),
    // while every workload's peak by the end of set-up repeats within 1 %.
    let setup_rss_mb = peak_rss_mb();
    let mut w = workload.expect("set up at least once");
    let timed = run_ops(w.as_mut(), seconds, &mut quiet);
    quiet.report();
    let mut failures = timed.failures;
    let op_failures = failures.len();
    let check_failures = guarded(|| Ok(w.check())).unwrap_or_else(|e| vec![e]);
    failures.extend(check_failures.iter().map(|f| format!("check: {f}")));
    // The fastest set-up and the fastest op, not the median ones: a run
    // shares its vCPUs with neighbours that slow the same code up to
    // twofold for seconds to minutes, and only the fastest reading of a
    // run is the program's own (see `quiet` and the README).
    let metrics = vec![
        Metric::new("setup_s", percentile(&setup_s, 0), "s", setup_s.len()),
        Metric::new(
            "op_ms_best",
            percentile(&timed.op_ms, 0),
            "ms",
            timed.op_ms.len(),
        ),
        Metric::new("peak_rss_mb", setup_rss_mb, "MB", 1),
    ];
    failures.extend(metrics::conformance(&metrics, false));
    println!(
        "info op_ms p25 {:.3} p75 {:.3} max {:.3} wall_s {:.3}",
        percentile(&timed.op_ms, 25),
        percentile(&timed.op_ms, 75),
        percentile(&timed.op_ms, 100),
        timed.wall_s
    );
    println!("info op_ms each {:.1?}", timed.op_ms);
    // what the fastest op came from, for the reader and the baseline files
    let n = timed.op_ms.len();
    let mut info = vec![
        Metric::new("op_ms_p50", median(&timed.op_ms), "ms", n),
        Metric::new("units_per_s", timed.units / timed.wall_s, "1/s", n),
        Metric::new("peak_rss_exit_mb", peak_rss_mb(), "MB", 1),
    ];
    info.extend(w.info());
    Ok(Report {
        attempted: timed.attempted,
        failed: op_failures + check_failures.len(),
        failures,
        metrics,
        info,
        fingerprint: w.fingerprint(),
    })
}

/// Untraced and traced ops of one workload, alternating, until `budget_s`
/// has passed and `MIN_PAIRS` pairs are made. Returns the wall times (ms)
/// of each side.
fn alternate(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    quiet: &mut Quiet,
    budget_s: f64,
    failures: &mut Vec<String>,
) -> (Vec<f64>, Vec<f64>) {
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut i = 0;
    while i < MIN_PAIRS || started.elapsed().as_secs_f64() < budget_s {
        quiet.settle();
        let op_started = Instant::now();
        match guarded(|| w.op(i)) {
            Ok(()) => plain_ms.push(op_started.elapsed().as_secs_f64() * 1e3),
            Err(e) => failures.push(format!("untraced op {i}: {e}")),
        }
        let op_started = Instant::now();
        match guarded(|| w.traced_op(i, tr)) {
            Ok(()) => traced_ms.push(op_started.elapsed().as_secs_f64() * 1e3),
            Err(e) => failures.push(format!("traced op {i}: {e}")),
        }
        tr.end_all();
        i += 1;
    }
    (plain_ms, traced_ms)
}

/// The allocation counts, from a child process: `substation-bench-allocs`
/// sits beside this binary and has the counting allocator installed, which
/// nothing timed may run under.
fn allocation_counts(seed: u64) -> OpResult<Vec<Metric>> {
    let probe = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("substation-bench-allocs");
    let output = std::process::Command::new(&probe)
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("running {}: {e}", probe.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{} failed: {}",
            probe.display(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| Metric::parse(line.strip_prefix("metric ")?))
        .collect())
}

/// The traced run: host probes, kernel and layer replay, then a scene per
/// home workload (and the one this run was started for), each alternating
/// untraced and traced ops, then the allocation counts. Writes the spans
/// to `trace_path`.
pub fn traced(
    name: &str,
    seed: u64,
    seconds: f64,
    trace_path: &std::path::Path,
) -> OpResult<Report> {
    let mut tr = Tracer::with_capacity(1 << 16);
    let mut metrics = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0;
    let started = Instant::now();
    let phase = |name: &str| {
        println!(
            "info phase {name} done at {:.1} s",
            started.elapsed().as_secs_f64()
        )
    };

    let host = host::probe(&mut tr);
    phase("host");
    println!(
        "info host threads {} llc_mb {} triad_mb {}",
        host.threads,
        host.llc_bytes >> 20,
        host.triad_bytes >> 20
    );
    metrics.extend(host.metrics());
    // the host probe wanted every vCPU; from here on, one at a time
    let mut quiet = Quiet::new();
    quiet.settle();
    replay::tensor_kernels(&mut tr, &host, seed, &mut metrics)?;
    phase("tensor");
    quiet.settle();
    replay::layer_entry_points(&mut tr, seed, &mut metrics)?;
    phase("layer");

    let mut scenes = HOME_SCENES.to_vec();
    if !scenes.contains(&name) {
        scenes.push(name);
    }
    let mut fingerprint = 0;
    for scene in scenes {
        quiet.settle();
        let mut w = cold_build(scene, seed)?;
        let selected = scene == name;
        let budget_s = if selected {
            seconds * SELECTED_SHARE
        } else {
            0.0
        };
        let (plain_ms, traced_ms) =
            alternate(w.as_mut(), &mut tr, &mut quiet, budget_s, &mut failures);
        attempted += plain_ms.len() + traced_ms.len();
        if selected {
            fingerprint = w.fingerprint();
            let (plain, with_spans) = (median(&plain_ms), median(&traced_ms));
            metrics.push(Metric::new(
                "bench.trace_overhead_pct",
                100.0 * (with_spans - plain) / plain,
                "%",
                traced_ms.len(),
            ));
        }
        w.layer_metrics(&tr, &plain_ms, &mut metrics);
        failures.extend(w.noticed());
        phase(scene);
    }
    metrics.extend(allocation_counts(seed)?);
    phase("allocs");
    quiet.report();
    tr.write_chrome(trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    println!(
        "info trace {} spans {}",
        trace_path.display(),
        tr.spans().len()
    );
    for (name, layer, n, ms, self_ms) in tr.summary() {
        println!("info span {name} layer {layer} n={n} p50_ms {ms:.4} self_p50_ms {self_ms:.4}");
    }
    let failed = failures.len();
    attempted += failed;
    failures.extend(metrics::conformance(&metrics, true));
    Ok(Report {
        attempted,
        failed,
        failures,
        metrics,
        info: Vec::new(),
        fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{self, Stream};
    use crate::workloads::forward::tests::tiny_config;
    use crate::workloads::forward::Forward;

    #[test]
    fn a_failing_op_is_counted_and_the_run_carries_on() {
        let c = tiny_config();
        let good = inputs::token_batch(&mut inputs::rng(1, Stream::Tokens), 2, 6, c.vocab);
        let mut bad = good.clone();
        // out of vocabulary: `embed` returns `Err`
        bad[1][3] = c.vocab;
        let mut w = Forward::with_batches(c, vec![good, bad], 1).unwrap();
        let t = run_ops(&mut w, 0.05, &mut Quiet::off());
        assert!(t.attempted >= 4, "{} ops", t.attempted);
        assert_eq!(t.failures.len(), t.attempted / 2, "every second op fails");
        assert_eq!(t.op_ms.len(), t.attempted - t.failures.len());
        assert!(t.failures[0].contains("op 1") && t.failures[0].contains("vocabulary"));
        assert_eq!(t.units, (t.op_ms.len() * 12) as f64);
    }

    #[test]
    fn a_panicking_op_is_a_failed_op() {
        let failed: OpResult<()> = guarded(|| panic!("boom"));
        assert_eq!(failed, Err("op panicked: boom".to_string()));
        assert_eq!(guarded(|| Ok(3)), Ok(3));
    }
}
