//! The repo's benchmark. `benchmark/run.sh` builds the two binaries of
//! this package and runs `substation-bench`; see `benchmark/README.md` for
//! the workloads, the metrics and how they are expected to interact.
//!
//! With `--workload` the binary runs that workload in this process and
//! prints, as its last line, one JSON object with the run's metrics.
//! Without it the binary runs every workload, each in a child process of
//! its own (cold caches, its own peak RSS), untraced and then traced.
//!
//! Allocation counts come from `substation-bench-allocs`, a second binary
//! with the library's `CountingAlloc` installed. It is kept apart because
//! the counters are shared atomics: with them installed the two sweep
//! threads of `plan_compile` run three times slower, so nothing that is
//! timed may run under them.

#![forbid(unsafe_code)]

use std::process::ExitCode;

pub mod allocs;
mod host;
mod inputs;
mod json;
mod metrics;
mod orchestrate;
mod quiet;
mod replay;
mod run;
mod stats;
mod trace;
mod workloads;

/// Where a run leaves its files, relative to the working directory
/// (`run.sh` changes to the root of the checkout).
pub const OUT_DIR: &str = "benchmark/out";

const USAGE: &str =
    "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck]
  --workload NAME  run one workload in this process: bert_fwd, longseq_fwd,
                   gpt_generate, train_step or plan_compile (default: all,
                   each in a child process, untraced then traced)
  --seed N         seed of every generated input (default 1)
  --seconds S      length of the timed window (default 16)
  --trace 0|1      with --workload: 0 measures the end-to-end metrics,
                   1 the per-layer metrics (default 0)
  --selfcheck      run the whole set twice and compare the two";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub selfcheck: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 16.0,
        trace: false,
        selfcheck: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Runs one workload here and prints its report; the last line is the
/// result object the driver reads.
fn run_one(name: &str, args: &Args) -> ExitCode {
    println!(
        "workload {name} seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        let path = std::path::Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        run::traced(name, args.seed, args.seconds, &path)
    } else {
        run::untraced(name, args.seed, args.seconds)
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{name}: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("input_fingerprint {:016x}", report.fingerprint);
    for m in &report.metrics {
        println!("metric {}", m.line());
    }
    for m in &report.info {
        println!("info {}", m.line());
    }
    for f in &report.failures {
        println!("FAILED {f}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics::json_object(&report.metrics, false)
    );
    ExitCode::SUCCESS
}

/// Entry point of `substation-bench`.
pub fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => orchestrate::run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parsed("--workload gpt_generate --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("gpt_generate"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = parsed("").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.trace, a.selfcheck),
            (None, 1, false, false)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parsed("--workload nope").is_err());
        assert!(parsed("--trace yes").is_err());
        assert!(parsed("--seconds 0").is_err());
        assert!(parsed("--seed").is_err());
        assert!(parsed("--frobnicate").is_err());
    }
}
