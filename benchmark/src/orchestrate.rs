//! Running the whole set: every workload in a child process of its own,
//! untraced and then traced; `--selfcheck` runs the set twice on the same
//! code and holds the two against the benchmark's own bounds.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::json;
use crate::metrics::{json_object, Better, Metric, END_TO_END};
use crate::workloads::NAMES;
use crate::{Args, OUT_DIR};

/// One child run, as parsed back from its output.
#[derive(Debug, Default)]
struct ChildRun {
    workload: String,
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    fingerprint: String,
    wall_s: f64,
    metrics: Vec<Metric>,
    info: Vec<Metric>,
}

/// The whole number after `"key":` in a result line.
fn number_after(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn absorb(run: &mut ChildRun, line: &str) {
    if let Some(rest) = line.strip_prefix("metric ") {
        run.metrics.extend(Metric::parse(rest));
    } else if let Some(rest) = line.strip_prefix("info ") {
        run.info.extend(Metric::parse(rest));
    } else if let Some(rest) = line.strip_prefix("input_fingerprint ") {
        run.fingerprint = rest.to_string();
    } else if line.starts_with("{\"correct\":") {
        run.correct = line.starts_with("{\"correct\":true");
        run.attempted = number_after(line, "attempted").unwrap_or(0);
        run.failed = number_after(line, "failed").unwrap_or(0);
    }
}

/// Runs one workload in a child process, echoing its report as it comes.
fn child(name: &str, args: &Args, traced: bool) -> std::io::Result<ChildRun> {
    let started = Instant::now();
    let mut process = Command::new(std::env::current_exe()?)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()?;
    let mut run = ChildRun {
        workload: name.to_string(),
        traced,
        ..ChildRun::default()
    };
    let stdout = process.stdout.take().expect("stdout is piped");
    for line in BufReader::new(stdout).lines() {
        let line = line?;
        println!("  {line}");
        absorb(&mut run, &line);
    }
    // a child that dies without a result line is a failed run
    run.correct &= process.wait()?.success();
    run.wall_s = started.elapsed().as_secs_f64();
    println!("  ({:.1} s)", run.wall_s);
    Ok(run)
}

fn run_set(args: &Args) -> std::io::Result<Vec<ChildRun>> {
    let mut runs = Vec::new();
    for name in NAMES {
        for traced in [false, true] {
            runs.push(child(name, args, traced)?);
        }
    }
    Ok(runs)
}

/// Writes a set as `benchmark/out/<stem>.json`: the file a baseline is.
fn write_set(stem: &str, args: &Args, runs: &[ChildRun]) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = std::path::Path::new(OUT_DIR).join(format!("{stem}.json"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let commit = std::env::var("SUBSTATION_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // the host probe numbers of the first traced run stand for the set
    let host: Vec<Metric> = runs
        .iter()
        .find(|r| r.traced)
        .map(|r| {
            r.metrics
                .iter()
                .filter(|m| m.name.starts_with("host."))
                .cloned()
                .collect()
        })
        .unwrap_or_default();
    writeln!(
        out,
        "{{\"commit\":{},\"nproc\":{nproc},\"seed\":{},\"seconds\":{},\"host\":{},\"runs\":[",
        json::string(&commit),
        args.seed,
        json::number(args.seconds),
        json_object(&host, true)
    )?;
    for (n, r) in runs.iter().enumerate() {
        writeln!(
            out,
            "{}{{\"workload\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
             \"input_fingerprint\":{},\"wall_s\":{},\"metrics\":{},\"info\":{}}}",
            if n == 0 { "" } else { "," },
            json::string(&r.workload),
            u8::from(r.traced),
            r.correct,
            r.attempted,
            r.failed,
            json::string(&r.fingerprint),
            json::number(r.wall_s),
            json_object(&r.metrics, true),
            json_object(&r.info, true)
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()?;
    println!("wrote {}", path.display());
    Ok(())
}

fn summary(runs: &[ChildRun]) {
    print!("\n{:<14}", "workload");
    for d in END_TO_END {
        print!("{:>14}", d.name);
    }
    println!("{:>6}  correct", "ops");
    for r in runs.iter().filter(|r| !r.traced) {
        print!("{:<14}", r.workload);
        for d in END_TO_END {
            match r.metrics.iter().find(|m| m.name == d.name) {
                Some(m) => print!("{:>14.3}", m.value),
                None => print!("{:>14}", "-"),
            }
        }
        println!("{:>6}  {}", r.attempted, r.correct);
    }
}

/// By how much `second` is worse than `first`, as a share of `first`;
/// negative when it is better.
fn worse_by(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Holds two sets of runs of the same code against each other: every
/// end-to-end metric within its bound, every count exactly equal.
fn disagreements(first: &[ChildRun], second: &[ChildRun]) -> Vec<String> {
    let mut out = Vec::new();
    println!(
        "\n{:<14}{:<20}{:>14}{:>14}{:>9}{:>8}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        if a.fingerprint != b.fingerprint {
            out.push(format!("{}: input fingerprints differ", a.workload));
        }
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            if a.traced {
                if ma.unit == "count" && ma.value != mb.value {
                    out.push(format!(
                        "{}: count {} read {} then {}",
                        a.workload, ma.name, ma.value, mb.value
                    ));
                }
                continue;
            }
            let Some(decl) = END_TO_END.iter().find(|d| d.name == ma.name) else {
                continue;
            };
            let bound = decl.bound.expect("end-to-end metrics have bounds");
            let diff = worse_by(ma.value, mb.value, decl.better);
            println!(
                "{:<14}{:<20}{:>14.4}{:>14.4}{:>+8.2}%{:>7.0}%",
                a.workload,
                ma.name,
                ma.value,
                mb.value,
                100.0 * diff,
                100.0 * bound
            );
            if diff.abs() > bound {
                out.push(format!(
                    "{}: {} differs by {:+.2}% between the sets, bound {:.0}%",
                    a.workload,
                    ma.name,
                    100.0 * diff,
                    100.0 * bound
                ));
            }
        }
    }
    out
}

pub fn run_all(args: &Args) -> ExitCode {
    let sets = if args.selfcheck { 2 } else { 1 };
    let mut all = Vec::new();
    for set in 1..=sets {
        println!("== set {set} of {sets}, seed {} ==", args.seed);
        let runs = match run_set(args) {
            Ok(runs) => runs,
            Err(e) => {
                eprintln!("could not run the set: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stem = format!("seed{}-set{set}", args.seed);
        if let Err(e) = write_set(&stem, args, &runs) {
            eprintln!("could not write {stem}.json: {e}");
            return ExitCode::FAILURE;
        }
        summary(&runs);
        all.push(runs);
    }
    let mut problems: Vec<String> = all
        .iter()
        .flatten()
        .filter(|r| !r.correct)
        .map(|r| {
            format!(
                "{} (trace {}): {} of {} ops failed or a check did",
                r.workload,
                u8::from(r.traced),
                r.failed,
                r.attempted
            )
        })
        .collect();
    if let [first, second] = all.as_slice() {
        problems.extend(disagreements(first, second));
    }
    for p in &problems {
        println!("FAILED {p}");
    }
    if problems.is_empty() {
        println!("\nall checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_report_parses_back() {
        let mut run = ChildRun::default();
        for line in [
            "workload bert_fwd seed 1 seconds 10 trace 0",
            "input_fingerprint 00ff",
            "metric op_ms_best 651.25 ms n=15",
            "info itl_ms_p95 12.5 ms n=700",
            "FAILED check: something",
            "{\"correct\":false,\"attempted\":16,\"failed\":1,\"metrics\":{}}",
        ] {
            absorb(&mut run, line);
        }
        assert_eq!(run.fingerprint, "00ff");
        assert_eq!(run.metrics[0].name, "op_ms_best");
        assert_eq!((run.metrics[0].value, run.metrics[0].samples), (651.25, 15));
        assert_eq!(run.info[0].unit, "ms");
        assert_eq!((run.correct, run.attempted, run.failed), (false, 16, 1));
    }

    #[test]
    fn worse_is_signed_by_the_metrics_direction() {
        assert_eq!(worse_by(100.0, 110.0, Better::Lower), 0.1);
        assert_eq!(worse_by(100.0, 110.0, Better::Higher), -0.1);
    }

    #[test]
    fn sets_disagree_on_a_metric_beyond_its_bound_or_a_changed_count() {
        let run = |op_ms: f64, count: f64, traced: bool| ChildRun {
            workload: "bert_fwd".into(),
            traced,
            metrics: vec![
                Metric::new("op_ms_best", op_ms, "ms", 9),
                Metric::new("core.plan.steps", count, "count", 1),
            ],
            ..ChildRun::default()
        };
        let bound = END_TO_END[1].bound.unwrap();
        assert_eq!(END_TO_END[1].name, "op_ms_best");
        let within = run(100.0 * (1.0 + bound - 0.01), 9.0, false);
        assert!(disagreements(&[run(100.0, 9.0, false)], &[within]).is_empty());
        let beyond = run(100.0 * (1.0 + bound + 0.01), 9.0, false);
        let d = disagreements(&[run(100.0, 9.0, false)], &[beyond]);
        assert!(d[0].contains("op_ms_best differs by +"), "{d:?}");
        let d = disagreements(&[run(100.0, 9.0, true)], &[run(150.0, 11.0, true)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("core.plan.steps read 9 then 11"));
    }
}
