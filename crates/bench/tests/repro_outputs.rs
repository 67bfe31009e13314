//! Every deterministic output of the bench harness, pinned byte for byte:
//! the simulated paper entries (Tables I–V, Figs. 1–6 and the Sec. V–VIII
//! studies; `cpu_recipe` times real kernels and is not here) and the static
//! plan audit in five modes. Each run's expected stdout is a file under
//! `tests/repro/`, which EXPERIMENTS.md cites where it quotes a number.
//!
//! The runs are held against files recorded before the harness was folded
//! into one command; a changed file means a table moved. Re-record one
//! only for an intended change, by writing the run's stdout over it.
//!
//! `XFORM_CACHE_GEOM` and `XFORM_SANITIZE` are removed from each child's
//! environment, so the audit runs under the modelled device's hierarchy.

use std::path::Path;
use std::process::Command;

/// One pinned run: its expected-output file stem, the binary and its
/// arguments.
struct Run {
    file: &'static str,
    bin: &'static str,
    args: &'static [&'static str],
}

const fn run(file: &'static str, bin: &'static str, args: &'static [&'static str]) -> Run {
    Run { file, bin, args }
}

/// The one bench binary.
const REPRO: &str = env!("CARGO_BIN_EXE_repro");

const RUNS: &[Run] = &[
    run("table1", REPRO, &["table1"]),
    run("table2", REPRO, &["table2"]),
    run("table3", REPRO, &["table3"]),
    run("table4", REPRO, &["table4"]),
    run("table5", REPRO, &["table5"]),
    run("fig1", REPRO, &["fig1"]),
    run("fig2", REPRO, &["fig2"]),
    run("fig4", REPRO, &["fig4"]),
    run("fig5", REPRO, &["fig5"]),
    run("fig6", REPRO, &["fig6"]),
    run("config_b96", REPRO, &["config_b96"]),
    run("heuristic_gap", REPRO, &["heuristic_gap"]),
    run("ablation_fusion", REPRO, &["ablation_fusion"]),
    run("ablation_selection", REPRO, &["ablation_selection"]),
    run("gpt2_block", REPRO, &["gpt2_block"]),
    run("hardware_study", REPRO, &["hardware_study"]),
    run("scaling_study", REPRO, &["scaling_study"]),
    run("seq_sweep", REPRO, &["seq_sweep"]),
    run("stack_study", REPRO, &["stack_study"]),
    run("whatif", REPRO, &["whatif"]),
    run("audit", REPRO, &["audit"]),
    run("audit-check", REPRO, &["audit", "--check"]),
    run("audit-cache-check", REPRO, &["audit", "--cache", "--check"]),
    run("audit-certify", REPRO, &["audit", "--certify"]),
    run("audit-access", REPRO, &["audit", "--access"]),
];

/// Runs `r` and returns what is wrong with its output, if anything: a
/// failed exit, or the first line that differs from the expected file.
fn mismatch(r: &Run) -> Option<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/repro")
        .join(format!("{}.txt", r.file));
    let expected = std::fs::read_to_string(&path).expect("expected output file");
    let out = Command::new(r.bin)
        .args(r.args)
        .env_remove("XFORM_CACHE_GEOM")
        .env_remove("XFORM_SANITIZE")
        .output()
        .expect("spawn the bench binary");
    if !out.status.success() {
        return Some(format!(
            "{}: exited {}\n{}",
            r.file,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    if got == expected {
        return None;
    }
    let (want, have): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), got.lines().collect());
    fn line<'a>(v: &[&'a str], i: usize) -> &'a str {
        v.get(i).copied().unwrap_or("<end of output>")
    }
    Some(
        match (0..want.len().max(have.len())).find(|&i| want.get(i) != have.get(i)) {
            Some(i) => format!(
                "{}: line {} differs\n  expected: {}\n  got:      {}",
                r.file,
                i + 1,
                line(&want, i),
                line(&have, i)
            ),
            None => format!("{}: differs in its line endings", r.file),
        },
    )
}

#[test]
fn every_deterministic_output_matches_its_recorded_file() {
    let failures: Vec<String> = RUNS.iter().filter_map(mismatch).collect();
    assert!(
        failures.is_empty(),
        "{} of {} runs moved:\n{}",
        failures.len(),
        RUNS.len(),
        failures.join("\n")
    );
}
