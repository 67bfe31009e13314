//! `repro`: regenerates the paper's tables, figures and studies, audits
//! the execution plans statically and profiles them at run time.
//! `repro --help` lists every entry, flag and environment knob.
//!
//! Exit codes: `0` success, `1` a failed gate or run, `2` a usage error or
//! a malformed `XFORM_CACHE_GEOM`.

use std::process::ExitCode;

use xform_bench::cli::{self, Command};
use xform_bench::{audit, paper, profile};
use xform_core::profile::CountingAlloc;

/// Counts heap events, for the profile's zero-allocation gates.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() -> ExitCode {
    let usage = |msg: String| {
        eprintln!("repro: {msg}");
        ExitCode::from(2)
    };
    let command = match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Help) => {
            print!("{}", cli::render_help());
            return ExitCode::SUCCESS;
        }
        Ok(command) => command,
        Err(msg) => return usage(msg),
    };
    let geometry = match cli::cache_geometry() {
        Ok(geometry) => geometry,
        Err(msg) => return usage(msg),
    };
    let outcome = match command {
        Command::Entries(entries) => paper::run(&entries),
        Command::Audit(flags) => audit::run(&flags, geometry),
        Command::Profile(flags) => profile::run(&flags, geometry, &ALLOC),
        Command::Help => Ok(()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}
