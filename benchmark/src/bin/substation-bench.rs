//! The benchmark binary `run.sh` runs. Nothing here: timing code and the
//! counting allocator must not share a process, so the package is a library
//! with two thin binaries.

#![forbid(unsafe_code)]

fn main() -> std::process::ExitCode {
    substation_benchmark::main()
}
