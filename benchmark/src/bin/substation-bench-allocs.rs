//! The allocation probe: the library's public `CountingAlloc` installed as
//! the global allocator, and the handful of ops whose heap traffic the
//! per-layer metrics report. The traced run starts it as a child.

#![forbid(unsafe_code)]

use substation::core::profile::CountingAlloc;
use substation_benchmark::allocs::{self, Heap};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn heap() -> Heap {
    Heap {
        allocs: ALLOC.allocations(),
        bytes: ALLOC.bytes_allocated(),
        events: ALLOC.events(),
    }
}

fn main() -> std::process::ExitCode {
    allocs::main(heap)
}
