//! The traced binary: the same program with the counting allocator
//! installed, so the probes can report bytes allocated per call. End-to-
//! end numbers never come from this binary.

use conformance::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    hnsbench::cli::main(true)
}
