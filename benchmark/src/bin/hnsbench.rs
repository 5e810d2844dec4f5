//! The measured binary: plain system allocator, tracing off.

fn main() -> std::process::ExitCode {
    hnsbench::cli::main(false)
}
