//! `benchmark`: see `benchmark/README.md`.

use slacksim_benchmark::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    slacksim_benchmark::cli::main(std::env::args().skip(1).collect())
}
