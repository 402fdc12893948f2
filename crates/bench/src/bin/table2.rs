//! Regenerates Table 2 of the paper. Flags: `--quick` (shrunken run),
//! `--seed <n>` (deterministic scheduling), `--virtual-clock` (logical
//! time, no real sleeps).

fn main() {
    mtgpu_bench::figures::main("table2");
}
