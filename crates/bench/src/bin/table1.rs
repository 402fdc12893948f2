//! Regenerates Table 1 of the paper (live-probed runtime actions/errors).
//! Takes the figure binaries' flags and ignores them: the probe has one
//! size and its own clock.

fn main() {
    mtgpu_bench::figures::main("table1");
}
