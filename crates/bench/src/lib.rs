//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§5).
//!
//! Each `figures::figN` module reproduces the corresponding figure's
//! experiment; the `src/bin/figN` binaries print the paper-style series and
//! the `repro_all` binary runs the whole evaluation and emits
//! `EXPERIMENTS.md`-ready markdown. Criterion benches (in `benches/`)
//! cover micro-costs, shrunken figure scenarios and design-choice
//! ablations.
//!
//! Absolute numbers are simulated seconds on the modelled 2012 testbed; the
//! comparisons the paper makes (who wins, by what factor, where crossovers
//! fall) are the reproduction target.

pub mod figures;
pub mod harness;
pub mod table;

pub use harness::{ExperimentScale, NodeSetup};
pub use table::TableDoc;
