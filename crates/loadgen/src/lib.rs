//! Multi-tenant load generation for the mtgpu runtime.
//!
//! Two drivers over the Table 2 workload catalog, and what rides them:
//!
//! * **concurrent** ([`run_load`]) — a thread per tenant against a node's
//!   reactor, over local socketpairs, *closed loop* ([`Mode::Closed`]: the next request the
//!   moment the previous one finishes, saturating the dispatcher) or *open
//!   loop* ([`Mode::Open`]: a fixed aggregate schedule, latency charging any
//!   time spent behind it). **Adversarial isolation** ([`run_isolation`])
//!   is this closed loop as the honest side, racing lease-capped hostile
//!   tenants, against a hostile-free baseline;
//! * **sequential** ([`SeqHarness`]) — one request in flight on a virtual
//!   clock, so a run is a pure function of its seed. Its scripts:
//!   [`run_det`] (the catalog round-robin, latency fingerprint),
//!   [`run_migration_load`] (skewed churn, static against rebalanced) and,
//!   in the facade crate, `mtgpu::det` (fault injection).
//!
//! All drivers emit a [`LoadReport`] (JSON, conventionally under
//! `results/`) with per-request latency quantiles, throughput, per-tenant
//! outcomes and a max/min fairness ratio.

pub mod det;
pub mod driver;
pub mod harness;
pub mod hist;
pub mod isolation;
pub mod migration;
pub mod report;

pub use det::{run_det, DetLoadConfig, DetLoadFingerprint, DetTransport};
pub use driver::{run_load, LoadgenConfig, Mode};
pub use harness::SeqHarness;
pub use hist::{LatencyHistogram, LatencySummary};
pub use isolation::{run_isolation, IsolationConfig, IsolationReport};
pub use migration::{
    run_migration_load, MigrationBenchReport, MigrationLoadConfig, MigrationPassReport,
};
pub use report::{fairness_ratio, LoadReport, TenantReport, FAIRNESS_STARVED};
