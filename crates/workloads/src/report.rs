//! Per-run reports.

use mtgpu_simtime::SimDuration;
use serde::Serialize;

/// The result of one workload execution.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadReport {
    /// Table 2 program name.
    pub name: String,
    /// Kernel launches performed.
    pub kernel_calls: u64,
    /// Whether the functional result verified against the host reference.
    pub verified: bool,
    /// Simulated execution time (filled by the batch runner; a bare
    /// workload run leaves it zero).
    pub elapsed: SimDuration,
}

impl WorkloadReport {
    /// A verified report.
    pub fn verified(name: impl Into<String>, kernel_calls: u64) -> Self {
        WorkloadReport {
            name: name.into(),
            kernel_calls,
            verified: true,
            elapsed: SimDuration::ZERO,
        }
    }

    /// A report that failed verification.
    pub fn failed(name: impl Into<String>, kernel_calls: u64) -> Self {
        WorkloadReport {
            name: name.into(),
            kernel_calls,
            verified: false,
            elapsed: SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert!(WorkloadReport::verified("VA", 1).verified);
        assert!(!WorkloadReport::failed("VA", 1).verified);
    }
}
