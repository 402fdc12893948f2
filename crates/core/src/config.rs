//! Runtime configuration knobs.

use crate::memory::MemoryConfig;
use mtgpu_simtime::SimDuration;
use serde::Serialize;

/// Which scheduling algorithm the dispatcher uses (§4.3: "the dispatcher can
/// be configured to use different scheduling algorithms").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Default)]
pub enum SchedulerPolicy {
    /// First-come-first-served, round-robin across devices, keeping the
    /// number of active vGPUs uniform — the policy used throughout §5.
    #[default]
    FcfsRoundRobin,
    /// Shortest-job-first on the pending launch's declared work.
    ShortestJobFirst,
    /// Credit-based fair scheduling: waiting contexts with the most credits
    /// go first; each grant spends a credit, refilled when all are exhausted.
    CreditBased,
}

/// Configuration of the node runtime.
#[derive(Debug, Clone, Serialize)]
pub struct RuntimeConfig {
    /// Virtual GPUs spawned per physical device (the sharing degree, §4.4).
    /// The paper settles on 4 as "a good compromise" (§5.3.2).
    pub vgpus_per_device: u32,
    /// Enable inter-application swap (§4.5). When off, memory pressure is
    /// resolved only by unbind-and-retry.
    pub inter_app_swap: bool,
    /// Scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// Live-migrate ([`crate::NodeRuntime::migrate_ctx`]) an idle context
    /// off the device under the most pressure — a slower device counts as
    /// more pressed at equal load — when another device has a free vGPU and
    /// nothing is waiting (§5.3.4, DESIGN.md §15). One move per monitor pass.
    pub dynamic_load_balancing: bool,
    /// Take an automatic checkpoint after any kernel whose simulated
    /// duration meets this threshold (§4.6). `None` disables.
    pub auto_checkpoint_after: Option<SimDuration>,
    /// Backlog (bound + waiting contexts) beyond which new connections are
    /// offloaded to peer nodes (§4.7). `None` disables offloading.
    pub offload_threshold: Option<usize>,
    /// Peer runtime daemons (their listen addresses) eligible for offloading.
    pub offload_peers: Vec<String>,
    /// The memory manager's limits: page-table entries per context and the
    /// swap area's capacity (§4.5). Transfers are always deferred to the
    /// launch that needs them and coalesced into one upload per entry.
    pub memory: MemoryConfig,
    /// Root seed for every randomized decision the runtime makes
    /// (dispatcher tie-breaks draw from a [`mtgpu_simtime::DetRng`] derived
    /// from it), so a whole run replays bit-for-bit. `0` is a seed like any
    /// other.
    pub seed: u64,
    /// Spawn the background health/migration monitor thread. Deterministic
    /// harnesses turn this off and drive recovery explicitly through
    /// [`crate::NodeRuntime::monitor_tick`], so monitor actions land at
    /// reproducible points of the schedule.
    pub background_monitor: bool,
    /// Tenant-policy layer: leases, admission control, TTL reaping and
    /// priority preemption. `None` (the default) disables the layer
    /// entirely — every tenant is admitted unconditionally, as before.
    pub tenant_policy: Option<crate::policy::TenantPolicyConfig>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            vgpus_per_device: 4,
            inter_app_swap: true,
            scheduler: SchedulerPolicy::FcfsRoundRobin,
            dynamic_load_balancing: false,
            auto_checkpoint_after: None,
            offload_threshold: None,
            offload_peers: Vec::new(),
            memory: MemoryConfig::default(),
            seed: 0,
            background_monitor: true,
            tenant_policy: None,
        }
    }
}

impl RuntimeConfig {
    /// The paper's experimental configuration: 4 vGPUs per device, both swap
    /// kinds enabled, FCFS round-robin.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Serialized execution: 1 vGPU per device (the paper's "no sharing"
    /// baseline in Figs. 7–11).
    pub fn serialized() -> Self {
        RuntimeConfig { vgpus_per_device: 1, ..Self::default() }
    }

    /// Builder-style override of the vGPU count.
    pub fn with_vgpus(mut self, n: u32) -> Self {
        self.vgpus_per_device = n;
        self
    }

    /// Builder-style override of the scheduler policy.
    pub fn with_scheduler(mut self, p: SchedulerPolicy) -> Self {
        self.scheduler = p;
        self
    }

    /// Builder-style override of the determinism seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style toggle of the background monitor thread.
    pub fn with_background_monitor(mut self, on: bool) -> Self {
        self.background_monitor = on;
        self
    }

    /// Builder-style activation of the tenant-policy layer.
    pub fn with_tenant_policy(mut self, policy: crate::policy::TenantPolicyConfig) -> Self {
        self.tenant_policy = Some(policy);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RuntimeConfig::paper_default();
        assert_eq!(c.vgpus_per_device, 4);
        assert!(c.inter_app_swap);
        assert_eq!(c.scheduler, SchedulerPolicy::FcfsRoundRobin);
    }

    #[test]
    fn serialized_uses_one_vgpu() {
        assert_eq!(RuntimeConfig::serialized().vgpus_per_device, 1);
    }

    #[test]
    fn builders_compose() {
        let c = RuntimeConfig::default()
            .with_vgpus(8)
            .with_scheduler(SchedulerPolicy::ShortestJobFirst)
            .with_seed(42)
            .with_background_monitor(false);
        assert_eq!(c.vgpus_per_device, 8);
        assert_eq!(c.scheduler, SchedulerPolicy::ShortestJobFirst);
        assert_eq!(c.seed, 42);
        assert!(!c.background_monitor);
    }

    #[test]
    fn paper_default_is_the_default() {
        let (paper, default) = (RuntimeConfig::paper_default(), RuntimeConfig::default());
        assert_eq!(
            serde_json::to_string(&paper).unwrap(),
            serde_json::to_string(&default).unwrap()
        );
        assert!(default.background_monitor);
        assert!(!default.dynamic_load_balancing, "migration is opt-in (Fig. 9 turns it on)");
    }
}
