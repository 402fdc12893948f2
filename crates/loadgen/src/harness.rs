//! The sequential virtual-clock harness: what every replayable run stands
//! on.
//!
//! One driver thread, one request in flight, a [`Clock::virtual_clock`]
//! that moves only when an operation (or the script) advances it, the
//! background monitor off (scripts call `monitor_tick` at chosen points)
//! and every random draw forked off one seed: a run's counters, results and
//! final virtual time are then a pure function of that seed. This module
//! is the part the scripts share — node bring-up, the wire, the teardown
//! barrier, the closing snapshot; what a run *does* stays with its script:
//! `mtgpu::det` (xor ops under a fault plan), [`crate::det`] (the catalog,
//! round-robin) and [`crate::migration`] (skewed churn).

use mtgpu_api::transport::MuxConnection;
use mtgpu_api::{CudaClient, FrontendClient};
use mtgpu_cluster::ClusterNode;
use mtgpu_core::{MetricsSnapshot, NodeRuntime, RuntimeConfig};
use mtgpu_gpusim::GpuSpec;
use mtgpu_simtime::Clock;
use std::sync::Arc;
use std::time::Duration;

/// Real-time bound on one teardown; a run that hits it is broken, not slow.
const TEARDOWN_TIMEOUT: Duration = Duration::from_secs(10);

/// A node on the virtual clock and the wire its one driver reaches it by.
pub struct SeqHarness {
    clock: Clock,
    node: ClusterNode,
    /// The run's one persistent connection, when it goes over the wire.
    conn: Option<MuxConnection>,
}

impl SeqHarness {
    /// The runtime configuration of a replayable run; scripts set what
    /// else they need (a tenant policy, the load balancer) on the result.
    pub fn config(vgpus_per_device: u32, seed: u64) -> RuntimeConfig {
        RuntimeConfig::paper_default()
            .with_vgpus(vgpus_per_device)
            .with_seed(seed)
            .with_background_monitor(false)
    }

    /// Starts the node under test. With `mux`, every client is a fresh
    /// channel on one connection through the reactor (DESIGN.md §12), the
    /// node's own local socketpair ([`ClusterNode::local_connection`]): one
    /// request in flight keeps the reactor and worker threads off the
    /// virtual-time axis, so the run replays as the in-process one does.
    pub fn start(specs: Vec<GpuSpec>, cfg: RuntimeConfig, mux: bool) -> SeqHarness {
        assert!(!cfg.background_monitor, "a monitor thread would tick at real-time instants");
        let clock = Clock::virtual_clock();
        let node = ClusterNode::start("det".into(), clock.clone(), specs, cfg, mux);
        let conn = mux.then(|| node.local_connection().expect("connect det mux"));
        SeqHarness { clock, node, conn }
    }

    /// The virtual clock the node and its devices run on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The node's runtime (monitor ticks, the driver for fault plans).
    pub fn runtime(&self) -> &Arc<NodeRuntime> {
        self.node.runtime()
    }

    /// A fresh context: an in-process client, which runs its calls on the
    /// driver's thread, or a channel on the connection — pipelined like `loadgen --persistent`, so the replay
    /// covers the batched wire shape too.
    pub fn client(&self) -> Box<dyn CudaClient> {
        match &self.conn {
            Some(conn) => Box::new(FrontendClient::new(conn.channel()).with_pipelining()),
            None => Box::new(self.node.client()),
        }
    }

    /// Round trips the run's clients have made on the wire (0 in-process).
    pub fn round_trips(&self) -> u64 {
        self.conn.as_ref().map_or(0, MuxConnection::round_trips)
    }

    /// The determinism barrier after an exit or a severed transport: the
    /// reply leaves before the teardown, whose counters the next step must
    /// not race.
    ///
    /// # Panics
    /// Panics if more than `live` contexts are still there after 10 s.
    pub fn barrier(&self, live: usize) {
        assert!(
            self.runtime().wait_contexts(live, TEARDOWN_TIMEOUT),
            "context teardown did not complete: {} contexts live, want {live}",
            self.runtime().context_count()
        );
    }

    /// Stops the node; the drained runtime's counters and the virtual
    /// nanoseconds the run took.
    pub fn finish(self) -> (MetricsSnapshot, u64) {
        let metrics = self.node.metrics();
        let final_virtual_nanos = self.clock.now().since_epoch().as_nanos();
        if let Some(conn) = self.conn {
            conn.shutdown();
        }
        self.node.shutdown();
        (metrics, final_virtual_nanos)
    }
}
