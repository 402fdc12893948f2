//! A cluster node: runtime daemon + its one network endpoint.

use mtgpu_api::transport::{
    FrontendClient, MuxChannel, MuxConnection, MuxPool, ReactorHandle, ReactorStats,
};
use mtgpu_core::{InProcessChannel, MetricsSnapshot, NodeRuntime, RuntimeConfig};
use mtgpu_gpusim::{Driver, GpuSpec};
use mtgpu_simtime::Clock;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// Binds an ephemeral localhost listener (used to pre-reserve peer
/// addresses before the nodes exist).
pub(crate) fn reserve_listener() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind ephemeral listener")
}

/// One compute node: devices + runtime daemon + (optionally) the TCP
/// endpoint remote frontends and peers offloading connections reach it by.
///
/// A listening node owns exactly one listener ([`ClusterNode::mux_addr`]):
/// one nonblocking reactor multiplexing every connection into the runtime's
/// gateway (DESIGN.md §12). The same reactor serves the node's own process
/// over Unix-domain socketpairs ([`ClusterNode::mux_client`],
/// [`ClusterNode::mux_pool`]). There is no second port, no acceptor thread
/// and no second serving loop; an in-process client
/// ([`ClusterNode::client`]) runs its calls on its own thread.
pub struct ClusterNode {
    name: String,
    runtime: Arc<NodeRuntime>,
    /// The reactor in front of the runtime's gateway, if listening.
    mux: Option<ReactorHandle>,
}

impl ClusterNode {
    /// Starts a node with the given GPUs; `listen` controls whether the TCP
    /// endpoint is opened (on an ephemeral localhost port).
    pub fn start(
        name: String,
        clock: Clock,
        specs: Vec<GpuSpec>,
        cfg: RuntimeConfig,
        listen: bool,
    ) -> ClusterNode {
        Self::start_on(name, clock, specs, cfg, listen.then(reserve_listener))
    }

    /// Starts a node serving on an already-bound listener, if any.
    pub fn start_on(
        name: String,
        clock: Clock,
        specs: Vec<GpuSpec>,
        cfg: RuntimeConfig,
        listener: Option<TcpListener>,
    ) -> ClusterNode {
        let driver = Driver::with_devices(clock, specs);
        let runtime = NodeRuntime::start(driver, cfg);
        let mux = listener.map(|listener| runtime.serve(listener).expect("spawn mux reactor"));
        ClusterNode { name, runtime, mux }
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's runtime.
    pub fn runtime(&self) -> &Arc<NodeRuntime> {
        &self.runtime
    }

    /// Runtime metric snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.runtime.metrics()
    }

    /// An in-process client (application running locally on this node): no
    /// wire, no gateway channel, no §4.7 slot — its calls run on the thread
    /// that makes them. An application that should count as the node's
    /// backlog and may be offloaded connects with [`Self::mux_client`].
    pub fn client(&self) -> FrontendClient<InProcessChannel> {
        self.runtime.local_client()
    }

    /// A client that bypasses the mtgpu runtime and talks straight to this
    /// node's CUDA driver — the "TORQUE natively on the bare CUDA runtime"
    /// comparator of §5.4. Subject to all the bare-runtime limits
    /// (≤8 contexts, hard OOM on over-commit, static binding).
    pub fn bare_client(&self) -> mtgpu_api::BareClient {
        mtgpu_api::BareClient::new(std::sync::Arc::clone(self.runtime.driver()))
    }

    /// The node's TCP endpoint, if listening.
    pub fn mux_addr(&self) -> Option<SocketAddr> {
        self.mux.as_ref().map(ReactorHandle::addr)
    }

    /// Reactor statistics for the multiplexed endpoint, if listening.
    pub fn mux_stats(&self) -> Option<&ReactorStats> {
        self.mux.as_ref().map(ReactorHandle::stats)
    }

    /// Live gateway channels, all of them wire ones (diagnostic): an
    /// in-process client has none.
    pub fn mux_channel_count(&self) -> usize {
        self.runtime.channel_count()
    }

    /// A connection to the reactor from this process, over a Unix-domain
    /// socketpair ([`ReactorHandle::connect_local`]); an error on a node
    /// that is not listening. Every client of the node's own process that
    /// goes over the wire connects here, a remote one dials
    /// [`Self::mux_addr`].
    pub fn local_connection(&self) -> std::io::Result<MuxConnection> {
        let reactor = self.mux.as_ref().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "node not listening")
        })?;
        Ok(MuxConnection::over(reactor.connect_local()?))
    }

    /// A client over a connection of its own (an application frontend on
    /// this node, gVirtuS's AF_UNIX path): the one channel of a fresh
    /// socketpair into the node's reactor, which closes when the client is
    /// dropped. The same wire, framing and shedding as over TCP, without
    /// the TCP stack; a remote frontend dials [`Self::mux_addr`] instead.
    pub fn mux_client(&self) -> std::io::Result<FrontendClient<MuxChannel>> {
        Ok(FrontendClient::new(self.local_connection()?.channel()))
    }

    /// A pool of `conns` multiplexed connections from this process, each a
    /// socketpair into the node's reactor as for [`Self::mux_client`]; many
    /// frontends share them round-robin via [`MuxPool::channel`].
    pub fn mux_pool(&self, conns: usize) -> std::io::Result<MuxPool> {
        MuxPool::open(conns, || self.local_connection())
    }

    /// Physical GPUs on the node (what a GPU-aware scheduler sees).
    pub fn gpu_count(&self) -> usize {
        self.runtime.driver().device_count()
    }

    /// Stops the endpoint and the runtime. Ordering matters: the reactor
    /// goes first (no new requests, open connections disconnect), then the
    /// runtime, whose workers drain the queued teardowns on their way out.
    pub fn shutdown(mut self) {
        if let Some(reactor) = self.mux.take() {
            reactor.shutdown();
        }
        self.runtime.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtgpu_api::CudaClient;
    use std::sync::atomic::Ordering;

    #[test]
    fn frontend_on_its_own_connection_reaches_node_runtime() {
        let node = ClusterNode::start(
            "n0".into(),
            Clock::with_scale(1e-7),
            vec![GpuSpec::test_small()],
            RuntimeConfig::paper_default(),
            true,
        );
        let mut client = node.mux_client().unwrap();
        // 1 device × 4 vGPUs visible through the socket.
        assert_eq!(client.get_device_count().unwrap(), 4);
        let ptr = client.malloc(1024).unwrap();
        client.memcpy_h2d(ptr, mtgpu_api::HostBuf::from_slice(&[3u8; 128])).unwrap();
        let back = client.memcpy_d2h(ptr, 128).unwrap();
        assert_eq!(back.payload, vec![3u8; 128]);
        client.exit().unwrap();
        node.shutdown();
    }

    #[test]
    fn mux_frontend_reaches_node_runtime() {
        let node = ClusterNode::start(
            "n0".into(),
            Clock::with_scale(1e-7),
            vec![GpuSpec::test_small()],
            RuntimeConfig::paper_default(),
            true,
        );
        assert!(node.mux_addr().is_some());
        // Two frontends multiplexed over one pooled connection.
        let pool = node.mux_pool(1).unwrap();
        let mut a = FrontendClient::new(pool.channel());
        let mut b = FrontendClient::new(pool.channel());
        assert_eq!(a.get_device_count().unwrap(), 4);
        let ptr = b.malloc(1024).unwrap();
        b.memcpy_h2d(ptr, mtgpu_api::HostBuf::from_slice(&[7u8; 64])).unwrap();
        assert_eq!(b.memcpy_d2h(ptr, 64).unwrap().payload, vec![7u8; 64]);
        a.exit().unwrap();
        b.exit().unwrap();
        assert!(node.runtime().wait_idle(std::time::Duration::from_secs(10)));
        assert_eq!(node.mux_channel_count(), 0);
        assert!(node.mux_stats().unwrap().requests.load(std::sync::atomic::Ordering::Relaxed) >= 2);
        node.shutdown();
    }

    #[test]
    fn dropping_a_local_pool_tears_its_contexts_down() {
        let node = ClusterNode::start(
            "n0".into(),
            Clock::with_scale(1e-7),
            vec![GpuSpec::test_small()],
            RuntimeConfig::paper_default(),
            true,
        );
        let pool = node.mux_pool(2).unwrap();
        let mut clients: Vec<_> = (0..4).map(|_| FrontendClient::new(pool.channel())).collect();
        for client in &mut clients {
            client.malloc(256).unwrap();
        }
        assert_eq!(node.runtime().context_count(), 4);
        let stats = node.mux_stats().unwrap();
        let (local, accepted) = (&stats.local, &stats.accepted);
        assert_eq!((local.load(Ordering::Relaxed), accepted.load(Ordering::Relaxed)), (2, 0));
        // No client said Exit: the pool's hang-up alone lets the node go.
        drop(pool);
        assert!(node.runtime().wait_contexts(0, std::time::Duration::from_secs(10)));
        assert_eq!(clients[0].synchronize(), Err(mtgpu_api::CudaError::Disconnected));
        node.shutdown();
    }

    #[test]
    fn non_finite_hint_is_a_typed_rejection_that_spares_the_connection() {
        // The binary wire carries NaN bit-exact (JSON rendered it as `null`,
        // and the decode failure closed the whole connection): the guard
        // must refuse it, per call, with co-tenant channels unharmed.
        let node = ClusterNode::start(
            "n0".into(),
            Clock::with_scale(1e-7),
            vec![GpuSpec::test_small()],
            RuntimeConfig::paper_default(),
            true,
        );
        let pool = node.mux_pool(1).unwrap();
        let mut hostile = FrontendClient::new(pool.channel());
        let mut sibling = FrontendClient::new(pool.channel());
        let ptr = sibling.malloc(256).unwrap();
        for flops in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                hostile.call(mtgpu_api::CudaCall::HintJobLength { flops }),
                Err(mtgpu_api::CudaError::MalformedDescriptor(_))
            ));
        }
        assert_eq!(node.metrics().descriptor_rejections, 3);
        // Same socket, both channels: still served.
        hostile.call(mtgpu_api::CudaCall::HintJobLength { flops: 1e9 }).unwrap();
        sibling.memcpy_h2d(ptr, mtgpu_api::HostBuf::from_slice(&[5u8; 256])).unwrap();
        assert_eq!(sibling.memcpy_d2h(ptr, 256).unwrap().payload, vec![5u8; 256]);
        let stats = node.mux_stats().unwrap();
        assert_eq!(stats.protocol_errors.load(std::sync::atomic::Ordering::Relaxed), 0);
        hostile.exit().unwrap();
        sibling.exit().unwrap();
        node.shutdown();
    }

    #[test]
    fn non_finite_launch_work_is_refused_and_the_reactor_keeps_serving() {
        // The reactor weighs a launch's work to decide where it runs before
        // the guard has looked at it: infinite work must weigh as "too long
        // for the reactor", not overflow, and the guard then refuses it.
        let node = ClusterNode::start(
            "n0".into(),
            Clock::with_scale(1e-7),
            vec![GpuSpec::test_small()],
            RuntimeConfig::paper_default(),
            true,
        );
        let pool = node.mux_pool(1).unwrap();
        let mut hostile = FrontendClient::new(pool.channel());
        let mut sibling = FrontendClient::new(pool.channel());
        for flops in [f64::INFINITY, f64::NAN, f64::MAX] {
            let spec = mtgpu_gpusim::LaunchSpec {
                kernel: "k".into(),
                config: mtgpu_gpusim::LaunchConfig::default(),
                args: Vec::new(),
                work: mtgpu_gpusim::Work { flops, bytes: f64::INFINITY },
            };
            assert!(matches!(
                hostile.call(mtgpu_api::CudaCall::Launch { spec }),
                Err(mtgpu_api::CudaError::MalformedDescriptor(_))
            ));
        }
        assert_eq!(node.metrics().descriptor_rejections, 3);
        assert_eq!(sibling.get_device_count().unwrap(), 4);
        hostile.exit().unwrap();
        sibling.exit().unwrap();
        node.shutdown();
    }

    #[test]
    fn non_listening_node_has_no_endpoint() {
        let node = ClusterNode::start(
            "n0".into(),
            Clock::with_scale(1e-7),
            vec![GpuSpec::test_small()],
            RuntimeConfig::paper_default(),
            false,
        );
        assert!(node.mux_addr().is_none());
        assert!(node.mux_client().is_err());
        node.shutdown();
    }
}
