//! A cluster node: runtime daemon + TCP acceptor.

use mtgpu_api::transport::{
    spawn_reactor, ChannelTransport, FrontendClient, MuxChannel, MuxConnection, MuxPool,
    MuxService, ReactorConfig, ReactorHandle, ReactorStats, ReplySink, TcpServerConn, TcpTransport,
};
use mtgpu_core::{MetricsSnapshot, MuxGateway, MuxGatewayHandle, NodeRuntime, RuntimeConfig};
use mtgpu_gpusim::{Driver, GpuSpec};
use mtgpu_simtime::Clock;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Binds an ephemeral localhost listener (used to pre-reserve peer
/// addresses before the nodes exist).
pub(crate) fn reserve_listener() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind ephemeral listener")
}

/// The node's multiplexed endpoint: one reactor serving every mux
/// connection, backed by the gateway's worker pool.
struct MuxEndpoint {
    addr: SocketAddr,
    reactor: ReactorHandle,
    gateway: Arc<MuxGateway>,
    workers: Option<MuxGatewayHandle>,
}

/// One compute node: devices + runtime daemon + (optionally) a TCP
/// endpoint accepting remote frontends and offloaded connections.
///
/// Listening nodes open *two* ports: the legacy thread-per-connection
/// endpoint ([`ClusterNode::addr`], one handler thread and one socket per
/// frontend) and the multiplexed endpoint ([`ClusterNode::mux_addr`], one
/// nonblocking reactor multiplexing every connection; see DESIGN.md §12).
pub struct ClusterNode {
    name: String,
    runtime: Arc<NodeRuntime>,
    addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    mux: Option<MuxEndpoint>,
}

impl ClusterNode {
    /// Starts a node with the given GPUs; `listen` controls whether a TCP
    /// endpoint is opened.
    pub fn start(
        name: String,
        clock: Clock,
        specs: Vec<GpuSpec>,
        cfg: RuntimeConfig,
        listen: bool,
    ) -> ClusterNode {
        if listen {
            Self::start_with_listener(name, clock, specs, cfg, reserve_listener())
        } else {
            let driver = Driver::with_devices(clock, specs);
            let runtime = NodeRuntime::start(driver, cfg);
            ClusterNode {
                name,
                runtime,
                addr: None,
                stop: Arc::new(AtomicBool::new(false)),
                acceptor: None,
                mux: None,
            }
        }
    }

    /// Starts a node serving on an already-bound (legacy) listener; the
    /// multiplexed endpoint binds an ephemeral port of its own.
    pub fn start_with_listener(
        name: String,
        clock: Clock,
        specs: Vec<GpuSpec>,
        cfg: RuntimeConfig,
        listener: TcpListener,
    ) -> ClusterNode {
        Self::start_with_listeners(name, clock, specs, cfg, listener, reserve_listener())
    }

    /// Starts a node serving on already-bound legacy and mux listeners.
    pub fn start_with_listeners(
        name: String,
        clock: Clock,
        specs: Vec<GpuSpec>,
        cfg: RuntimeConfig,
        listener: TcpListener,
        mux_listener: TcpListener,
    ) -> ClusterNode {
        let driver = Driver::with_devices(clock, specs);
        let runtime = NodeRuntime::start(driver, cfg);
        let addr = listener.local_addr().expect("listener address");
        listener.set_nonblocking(true).expect("nonblocking listener");
        let stop = Arc::new(AtomicBool::new(false));
        let accept_rt = Arc::clone(&runtime);
        let accept_stop = Arc::clone(&stop);
        let acceptor = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || {
                while !accept_stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if let Ok(conn) = TcpServerConn::from_stream(stream) {
                                accept_rt.connect(Box::new(conn));
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            // mtlint: allow(thread-sleep, reason = "non-blocking TCP accept backoff on a real OS socket; outside every deterministic replay path")
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn acceptor");
        let mux_addr = mux_listener.local_addr().expect("mux listener address");
        let (sink, queue) = ReplySink::channel();
        let (gateway, workers) = MuxGateway::start(Arc::clone(&runtime), sink);
        let svc: Arc<dyn MuxService> = gateway.clone();
        let reactor = spawn_reactor(mux_listener, ReactorConfig::default(), svc, queue)
            .expect("spawn mux reactor");
        ClusterNode {
            name,
            runtime,
            addr: Some(addr),
            stop,
            acceptor: Some(acceptor),
            mux: Some(MuxEndpoint { addr: mux_addr, reactor, gateway, workers: Some(workers) }),
        }
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// TCP endpoint, if listening.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// The node's runtime.
    pub fn runtime(&self) -> &Arc<NodeRuntime> {
        &self.runtime
    }

    /// Runtime metric snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.runtime.metrics()
    }

    /// An in-process client (application running locally on this node).
    pub fn client(&self) -> FrontendClient<ChannelTransport> {
        self.runtime.local_client()
    }

    /// A client that bypasses the mtgpu runtime and talks straight to this
    /// node's CUDA driver — the "TORQUE natively on the bare CUDA runtime"
    /// comparator of §5.4. Subject to all the bare-runtime limits
    /// (≤8 contexts, hard OOM on over-commit, static binding).
    pub fn bare_client(&self) -> mtgpu_api::BareClient {
        mtgpu_api::BareClient::new(std::sync::Arc::clone(self.runtime.driver()))
    }

    /// A TCP client (application or VM frontend reaching the node over the
    /// network).
    pub fn tcp_client(&self) -> std::io::Result<FrontendClient<TcpTransport>> {
        let addr = self.addr.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "node not listening")
        })?;
        Ok(FrontendClient::new(TcpTransport::connect(addr)?))
    }

    /// Multiplexed TCP endpoint, if listening.
    pub fn mux_addr(&self) -> Option<SocketAddr> {
        self.mux.as_ref().map(|m| m.addr)
    }

    /// Reactor statistics for the multiplexed endpoint, if listening.
    pub fn mux_stats(&self) -> Option<&ReactorStats> {
        self.mux.as_ref().map(|m| m.reactor.stats())
    }

    /// Live multiplexed channels (diagnostic).
    pub fn mux_channel_count(&self) -> usize {
        self.mux.as_ref().map_or(0, |m| m.gateway.channel_count())
    }

    /// A client over its own multiplexed connection (first channel on a
    /// fresh socket).
    pub fn mux_client(&self) -> std::io::Result<FrontendClient<MuxChannel>> {
        let addr = self.mux_addr().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "node not listening")
        })?;
        Ok(FrontendClient::new(MuxConnection::connect(addr)?.channel()))
    }

    /// A pool of `conns` multiplexed connections; many frontends share them
    /// round-robin via [`MuxPool::channel`].
    pub fn mux_pool(&self, conns: usize) -> std::io::Result<MuxPool> {
        let addr = self.mux_addr().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "node not listening")
        })?;
        MuxPool::connect(addr, conns)
    }

    /// Physical GPUs on the node (what a GPU-aware scheduler sees).
    pub fn gpu_count(&self) -> usize {
        self.runtime.driver().device_count()
    }

    /// Stops the acceptors and the runtime. Ordering matters: the reactor
    /// goes first (no new mux requests, open connections disconnect), then
    /// the gateway workers drain queued teardowns, then the runtime stops.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(mut mux) = self.mux.take() {
            mux.reactor.shutdown();
            if let Some(workers) = mux.workers.take() {
                workers.shutdown();
            }
        }
        self.runtime.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtgpu_api::CudaClient;

    #[test]
    fn tcp_frontend_reaches_node_runtime() {
        let node = ClusterNode::start(
            "n0".into(),
            Clock::with_scale(1e-7),
            vec![GpuSpec::test_small()],
            RuntimeConfig::paper_default(),
            true,
        );
        let mut client = node.tcp_client().unwrap();
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
    fn non_listening_node_has_no_endpoint() {
        let node = ClusterNode::start(
            "n0".into(),
            Clock::with_scale(1e-7),
            vec![GpuSpec::test_small()],
            RuntimeConfig::paper_default(),
            false,
        );
        assert!(node.addr().is_none());
        assert!(node.tcp_client().is_err());
        assert!(node.mux_addr().is_none());
        assert!(node.mux_client().is_err());
        node.shutdown();
    }
}
