//! Framed TCP transport: one [`super::frame`] frame per call and per reply.
//!
//! Used for separate-process node daemons and for the inter-node offloading
//! path (§4.7, "the runtime redirects application threads ... to other nodes
//! using a TCP socket interface"). The body is the binary [`crate::wire`]
//! codec: every CUDA call of every tenant pays the wire twice, so its cost
//! is part of each call's latency (EXPERIMENTS.md, wire codec).

use super::frame::{read_frame, write_frame};
use super::{RecvOutcome, ServerConn, Transport};
use crate::error::CudaError;
use crate::protocol::{CudaCall, CudaReply};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client end over TCP.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Connects to a runtime daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream })
    }

    /// Wraps an already-connected stream.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream })
    }
}

impl Transport for TcpTransport {
    fn roundtrip(&mut self, call: CudaCall) -> CudaReply {
        write_frame(&mut self.stream, &call).map_err(|_| CudaError::Disconnected)?;
        read_frame::<CudaReply>(&mut self.stream).map_err(|_| CudaError::Disconnected)?
    }
}

/// Server end over TCP. A pump thread decodes incoming frames into a
/// bounded channel so `has_pending`/`recv_timeout` (CPU-phase detection)
/// work without blocking on the socket.
pub struct TcpServerConn {
    calls: Receiver<CudaCall>,
    stream: TcpStream,
    peer: String,
}

impl TcpServerConn {
    /// Adopts an accepted stream, spawning its reader pump.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        let peer =
            stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "tcp-peer".to_string());
        let mut reader = stream.try_clone()?;
        let (tx, rx) = bounded(256);
        std::thread::Builder::new()
            .name(format!("tcp-pump-{peer}"))
            .spawn(move || {
                while let Ok(call) = read_frame::<CudaCall>(&mut reader) {
                    if tx.send(call).is_err() {
                        break;
                    }
                }
                // Dropping tx signals Closed to the consumer.
            })
            .expect("spawn tcp pump thread");
        Ok(TcpServerConn { calls: rx, stream, peer })
    }
}

impl ServerConn for TcpServerConn {
    fn recv(&mut self) -> Option<CudaCall> {
        self.calls.recv().ok()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> RecvOutcome {
        match self.calls.recv_timeout(timeout) {
            Ok(call) => RecvOutcome::Call(call),
            Err(RecvTimeoutError::Timeout) => RecvOutcome::Idle,
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Closed,
        }
    }

    fn has_pending(&self) -> bool {
        !self.calls.is_empty()
    }

    fn send(&mut self, reply: CudaReply) -> bool {
        write_frame(&mut self.stream, &reply).is_ok()
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::CudaClient;
    use crate::protocol::ReplyValue;
    use crate::transport::FrontendClient;
    use std::net::TcpListener;

    #[test]
    fn tcp_roundtrip_end_to_end() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = TcpServerConn::from_stream(stream).unwrap();
            let mut served = 0;
            while let Some(call) = conn.recv() {
                let done = matches!(call, CudaCall::Exit);
                conn.send(Ok(ReplyValue::DeviceCount(4)));
                served += 1;
                if done {
                    break;
                }
            }
            served
        });
        let mut client = FrontendClient::new(TcpTransport::connect(addr).unwrap());
        assert_eq!(client.get_device_count().unwrap(), 4);
        client.call(CudaCall::Exit).unwrap();
        assert_eq!(server.join().unwrap(), 2);
    }
}
