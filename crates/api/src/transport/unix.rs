//! AF_UNIX transport: the gVirtuS framework "relies on afunix sockets in a
//! non-virtualized environment" (§3) — this is that path, for applications
//! and the runtime daemon sharing a host. Framing is identical to the TCP
//! transport.

use super::frame::{read_frame, write_frame};
use super::{RecvOutcome, ServerConn, Transport};
use crate::error::CudaError;
use crate::protocol::{CudaCall, CudaReply};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Client end over a Unix domain socket.
pub struct UnixTransport {
    stream: UnixStream,
}

impl UnixTransport {
    /// Connects to a runtime daemon's socket path.
    pub fn connect(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(UnixTransport { stream: UnixStream::connect(path)? })
    }

    /// Wraps an already-connected stream.
    pub fn from_stream(stream: UnixStream) -> Self {
        UnixTransport { stream }
    }
}

impl Transport for UnixTransport {
    fn roundtrip(&mut self, call: CudaCall) -> CudaReply {
        write_frame(&mut self.stream, &call).map_err(|_| CudaError::Disconnected)?;
        read_frame::<CudaReply>(&mut self.stream).map_err(|_| CudaError::Disconnected)?
    }
}

/// Server end over a Unix domain socket, with the same pump-thread design
/// as the TCP variant so CPU-phase detection works.
pub struct UnixServerConn {
    calls: Receiver<CudaCall>,
    stream: UnixStream,
    peer: String,
}

impl UnixServerConn {
    /// Adopts an accepted stream, spawning its reader pump.
    pub fn from_stream(stream: UnixStream) -> std::io::Result<Self> {
        let mut reader = stream.try_clone()?;
        let (tx, rx) = bounded(256);
        std::thread::Builder::new()
            .name("unix-pump".to_string())
            .spawn(move || {
                while let Ok(call) = read_frame::<CudaCall>(&mut reader) {
                    if tx.send(call).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn unix pump thread");
        Ok(UnixServerConn { calls: rx, stream, peer: "afunix".to_string() })
    }
}

impl ServerConn for UnixServerConn {
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
    use std::os::unix::net::UnixListener;

    fn socket_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mtgpu-afunix-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn afunix_roundtrip_end_to_end() {
        let path = socket_path("rt");
        let listener = UnixListener::bind(&path).unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = UnixServerConn::from_stream(stream).unwrap();
            let mut served = 0;
            while let Some(call) = conn.recv() {
                let done = matches!(call, CudaCall::Exit);
                conn.send(Ok(ReplyValue::DeviceCount(7)));
                served += 1;
                if done {
                    break;
                }
            }
            served
        });
        let mut client = FrontendClient::new(UnixTransport::connect(&path).unwrap());
        assert_eq!(client.get_device_count().unwrap(), 7);
        client.call(CudaCall::Exit).unwrap();
        assert_eq!(server.join().unwrap(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn connect_to_missing_socket_fails() {
        let path = socket_path("absent");
        assert!(UnixTransport::connect(&path).is_err());
    }
}
