//! In-process transport over crossbeam channels: application threads linked
//! into the daemon's own process (single-process deployments, the figures,
//! the deterministic harness, tests).

use super::{RecvOutcome, ServerConn, Transport};
use crate::error::CudaError;
use crate::protocol::{CudaCall, CudaReply};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Client end of an in-process connection.
pub struct ChannelTransport {
    tx: Sender<CudaCall>,
    rx: Receiver<CudaReply>,
}

/// Server end of an in-process connection.
pub struct ChannelServerConn {
    rx: Receiver<CudaCall>,
    tx: Sender<CudaReply>,
    label: String,
}

/// Creates a connected (client, server) pair.
pub fn channel_pair() -> (ChannelTransport, ChannelServerConn) {
    let (call_tx, call_rx) = unbounded();
    let (reply_tx, reply_rx) = unbounded();
    (
        ChannelTransport { tx: call_tx, rx: reply_rx },
        ChannelServerConn { rx: call_rx, tx: reply_tx, label: "channel".to_string() },
    )
}

impl ChannelServerConn {
    /// Attaches a diagnostic label (e.g. job name).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl Transport for ChannelTransport {
    fn roundtrip(&mut self, call: CudaCall) -> CudaReply {
        self.tx.send(call).map_err(|_| CudaError::Disconnected)?;
        self.rx.recv().map_err(|_| CudaError::Disconnected)?
    }
}

impl ServerConn for ChannelServerConn {
    fn recv(&mut self) -> Option<CudaCall> {
        self.rx.recv().ok()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> RecvOutcome {
        match self.rx.recv_timeout(timeout) {
            Ok(call) => RecvOutcome::Call(call),
            Err(RecvTimeoutError::Timeout) => RecvOutcome::Idle,
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Closed,
        }
    }

    fn send(&mut self, reply: CudaReply) -> bool {
        self.tx.send(reply).is_ok()
    }

    fn peer(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ReplyValue;

    #[test]
    fn call_and_reply_cross_the_pair() {
        let (mut t, mut s) = channel_pair();
        let h = std::thread::spawn(move || t.roundtrip(CudaCall::Synchronize));
        let call = s.recv().unwrap();
        assert_eq!(call.name(), "Synchronize");
        assert!(s.send(Ok(ReplyValue::Unit)));
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn timeout_reports_idle_then_closed() {
        let (t, mut s) = channel_pair();
        assert!(matches!(s.recv_timeout(Duration::from_millis(1)), RecvOutcome::Idle));
        drop(t);
        assert!(matches!(s.recv_timeout(Duration::from_millis(1)), RecvOutcome::Closed));
    }
}
