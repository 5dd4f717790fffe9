//! The TCP repository server: one [`ServerNode`] behind a listener.
//!
//! [`NetServer`] is the handle on the single-threaded readiness loop in
//! [`crate::event_loop`] that serves it: request pipelining, coalesced
//! frames, batched gossip flushes. The sans-I/O state machine sits behind
//! a mutex shared by the loop and this handle; it is only ever locked for
//! the duration of one `handle`/`on_gossip_timer` call, never across I/O.
//! Connections that send garbage are dropped; unreachable peers or
//! vanished clients make messages silently evaporate — exactly the
//! "silence, not errors" failure model the quorum protocols assume.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use sstore_core::metrics::WireStats;
use sstore_core::server::ServerNode;
use sstore_core::types::ServerId;

use crate::event_loop::EventHandle;
use crate::frame::DEFAULT_MAX_FRAME;

/// Socket-layer tuning for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Upper bound on one inbound frame.
    pub max_frame: usize,
    /// Timeout for dialing a peer server.
    pub connect_timeout: Duration,
    /// First redial delay after a failed peer dial.
    pub backoff_min: Duration,
    /// Redial delay cap (doubles up to this).
    pub backoff_max: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_frame: DEFAULT_MAX_FRAME,
            connect_timeout: Duration::from_millis(250),
            backoff_min: Duration::from_millis(100),
            backoff_max: Duration::from_secs(2),
        }
    }
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Every critical section in this crate either completes a whole state
/// mutation or performs none (the state machine's `handle` only commits
/// effects it returns), so a poisoned lock carries no torn state — and one
/// panic must not wedge the entire server, which is exactly the
/// availability story the deployment exists to demonstrate.
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One repository server listening on a TCP socket.
pub struct NetServer {
    handle: EventHandle,
    local_addr: SocketAddr,
}

impl NetServer {
    /// Starts serving `node` on `listener`, gossiping with `peers` (listen
    /// addresses indexed by server id; the entry for `node.id()` itself is
    /// ignored).
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn start(
        node: ServerNode,
        listener: TcpListener,
        peers: Vec<SocketAddr>,
        cfg: NetServerConfig,
    ) -> io::Result<NetServer> {
        let local_addr = listener.local_addr()?;
        let handle = crate::event_loop::start(node, listener, peers, cfg)?;
        Ok(NetServer { handle, local_addr })
    }

    /// The bound listen address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.handle.shared.me
    }

    /// Snapshot of the measured-vs-formula byte accounting for every frame
    /// this server has sent.
    pub fn wire_stats(&self) -> WireStats {
        locked(&self.handle.shared.stats).clone()
    }

    /// Requests refused with an explicit [`sstore_core::Msg::Shed`] reply
    /// because the requesting connection's write queue crossed its
    /// high-water mark.
    pub fn shed_count(&self) -> u64 {
        self.handle.shared.sheds.load(Ordering::Relaxed)
    }

    /// Frames dropped at write-queue backpressure caps (silence from the
    /// receiver's view), totalled across live and closed connections.
    pub fn dropped_frames(&self) -> u64 {
        self.handle.shared.drops.load(Ordering::Relaxed)
    }

    /// Runs `f` against the server state machine (test/inspection hook).
    pub fn with_node<R>(&self, f: impl FnOnce(&ServerNode) -> R) -> R {
        f(&locked(&self.handle.shared.node))
    }

    /// Stops the loop and closes every connection. Blocks until the
    /// serving thread has exited.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}
