//! Real-time threaded transport for the secure store.
//!
//! The same sans-I/O state machines that run inside the deterministic
//! simulator (`sstore-core`) run here on actual OS threads connected by
//! channels: one thread per server, blocking client handles for
//! applications. This is the deployment-shaped path used by the examples —
//! protocol logic is byte-for-byte identical to the simulated one.
//!
//! ```
//! use sstore_transport::{LocalCluster, StoreHandle};
//! use sstore_core::types::{Consistency, DataId, GroupId};
//!
//! let cluster = LocalCluster::start(4, 1, 2);
//! let mut alice = cluster.client(0);
//! let group = GroupId(1);
//! alice.connect(group, false).unwrap();
//! alice.write(DataId(1), group, Consistency::Mrc, b"hello".to_vec()).unwrap();
//! let (_, value) = alice.read(DataId(1), group, Consistency::Mrc).unwrap();
//! assert_eq!(value, b"hello");
//! alice.disconnect(group).unwrap();
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BinaryHeap, HashMap};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sstore_core::client::{ClientCore, ClientOp, OpResult, Output};
use sstore_core::config::{ClientConfig, ServerConfig};
use sstore_core::directory::{generate_client_keys, Directory};
use sstore_core::server::{Addr, ServerNode};
use sstore_core::types::{ClientId, GroupId, OpId, ServerId};
use sstore_core::wire::Msg;
pub use sstore_core::{StoreError, StoreHandle};
use sstore_crypto::schnorr::SigningKey;
use sstore_simnet::SimTime;

/// An envelope on a node's inbox.
// `Deliver` dwarfs `Stop`, but envelopes are moved straight into per-node
// channels and never stored in bulk, so boxing would only add a hop.
#[allow(clippy::large_enum_variant)]
enum Env {
    Deliver(Addr, Msg),
    Stop,
}

/// Shared routing table: who to hand an envelope to.
struct Router {
    start: Instant,
    servers: Vec<Sender<Env>>,
    clients: RwLock<HashMap<ClientId, Sender<Env>>>,
}

impl Router {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn route(&self, from: Addr, to: Addr, msg: Msg) {
        let env = Env::Deliver(from, msg);
        match to {
            Addr::Server(s) => {
                if let Some(tx) = self.servers.get(s.0 as usize) {
                    let _ = tx.send(env);
                }
            }
            Addr::Client(c) => {
                // The map is only ever inserted into, so a poisoned lock
                // still guards a valid table.
                let clients = self.clients.read().unwrap_or_else(PoisonError::into_inner);
                if let Some(tx) = clients.get(&c) {
                    let _ = tx.send(env);
                }
            }
        }
    }
}

fn server_loop(mut node: ServerNode, rx: Receiver<Env>, router: Arc<Router>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let me = Addr::Server(node.id());
    let period = Duration::from_micros(node.gossip_period().as_micros().max(1));
    let mut next_gossip = Instant::now() + period;
    loop {
        let timeout = next_gossip.saturating_duration_since(Instant::now());
        match rx.recv_timeout(timeout) {
            Ok(Env::Deliver(from, msg)) => {
                for (to, out) in node.handle(from, msg, router.now()) {
                    router.route(me, to, out);
                }
            }
            Ok(Env::Stop) => return,
            Err(RecvTimeoutError::Timeout) => {
                for (to, out) in node.on_gossip_timer(router.now(), &mut rng) {
                    router.route(me, to, out);
                }
                next_gossip = Instant::now() + period;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// A blocking client handle bound to one [`LocalCluster`]; the
/// operations are [`StoreHandle`]'s.
pub struct SyncClient {
    core: ClientCore,
    rx: Receiver<Env>,
    router: Arc<Router>,
    rng: StdRng,
    timers: BinaryHeap<std::cmp::Reverse<(Instant, u64)>>,
    /// Hard bound on one blocking call, whatever retry rounds remain.
    op_deadline: Duration,
}

impl SyncClient {
    /// Sends effects; returns the result if `op_id` completed.
    fn dispatch(&mut self, out: Output, op_id: OpId) -> Option<OpResult> {
        let me = Addr::Client(self.core.id());
        for (to, msg) in out.sends {
            self.router.route(me, Addr::Server(to), msg);
        }
        for (delay, token) in out.timers {
            let at = Instant::now() + Duration::from_micros(delay.as_micros());
            self.timers.push(std::cmp::Reverse((at, token)));
        }
        out.done.into_iter().find(|r| r.op == op_id)
    }

    /// Gives up on `op_id`: the core forgets it too, so a late reply can
    /// neither touch the context of an op the caller was told had failed
    /// nor leak one op-table entry per abandoned call.
    fn abandon(&mut self, op_id: OpId, err: StoreError) -> Result<OpResult, StoreError> {
        let now = self.router.now();
        self.core.expire(op_id, now);
        Err(err)
    }
}

impl StoreHandle for SyncClient {
    fn run_op(&mut self, op: ClientOp) -> Result<OpResult, StoreError> {
        let now = self.router.now();
        let (op_id, out) = self.core.begin(op, now, &mut self.rng);
        if let Some(r) = self.dispatch(out, op_id) {
            return Ok(r);
        }
        let hard_deadline = Instant::now() + self.op_deadline;
        loop {
            // Next client-protocol timer, if any.
            let wake = self
                .timers
                .peek()
                .map(|std::cmp::Reverse((t, _))| *t)
                .unwrap_or(hard_deadline);
            let timeout = wake
                .min(hard_deadline)
                .saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(timeout) {
                Ok(Env::Deliver(Addr::Server(sid), msg)) => {
                    let now = self.router.now();
                    let out = self.core.on_message(sid, msg, now);
                    if let Some(r) = self.dispatch(out, op_id) {
                        return Ok(r);
                    }
                }
                Ok(Env::Deliver(Addr::Client(_), _)) => {}
                Ok(Env::Stop) | Err(RecvTimeoutError::Disconnected) => {
                    return self.abandon(op_id, StoreError::Disconnected);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= hard_deadline {
                        return self.abandon(op_id, StoreError::Unavailable);
                    }
                    // Fire due protocol timers.
                    while let Some(std::cmp::Reverse((t, token))) = self.timers.peek().copied() {
                        if t > Instant::now() {
                            break;
                        }
                        self.timers.pop();
                        let now = self.router.now();
                        let out = self.core.on_timeout(token, now);
                        if let Some(r) = self.dispatch(out, op_id) {
                            return Ok(r);
                        }
                    }
                }
            }
        }
    }

    fn context(&self, group: GroupId) -> sstore_core::Context {
        self.core.context(group)
    }

    fn simulate_crash(&mut self) {
        self.core.crash();
    }
}

/// A local cluster of server threads plus registered clients.
pub struct LocalCluster {
    router: Arc<Router>,
    handles: Vec<JoinHandle<()>>,
    dir: Arc<Directory>,
    signing: HashMap<ClientId, SigningKey>,
    client_cfg: ClientConfig,
}

impl LocalCluster {
    /// Starts `n` server threads tolerating `b` faults, with keys for
    /// `clients` clients. Default server/client configs.
    pub fn start(n: usize, b: usize, clients: u16) -> Self {
        Self::start_with(
            n,
            b,
            clients,
            ServerConfig::default(),
            ClientConfig::default(),
        )
    }

    /// Starts a cluster with explicit configurations.
    ///
    /// # Panics
    ///
    /// Panics if `(n, b)` is invalid.
    pub fn start_with(
        n: usize,
        b: usize,
        clients: u16,
        server_cfg: ServerConfig,
        client_cfg: ClientConfig,
    ) -> Self {
        let (signing, verifying) = generate_client_keys(clients, 0x7ea1);
        let dir = Directory::new(n, b, verifying);
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            txs.push(tx);
            rxs.push(rx);
        }
        let router = Arc::new(Router {
            start: Instant::now(),
            servers: txs,
            clients: RwLock::new(HashMap::new()),
        });
        let mut handles = Vec::with_capacity(n);
        for (i, rx) in rxs.into_iter().enumerate() {
            let node = ServerNode::new(ServerId(i as u16), dir.clone(), server_cfg.clone());
            let router = router.clone();
            handles.push(std::thread::spawn(move || {
                server_loop(node, rx, router, 0xbeef + i as u64)
            }));
        }
        LocalCluster {
            router,
            handles,
            dir,
            signing,
            client_cfg,
        }
    }

    /// The cluster directory.
    pub fn directory(&self) -> &Arc<Directory> {
        &self.dir
    }

    /// Kills server `i`'s thread (simulates a crash fault). Operations
    /// keep working as long as at most `b` servers are killed.
    pub fn kill_server(&self, i: usize) {
        if let Some(tx) = self.router.servers.get(i) {
            let _ = tx.send(Env::Stop);
        }
    }

    /// Creates the blocking handle for client `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` has no registered key (i.e. `i >= clients`).
    pub fn client(&self, i: u16) -> SyncClient {
        let id = ClientId(i);
        let key = self
            .signing
            .get(&id)
            .expect("client key registered")
            .clone();
        let (tx, rx) = channel();
        self.router
            .clients
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, tx);
        SyncClient {
            core: ClientCore::new(id, self.dir.clone(), self.client_cfg.clone(), key),
            rx,
            router: self.router.clone(),
            rng: StdRng::seed_from_u64(0xc0ffee + i as u64),
            timers: BinaryHeap::new(),
            op_deadline: Duration::from_secs(30),
        }
    }

    /// Stops all server threads.
    pub fn shutdown(self) {
        for tx in &self.router.servers {
            let _ = tx.send(Env::Stop);
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_core::types::{Consistency, DataId, Timestamp};

    #[test]
    fn write_read_roundtrip_over_threads() {
        let cluster = LocalCluster::start(4, 1, 1);
        let mut c = cluster.client(0);
        let g = GroupId(1);
        c.connect(g, false).unwrap();
        c.write(DataId(1), g, Consistency::Mrc, b"threaded".to_vec())
            .unwrap();
        let (ts, v) = c.read(DataId(1), g, Consistency::Mrc).unwrap();
        assert_eq!(v, b"threaded");
        assert_eq!(ts, Timestamp::Version(1));
        c.disconnect(g).unwrap();
        cluster.shutdown();
    }

    #[test]
    fn two_clients_share_single_writer_data() {
        let cluster = LocalCluster::start(4, 1, 2);
        let g = GroupId(2);
        let mut writer = cluster.client(0);
        writer.connect(g, false).unwrap();
        writer
            .write(DataId(5), g, Consistency::Mrc, b"bulletin".to_vec())
            .unwrap();
        // Give dissemination a moment so the reader's quorum sees it.
        std::thread::sleep(Duration::from_millis(600));
        let mut reader = cluster.client(1);
        reader.connect(g, false).unwrap();
        let (_, v) = reader.read(DataId(5), g, Consistency::Mrc).unwrap();
        assert_eq!(v, b"bulletin");
        cluster.shutdown();
    }

    #[test]
    fn survives_killed_server() {
        let cluster = LocalCluster::start(4, 1, 1);
        cluster.kill_server(2);
        let g = GroupId(9);
        let mut c = cluster.client(0);
        c.connect(g, false).unwrap();
        c.write(DataId(1), g, Consistency::Mrc, b"still here".to_vec())
            .unwrap();
        let (_, v) = c.read(DataId(1), g, Consistency::Mrc).unwrap();
        assert_eq!(v, b"still here");
        c.disconnect(g).unwrap();
        cluster.shutdown();
    }

    #[test]
    fn works_through_store_handle_trait() {
        // Code generic over StoreHandle runs identically on any transport;
        // `sstore-net`'s loopback test drives the same scenario over TCP.
        fn exercise(h: &mut dyn StoreHandle, g: GroupId, b: usize) {
            h.connect(g, false).unwrap();
            let ts = h
                .write(DataId(1), g, Consistency::Mrc, b"generic".to_vec())
                .unwrap();
            assert_eq!(
                h.read(DataId(1), g, Consistency::Mrc).unwrap(),
                (ts, b"generic".to_vec())
            );
            let mw_ts = h.mw_write(DataId(9), g, b"multi".to_vec()).unwrap();
            let (ts, v, confirmations) = h.mw_read(DataId(9), g, Consistency::Cc).unwrap();
            assert_eq!((ts, v), (mw_ts, b"multi".to_vec()));
            assert!(confirmations > b, "accepted on fewer than b+1 matches");
            // Crash, then reconstruct the context from server metadata.
            h.simulate_crash();
            assert!(h.context(g).is_empty());
            h.connect(g, true).unwrap();
            assert_eq!(h.context(g).len(), 2);
            let (_, v) = h.read(DataId(1), g, Consistency::Mrc).unwrap();
            assert_eq!(v, b"generic");
            h.disconnect(g).unwrap();
        }
        let cluster = LocalCluster::start(4, 1, 1);
        let mut c = cluster.client(0);
        exercise(&mut c, GroupId(8), 1);
        cluster.shutdown();
    }

    #[test]
    fn hard_deadline_expires_the_op_in_the_core() {
        let cluster = LocalCluster::start(4, 1, 1);
        for i in 0..4 {
            cluster.kill_server(i);
        }
        let mut c = cluster.client(0);
        // Well inside the protocol's own retry budget, so it is the
        // driver's deadline that gives up, not the state machine.
        c.op_deadline = Duration::from_millis(150);
        assert_eq!(c.connect(GroupId(1), false), Err(StoreError::Unavailable));
        assert_eq!(c.core.inflight(), 0, "abandoned op still in the op table");
        cluster.shutdown();
    }
}
