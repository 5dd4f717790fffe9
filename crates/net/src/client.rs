//! The blocking socket client: a facade over [`PipeClient`].
//!
//! [`NetClient`] runs one operation at a time — submit it to the
//! pipelined client, pump until that operation's id completes — so every
//! transport concern (lazy redial with decorrelated jitter, link
//! quarantine, per-op deadlines, `Msg::Shed` handling, hedging) lives once,
//! in [`crate::pipeline`]. A dead or unreachable server surfaces to the
//! protocol as *silence*, and the quorum logic rides over up to `b` of
//! them exactly as the paper prescribes; the per-op deadline bounds every
//! blocking call. The typed operations are [`StoreHandle`]'s.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sstore_core::client::{ClientCore, ClientOp, OpResult};
use sstore_core::config::ClientConfig;
use sstore_core::directory::{generate_client_keys, Directory};
use sstore_core::metrics::WireStats;
use sstore_core::types::{ClientId, GroupId};
use sstore_core::{Context, StoreError, StoreHandle};
use sstore_crypto::schnorr::SigningKey;

use crate::frame::DEFAULT_MAX_FRAME;
use crate::PipeClient;

/// Socket-layer tuning for a [`NetClient`].
///
/// Redial pacing is *not* configured here: it comes from the protocol-level
/// [`sstore_core::RetryPolicy`] in the cluster's `ClientConfig`, so the sim
/// client's phase retries and the socket client's reconnects share one
/// bounded-backoff schedule.
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Hard deadline for one blocking operation (covers all retry rounds).
    pub request_timeout: Duration,
    /// Timeout for dialing one server.
    pub connect_timeout: Duration,
    /// Upper bound on one inbound frame.
    pub max_frame: usize,
    /// Hedge a read-family operation still in flight after this
    /// percentile of recently observed read latencies (e.g. `0.95`):
    /// contact one extra server with the current-phase request instead of
    /// waiting out the phase timer. `None` (the default) disables
    /// hedging. The percentile is taken over the last completed reads of
    /// the same client, so a blocking [`NetClient`] hedges too once its
    /// sequential reads have filled the window.
    pub hedge_percentile: Option<f64>,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        NetClientConfig {
            request_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_millis(250),
            max_frame: DEFAULT_MAX_FRAME,
            hedge_percentile: None,
        }
    }
}

/// Handle on a TCP-deployed cluster: directory, client keys and the server
/// listen addresses. Mint blocking [`NetClient`]s from it.
///
/// Both sides of a deployment must agree on the client key set; like the
/// paper's "well-known public keys" assumption, this reproduction derives
/// them deterministically from `(clients, key_seed)`, so pass the same pair
/// to [`NetCluster::connect`] and to each `sstore-server` process.
pub struct NetCluster {
    dir: Arc<Directory>,
    signing: HashMap<ClientId, SigningKey>,
    addrs: Vec<SocketAddr>,
    client_cfg: ClientConfig,
    net_cfg: NetClientConfig,
}

impl NetCluster {
    /// Points a cluster handle at `addrs` (one listen address per server,
    /// indexed by server id) tolerating `b` faults, with keys for
    /// `clients` clients derived from `key_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `(addrs.len(), b)` is invalid (requires `n ≥ 3b + 1`).
    pub fn connect(addrs: Vec<SocketAddr>, b: usize, clients: u16, key_seed: u64) -> Self {
        Self::connect_with(
            addrs,
            b,
            clients,
            key_seed,
            ClientConfig::default(),
            NetClientConfig::default(),
        )
    }

    /// [`NetCluster::connect`] with explicit protocol and socket configs.
    ///
    /// # Panics
    ///
    /// Panics if `(addrs.len(), b)` is invalid (requires `n ≥ 3b + 1`).
    pub fn connect_with(
        addrs: Vec<SocketAddr>,
        b: usize,
        clients: u16,
        key_seed: u64,
        client_cfg: ClientConfig,
        net_cfg: NetClientConfig,
    ) -> Self {
        let (signing, verifying) = generate_client_keys(clients, key_seed);
        let dir = Directory::new(addrs.len(), b, verifying);
        NetCluster {
            dir,
            signing,
            addrs,
            client_cfg,
            net_cfg,
        }
    }

    /// The cluster directory.
    pub fn directory(&self) -> &Arc<Directory> {
        &self.dir
    }

    /// Creates the blocking socket handle for client `i`. Connections are
    /// dialed lazily on first use.
    ///
    /// # Panics
    ///
    /// Panics if `i` has no registered key (i.e. `i >= clients`).
    pub fn client(&self, i: u16) -> NetClient {
        NetClient {
            pipe: self.pipe_client(i),
        }
    }

    /// Creates the *pipelined* non-blocking handle for client `i`: many
    /// operations in flight over one connection per server, completions
    /// matched by op id (see [`crate::PipeClient`]). Connections are
    /// dialed lazily on first use.
    ///
    /// # Panics
    ///
    /// Panics if `i` has no registered key (i.e. `i >= clients`).
    pub fn pipe_client(&self, i: u16) -> PipeClient {
        let id = ClientId(i);
        let key = self
            .signing
            .get(&id)
            // lint:allow(L1): documented panic on a local config precondition; `i` never comes off the wire
            .expect("client key registered")
            .clone();
        let core = ClientCore::new(id, self.dir.clone(), self.client_cfg.clone(), key);
        PipeClient::new(core, self.addrs.clone(), self.net_cfg.clone())
    }
}

/// A blocking client handle speaking the framed TCP protocol: one
/// operation in flight on a [`PipeClient`].
pub struct NetClient {
    pipe: PipeClient,
}

impl NetClient {
    /// Measured-vs-formula byte accounting for every frame this client has
    /// sent.
    pub fn wire_stats(&self) -> &WireStats {
        self.pipe.wire_stats()
    }
}

impl StoreHandle for NetClient {
    /// Never returns `Err`: the pipe expires the operation at its per-op
    /// deadline and completes it as `Outcome::Unavailable`, which also
    /// bounds this loop.
    fn run_op(&mut self, op: ClientOp) -> Result<OpResult, StoreError> {
        let id = self.pipe.submit(op);
        loop {
            let slice = Instant::now() + Duration::from_millis(100);
            if let Some(r) = self.pipe.pump_until(slice).into_iter().find(|r| r.op == id) {
                return Ok(r);
            }
        }
    }

    fn context(&self, group: GroupId) -> Context {
        self.pipe.context(group)
    }

    fn simulate_crash(&mut self) {
        self.pipe.simulate_crash();
    }
}
