//! The secure-store client: sessions, consistent reads and writes.
//!
//! Clients — not servers — enforce consistency (paper §1): each client
//! holds a per-group [`Context`] and decides which values are acceptable.
//! [`ClientCore`] is a sans-I/O state machine: operations begin with
//! [`ClientCore::begin`], progress through [`ClientCore::on_message`] /
//! [`ClientCore::on_timeout`], and finish by emitting an [`OpResult`].
//!
//! Submodules implement the three protocol families:
//! - [`session`](self): context acquisition, storage, and crash-recovery
//!   reconstruction (paper §5.1, Fig. 1);
//! - single-writer reads/writes with MRC or CC (paper §5.2, Fig. 2);
//! - multi-writer reads/writes hardened against malicious clients
//!   (paper §5.3).

mod handle;
mod multi;
mod ops;
mod session;

pub use handle::{StoreError, StoreHandle};

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use sstore_crypto::schnorr::SigningKey;
use sstore_simnet::SimTime;

use crate::config::{ClientConfig, RetryPolicy};
use crate::context::Context;
use crate::directory::Directory;
use crate::item::{ItemMeta, SignedContext, StoredItem};
use crate::metrics::CryptoCounters;
use crate::quorum;
use crate::types::{ClientId, Consistency, DataId, GroupId, OpId, ServerId, Timestamp};
use crate::vcache::VerifyCache;
use crate::wire::Msg;

/// An operation a client can perform against the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// Start a session: acquire the stored context for `group`.
    Connect {
        /// The related data group.
        group: GroupId,
        /// `true` after a crash: reconstruct the context from all servers
        /// instead of reading the stored copy.
        recover: bool,
    },
    /// End a session: store the current context for `group`.
    Disconnect {
        /// The related data group.
        group: GroupId,
    },
    /// Single-writer write of `value` to `data`.
    Write {
        /// Target item.
        data: DataId,
        /// Its group.
        group: GroupId,
        /// MRC or CC (fixed per group at creation; passed per-op here).
        consistency: Consistency,
        /// The value to store.
        value: Vec<u8>,
    },
    /// Single-writer-data read of `data`.
    Read {
        /// Target item.
        data: DataId,
        /// Its group.
        group: GroupId,
        /// MRC or CC.
        consistency: Consistency,
    },
    /// Multi-writer write (timestamps become `(time, uid, d(v))`).
    MwWrite {
        /// Target item.
        data: DataId,
        /// Its group.
        group: GroupId,
        /// The value to store.
        value: Vec<u8>,
    },
    /// Multi-writer read (`2b+1` servers, accept on `b+1` matches).
    MwRead {
        /// Target item.
        data: DataId,
        /// Its group.
        group: GroupId,
        /// MRC or CC.
        consistency: Consistency,
    },
}

/// Category of a completed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Session start (context acquisition).
    Connect,
    /// Session start via full reconstruction.
    Reconstruct,
    /// Session end (context storage).
    Disconnect,
    /// Single-writer read.
    Read,
    /// Single-writer write.
    Write,
    /// Multi-writer read.
    MwRead,
    /// Multi-writer write.
    MwWrite,
}

/// Final outcome of an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Session established; context has `context_len` entries.
    Connected {
        /// Number of entries in the acquired context.
        context_len: usize,
    },
    /// Context stored; session closed.
    Disconnected,
    /// Read returned a consistent value.
    ReadOk {
        /// Timestamp of the returned value.
        ts: Timestamp,
        /// The value.
        value: Vec<u8>,
        /// How many servers vouched for it (1 on the single-writer path,
        /// ≥ b+1 on the multi-writer path).
        confirmations: usize,
    },
    /// Write completed.
    WriteOk {
        /// Timestamp assigned to the write.
        ts: Timestamp,
    },
    /// Read gave up: every reachable copy was older than the client's
    /// context (dissemination had not caught up within the retry budget).
    Stale {
        /// The newest timestamp observed, if any.
        best_seen: Option<Timestamp>,
    },
    /// The operation could not assemble its quorum within the retry budget.
    Unavailable,
    /// Multi-writer read found proof that the writer signed two different
    /// values under one timestamp (paper §5.3).
    FaultyWriterDetected {
        /// The item whose writer equivocated.
        data: DataId,
    },
}

impl Outcome {
    /// Whether the operation succeeded.
    pub fn is_ok(&self) -> bool {
        !matches!(
            self,
            Outcome::Stale { .. } | Outcome::Unavailable | Outcome::FaultyWriterDetected { .. }
        )
    }
}

/// A completed operation with timing and effort accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpResult {
    /// The operation id.
    pub op: OpId,
    /// What kind of operation it was.
    pub kind: OpKind,
    /// How it ended.
    pub outcome: Outcome,
    /// When it was issued.
    pub started: SimTime,
    /// When it completed.
    pub finished: SimTime,
    /// Rounds used (1 = no retries/widening).
    pub rounds: u32,
}

impl OpResult {
    /// End-to-end latency.
    pub fn latency(&self) -> SimTime {
        self.finished.saturating_sub(self.started)
    }
}

/// Effects produced by a client step.
#[derive(Debug, Default)]
pub struct Output {
    /// Messages to send.
    pub sends: Vec<(ServerId, Msg)>,
    /// Timers to arm: `(delay, token)` — feed the token back into
    /// [`ClientCore::on_timeout`] when it fires.
    pub timers: Vec<(SimTime, u64)>,
    /// Operations that completed during this step.
    pub done: Vec<OpResult>,
}

/// Per-operation bookkeeping shared by all protocol families.
#[derive(Debug)]
pub(crate) struct OpCommon {
    pub kind: OpKind,
    pub group: GroupId,
    pub started: SimTime,
    /// Round counter: 1 on first attempt, incremented on widen/retry.
    pub round: u32,
    /// Servers contacted so far (requests are never re-sent to these except
    /// on an explicit stale retry).
    pub contacted: HashSet<ServerId>,
    /// Rotation offset into the server list, fixed per op.
    pub offset: usize,
    /// Timer epoch: only the latest armed timer for this op acts.
    pub timer_epoch: u32,
    /// Servers that explicitly shed this operation. Each server's first
    /// shed escalates the op at once (retry elsewhere instead of waiting
    /// out the phase timer); repeats from the same server are ignored, so
    /// one flapping server cannot burn the whole retry budget.
    pub sheds: HashSet<ServerId>,
}

impl OpCommon {
    /// Fresh bookkeeping for an operation starting now.
    pub fn start(kind: OpKind, group: GroupId, started: SimTime, offset: usize) -> OpCommon {
        OpCommon {
            kind,
            group,
            started,
            round: 1,
            contacted: HashSet::new(),
            offset,
            timer_epoch: 0,
            sheds: HashSet::new(),
        }
    }
}

/// Protocol-family-specific operation state.
#[derive(Debug)]
pub(crate) enum OpState {
    /// Context acquisition (paper Fig. 1, read side).
    CtxRead {
        responded: HashSet<ServerId>,
        candidates: Vec<SignedContext>,
    },
    /// Context reconstruction after a crash (paper §5.1).
    CtxScan {
        responded: HashSet<ServerId>,
        metas: Vec<(ServerId, Vec<ItemMeta>)>,
        /// Set once `n - b` responses arrived: the scan keeps waiting one
        /// grace round for honest stragglers so a fast faulty server cannot
        /// eclipse the sole honest holder of the client's latest write.
        grace: bool,
    },
    /// Context storage (paper Fig. 1, write side).
    CtxWrite {
        acks: HashSet<ServerId>,
        quorum: usize,
    },
    /// Single-writer read, phase 1: timestamp query.
    ReadP1 {
        data: DataId,
        consistency: Consistency,
        responded: HashSet<ServerId>,
        candidates: Vec<(ServerId, ItemMeta, Option<StoredItem>)>,
        /// Newest timestamp observed across all rounds (for `Stale`).
        best_seen: Option<Timestamp>,
        awaiting_retry: bool,
    },
    /// Single-writer read, phase 2: value fetch from the chosen server.
    ReadP2 {
        data: DataId,
        consistency: Consistency,
        target: ServerId,
        /// Remaining fallback candidates, best first.
        fallbacks: Vec<(ServerId, ItemMeta)>,
        /// Carried forward for `Stale` reporting.
        best_seen: Option<Timestamp>,
    },
    /// Single-writer write: waiting for `needed` accepted acks.
    Write {
        acks: HashSet<ServerId>,
        needed: usize,
        ts: Timestamp,
        /// Kept for re-sending when the contact set widens.
        item: StoredItem,
    },
    /// Multi-writer read: collecting version lists.
    MwRead {
        data: DataId,
        consistency: Consistency,
        responded: HashMap<ServerId, Vec<StoredItem>>,
        /// Newest acceptable timestamp observed (for `Stale`).
        best_seen: Option<Timestamp>,
        awaiting_retry: bool,
    },
    /// Multi-writer write: waiting for `needed` accepted acks.
    MwWrite {
        acks: HashSet<ServerId>,
        needed: usize,
        ts: Timestamp,
        /// Kept for re-sending when the contact set widens.
        item: StoredItem,
    },
}

#[derive(Debug)]
pub(crate) struct Op {
    pub common: OpCommon,
    pub state: OpState,
}

/// The client state machine.
#[derive(Debug)]
pub struct ClientCore {
    id: ClientId,
    dir: Arc<Directory>,
    cfg: ClientConfig,
    key: SigningKey,
    contexts: HashMap<GroupId, Context>,
    sessions: HashMap<GroupId, u64>,
    /// Session numbers proposed by in-flight disconnects, adopted on ack.
    pending_session: HashMap<GroupId, u64>,
    ops: HashMap<OpId, Op>,
    next_op: u64,
    counters: CryptoCounters,
    /// Signatures this client has already verified — quorum reads deliver
    /// the same signed item from several servers, and repeated reads of a
    /// stable item should not re-pay the public-key operation.
    vcache: VerifyCache,
    /// Current fault estimate `b̂` for adaptive read quorums (always the
    /// full bound `b` unless `adaptive_read_quorum` is on).
    fault_estimate: usize,
}

impl ClientCore {
    /// Creates a client with the given identity and signing key.
    pub fn new(id: ClientId, dir: Arc<Directory>, cfg: ClientConfig, key: SigningKey) -> Self {
        let fault_estimate = if cfg.adaptive_read_quorum { 0 } else { dir.b() };
        ClientCore {
            id,
            dir,
            cfg,
            key,
            contexts: HashMap::new(),
            sessions: HashMap::new(),
            pending_session: HashMap::new(),
            ops: HashMap::new(),
            next_op: 1,
            counters: CryptoCounters::new(),
            vcache: VerifyCache::default(),
            fault_estimate,
        }
    }

    /// The verification cache (for hit/miss inspection by harnesses).
    pub fn verify_cache(&self) -> &VerifyCache {
        &self.vcache
    }

    /// The current read-quorum fault estimate `b̂`.
    pub fn fault_estimate(&self) -> usize {
        self.fault_estimate
    }

    /// Raises the fault estimate after observing suspicious behaviour
    /// (invalid response or an empty round), capped at the design bound.
    pub(crate) fn raise_fault_estimate(&mut self) {
        if self.cfg.adaptive_read_quorum && self.fault_estimate < self.dir.b() {
            self.fault_estimate += 1;
        }
    }

    /// The client's identity.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Cryptographic-operation counters accumulated so far.
    pub fn counters(&self) -> CryptoCounters {
        self.counters
    }

    /// The client's current context for `group` (empty if never connected).
    pub fn context(&self, group: GroupId) -> Context {
        self.contexts
            .get(&group)
            .cloned()
            .unwrap_or_else(|| Context::new(group))
    }

    /// Drops all in-memory state except identity and key — simulates a
    /// client crash (contexts are lost; reconnect with `recover: true`).
    pub fn crash(&mut self) {
        self.contexts.clear();
        self.sessions.clear();
        self.ops.clear();
        // A crash loses in-memory state — including remembered verifications.
        self.vcache = VerifyCache::default();
    }

    /// Number of operations still in flight.
    pub fn inflight(&self) -> usize {
        self.ops.len()
    }

    /// Starts an operation; returns its id and the initial effects.
    pub fn begin(&mut self, op: ClientOp, now: SimTime, rng: &mut StdRng) -> (OpId, Output) {
        let id = OpId(self.next_op);
        self.next_op += 1;
        let offset = if self.cfg.sticky_rotation {
            self.id.0 as usize % self.dir.n()
        } else {
            rng.gen_range(0..self.dir.n())
        };
        let out = match op {
            ClientOp::Connect { group, recover } => {
                self.begin_connect(id, group, recover, now, offset)
            }
            ClientOp::Disconnect { group } => self.begin_disconnect(id, group, now, offset),
            ClientOp::Write {
                data,
                group,
                consistency,
                value,
            } => {
                let fuzz = match self.cfg.timestamp_fuzz {
                    Some(max) if max > 0 => rng.gen_range(0..=max),
                    _ => 0,
                };
                self.begin_write(id, data, group, consistency, value, now, offset, fuzz)
            }
            ClientOp::Read {
                data,
                group,
                consistency,
            } => self.begin_read(id, data, group, consistency, now, offset),
            ClientOp::MwWrite { data, group, value } => {
                self.begin_mw_write(id, data, group, value, now, offset)
            }
            ClientOp::MwRead {
                data,
                group,
                consistency,
            } => self.begin_mw_read(id, data, group, consistency, now, offset),
        };
        (id, out)
    }

    /// Feeds a server message into the state machine.
    pub fn on_message(&mut self, from: ServerId, msg: Msg, now: SimTime) -> Output {
        let Some(op_id) = msg.op() else {
            return Output::default(); // gossip never reaches clients
        };
        if !self.ops.contains_key(&op_id) {
            return Output::default(); // late response for a completed op
        }
        match msg {
            Msg::CtxReadResp { op, stored } => self.on_ctx_read_resp(op, from, stored, now),
            Msg::TsScanResp { op, entries } => self.on_ts_scan_resp(op, from, entries, now),
            Msg::CtxWriteAck { op } => self.on_ctx_write_ack(op, from, now),
            Msg::TsQueryResp {
                op, meta, inline, ..
            } => self.on_ts_query_resp(op, from, meta, inline, now),
            Msg::ReadResp { op, item } => self.on_read_resp(op, from, item, now),
            Msg::WriteAck { op, accepted } => self.on_write_ack(op, from, accepted, now),
            Msg::MwReadResp { op, versions, .. } => self.on_mw_read_resp(op, from, versions, now),
            Msg::Shed { op } => self.on_shed(op, from, now),
            _ => Output::default(),
        }
    }

    /// Handles an explicit server load-shed: unlike Byzantine silence, a
    /// shed is attributable, so the op escalates immediately — widening
    /// its contact set exactly as a phase timeout would ("retry
    /// elsewhere") instead of waiting the timer out. Only the *first*
    /// shed from each server escalates; repeats are ignored so one
    /// flapping server cannot burn the whole retry budget.
    fn on_shed(&mut self, op_id: OpId, from: ServerId, now: SimTime) -> Output {
        let newly = match self.ops.get_mut(&op_id) {
            Some(op) => op.common.sheds.insert(from),
            None => return Output::default(), // late shed for a completed op
        };
        if !newly {
            return Output::default();
        }
        self.on_op_timeout(op_id, now)
    }

    /// Abandons an in-flight operation past its transport-level deadline,
    /// returning a completed-with-error result. Real transports call this
    /// to turn a per-op deadline into a surfaced [`Outcome::Unavailable`]
    /// instead of leaving the op id pending forever; late responses for
    /// the expired op are ignored like any completed op's.
    pub fn expire(&mut self, op_id: OpId, now: SimTime) -> Option<OpResult> {
        let op = self.ops.remove(&op_id)?;
        Some(OpResult {
            op: op_id,
            kind: op.common.kind,
            outcome: Outcome::Unavailable,
            started: op.common.started,
            finished: now,
            rounds: op.common.round,
        })
    }

    /// Hedges a slow read: contacts one additional server with the op's
    /// current-phase request *without* consuming a retry round, so a
    /// straggling quorum member costs one duplicate request instead of a
    /// full phase timeout. Only read-family phases hedge (context reads,
    /// single-writer phase 1, multi-writer reads) — writes never fan out
    /// early, and ops already contacting every server return nothing.
    /// Transports gate this on a latency percentile and call it at most
    /// once per op.
    pub fn hedge(&mut self, op_id: OpId, _now: SimTime) -> Output {
        let mut out = Output::default();
        let Some(mut op) = self.take_op(op_id) else {
            return out;
        };
        let rotation = self.rotation(op.common.offset);
        let target = op.common.contacted.len().saturating_add(1);
        let client = self.id();
        let group = op.common.group;
        match &op.state {
            OpState::CtxRead { .. } => {
                Self::widen_contacts(
                    op_id,
                    &mut op.common,
                    &rotation,
                    target,
                    |op| Msg::CtxReadReq { op, client, group },
                    &mut out,
                );
            }
            OpState::ReadP1 { data, .. } => {
                let data = *data;
                Self::widen_contacts(
                    op_id,
                    &mut op.common,
                    &rotation,
                    target,
                    |op| Msg::TsQueryReq { op, data },
                    &mut out,
                );
            }
            OpState::MwRead { data, .. } => {
                let data = *data;
                Self::widen_contacts(
                    op_id,
                    &mut op.common,
                    &rotation,
                    target,
                    |op| Msg::MwReadReq { op, data },
                    &mut out,
                );
            }
            _ => {}
        }
        self.insert_op(op_id, op);
        out
    }

    /// Handles a timer token previously emitted in [`Output::timers`].
    pub fn on_timeout(&mut self, token: u64, now: SimTime) -> Output {
        let op_id = OpId(token & 0xff_ffff_ffff);
        let epoch = (token >> 40) as u32;
        let Some(op) = self.ops.get(&op_id) else {
            return Output::default();
        };
        if op.common.timer_epoch != epoch {
            return Output::default(); // superseded timer
        }
        self.on_op_timeout(op_id, now)
    }

    // ------------------------------------------------------------------
    // Shared helpers (used by the protocol submodules)
    // ------------------------------------------------------------------

    /// The rotation of all servers starting at `offset`.
    pub(crate) fn rotation(&self, offset: usize) -> Vec<ServerId> {
        let n = self.dir.n();
        (0..n)
            .map(|i| ServerId(((offset + i) % n) as u16))
            .collect()
    }

    /// Target contact-set size for `round` with base quorum `base`.
    pub(crate) fn target_count(&self, base: usize, round: u32) -> usize {
        (base + self.cfg.extra_fanout)
            .saturating_mul(round as usize)
            .min(self.dir.n())
    }

    /// Sends `make(op)` to servers in the rotation until the contact set
    /// reaches `target`, skipping already-contacted servers.
    pub(crate) fn widen_contacts(
        op_id: OpId,
        common: &mut OpCommon,
        rotation: &[ServerId],
        target: usize,
        make: impl Fn(OpId) -> Msg,
        out: &mut Output,
    ) {
        for &s in rotation.iter().take(target) {
            if common.contacted.insert(s) {
                out.sends.push((s, make(op_id)));
            }
        }
    }

    /// Arms the phase timer with the policy's backed-off delay for the
    /// op's current round (round 1 = the base timeout).
    pub(crate) fn arm_phase_timer(
        op_id: OpId,
        common: &mut OpCommon,
        retry: RetryPolicy,
        out: &mut Output,
    ) {
        let delay = retry.phase_delay(common.round);
        Self::arm_timer(op_id, common, delay, out);
    }

    /// Arms the stale-retry timer with the policy's backed-off delay for
    /// the op's current round.
    pub(crate) fn arm_stale_timer(
        op_id: OpId,
        common: &mut OpCommon,
        retry: RetryPolicy,
        out: &mut Output,
    ) {
        let delay = retry.stale_delay(common.round);
        Self::arm_timer(op_id, common, delay, out);
    }

    /// Arms the op's (sole valid) phase timer.
    pub(crate) fn arm_timer(op_id: OpId, common: &mut OpCommon, delay: SimTime, out: &mut Output) {
        common.timer_epoch += 1;
        debug_assert!(op_id.0 < (1 << 40), "op id overflows timer token");
        let token = op_id.0 | ((common.timer_epoch as u64) << 40);
        out.timers.push((delay, token));
    }

    /// Records a completed operation (the op must already be removed from
    /// the in-flight map).
    pub(crate) fn complete(op_id: OpId, op: Op, outcome: Outcome, now: SimTime, out: &mut Output) {
        out.done.push(OpResult {
            op: op_id,
            kind: op.common.kind,
            outcome,
            started: op.common.started,
            finished: now,
            rounds: op.common.round,
        });
    }

    /// Removes an in-flight op for processing (reinsert to keep it going).
    pub(crate) fn take_op(&mut self, op_id: OpId) -> Option<Op> {
        self.ops.remove(&op_id)
    }

    /// Reinserts an op that is still in flight.
    pub(crate) fn insert_op(&mut self, op_id: OpId, op: Op) {
        self.ops.insert(op_id, op);
    }

    /// Last committed session number for `group` (0 if never connected).
    pub(crate) fn session_of(&self, group: GroupId) -> u64 {
        self.sessions.get(&group).copied().unwrap_or(0)
    }

    /// This client's own public key (used to validate its stored contexts).
    pub(crate) fn verifying_key(&self) -> sstore_crypto::schnorr::VerifyingKey {
        self.key.verifying_key().clone()
    }

    /// Mutable access to the context of `group`, creating it if absent.
    pub(crate) fn ctx_mut(&mut self, group: GroupId) -> &mut Context {
        self.contexts
            .entry(group)
            .or_insert_with(|| Context::new(group))
    }

    /// Accessors for submodules.
    pub(crate) fn parts(
        &mut self,
    ) -> (
        &Arc<Directory>,
        &ClientConfig,
        &SigningKey,
        &mut HashMap<OpId, Op>,
        &mut CryptoCounters,
        &mut VerifyCache,
    ) {
        (
            &self.dir,
            &self.cfg,
            &self.key,
            &mut self.ops,
            &mut self.counters,
            &mut self.vcache,
        )
    }

    pub(crate) fn dir(&self) -> &Arc<Directory> {
        &self.dir
    }

    pub(crate) fn cfg(&self) -> &ClientConfig {
        &self.cfg
    }

    /// The retry/backoff policy this client runs under. Real transports
    /// reuse it for their own redial schedules so every retry loop in the
    /// system shares one bounded-backoff story.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.cfg.retry
    }

    pub(crate) fn ctx_quorum(&self) -> usize {
        quorum::context_quorum(self.dir.n(), self.dir.b())
    }

    /// Dispatches a phase timeout to the family-specific handler.
    fn on_op_timeout(&mut self, op_id: OpId, now: SimTime) -> Output {
        let state_kind = {
            let Some(op) = self.ops.get(&op_id) else {
                // Timer fired after the op completed: nothing to do.
                return Output::default();
            };
            match &op.state {
                OpState::CtxRead { .. } => 0,
                OpState::CtxScan { .. } => 1,
                OpState::CtxWrite { .. } => 2,
                OpState::ReadP1 { .. } => 3,
                OpState::ReadP2 { .. } => 4,
                OpState::Write { .. } => 5,
                OpState::MwRead { .. } => 6,
                OpState::MwWrite { .. } => 7,
            }
        };
        match state_kind {
            0..=2 => self.session_timeout(op_id, now),
            3..=5 => self.ops_timeout(op_id, now),
            _ => self.multi_timeout(op_id, now),
        }
    }
}
