//! The traced run: a single-threaded, virtual-clock walk through the layers.
//!
//! One `ClientCore` and four `ServerNode`s, each with a real `Store` on disk
//! under the deployed group-commit policy, are driven through the sequence of
//! public calls the deployed path makes (`PipeClient` on one side, the event
//! loop on the other) with a span around each call. Nothing inside the
//! program is instrumented: what `handle` nests (signature checks, cache
//! lookups, WAL appends, fsyncs) is attributed afterwards by replaying the
//! captured inputs through the leaf layers' own public functions, and
//! subtracted from the enclosing span.
//!
//! The network has no delay and the clock is virtual, so for one seed every
//! count repeats exactly; times are the sandbox's.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sstore_core::client::{ClientOp, Output};
use sstore_core::codec::{decode_frame_msgs, encode_msg};
use sstore_core::directory::{generate_client_keys, Directory};
use sstore_core::item::StoredItem;
use sstore_core::metrics::{CryptoCounters, WireStats};
use sstore_core::server::storage::{FsyncPolicy, Record, StorageConfig, Store};
use sstore_core::types::{ClientId, GroupId, OpId, ServerId};
use sstore_core::{Addr, ClientConfig, ClientCore, Msg, ServerConfig, ServerNode, VerifyCache};
use sstore_crypto::schnorr::{verify_batch, BatchEntry, SigningKey, VerifyingKey};
use sstore_crypto::sha256::digest;
use sstore_net::{Coalescer, FrameReader, WriteQueue, DEFAULT_MAX_FRAME};
use sstore_simnet::SimTime;

use crate::gen::{Generator, Issued};
use crate::span::{by_name, Recorder, Span};
use crate::spec::{
    victim, Arrival, Metrics, Workload, B, GROUPS, GROUP_COMMIT_BATCH, GROUP_COMMIT_DELAY_US,
    KEY_SEED, N, RATE_WALK_SATURATE, SLOTS, SUMMARY_EVERY,
};

/// TCP payload of one loopback-MTU-less Ethernet segment: inbound bytes reach
/// `FrameReader` in chunks of at most this, so 4 KiB frames fragment.
const SEGMENT: usize = 1448;

/// Virtual arrival rate of the preload.
const PRELOAD_RATE: f64 = 4000.0;

/// Captured inputs replayed through each leaf layer.
const REPLAY_SAMPLES: usize = 256;

/// Counts of one walk. Under the virtual clock two walks of one seed agree on
/// every field but the verify-cache outcomes (see [`Counts::repeatable`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Operations completed correctly.
    pub ops_ok: u64,
    /// Operations that failed or read a wrong value.
    pub ops_failed: u64,
    /// Messages the client sent.
    pub client_msgs: u64,
    /// Messages the servers sent, gossip included.
    pub server_msgs: u64,
    /// Bytes of all encoded messages.
    pub encoded_bytes: u64,
    /// Frames the servers wrote to the client.
    pub server_frames: u64,
    /// Frames servers read from their peers.
    pub peer_frames: u64,
    /// Gossip rounds run.
    pub gossip_rounds: u64,
    /// Encoded bytes of gossip pushes and summaries.
    pub gossip_bytes: u64,
    /// `flush_commits` calls that released acknowledgements.
    pub flushes: u64,
    /// Acknowledgements those calls released.
    pub acks_released: u64,
    /// Client crypto counters.
    pub client: CryptoCounters,
    /// Sum of the servers' crypto counters.
    pub servers: CryptoCounters,
    /// Verify-cache hits, client and servers.
    pub vcache_hits: u64,
    /// Verify-cache lookups, client and servers.
    pub vcache_lookups: u64,
    /// WAL records appended.
    pub appended: u64,
    /// Fsyncs issued.
    pub syncs: u64,
}

impl Counts {
    /// The counts that repeat exactly for a seed. `ServerNode` gossips its
    /// dirty set in `HashSet` order, which differs from run to run; the order
    /// decides which entries the full verify cache evicts first, so a handful
    /// of lookups in ten thousand flip between hit and miss. What the
    /// protocol demanded (`verifies + verify_cached`, the lookups) does not
    /// depend on it; how the demand was met does, and is folded away here.
    pub fn repeatable(mut self) -> Counts {
        self.servers.verifies += self.servers.verify_cached;
        self.servers.verify_cached = 0;
        self.servers.batch_ops = 0;
        self.servers.batch_items = 0;
        self.vcache_hits = 0;
        self
    }
}

/// Leaf work nested inside one kind of call, from counter deltas.
#[derive(Debug, Clone, Copy, Default)]
struct Leaf {
    signs: u64,
    verifies: u64,
    batch_items: u64,
    digests: u64,
    lookups: u64,
    appended: u64,
    syncs: u64,
    /// Encodes replayed outside the span (coalescer drains only).
    encode_ns: u64,
}

/// Cumulative leaf-relevant counters of one node.
#[derive(Clone, Copy, Default)]
struct Probe {
    c: CryptoCounters,
    lookups: u64,
    appended: u64,
    syncs: u64,
}

impl Leaf {
    fn add(&mut self, before: Probe, after: Probe) {
        self.signs += after.c.signs - before.c.signs;
        self.verifies += after.c.verifies - before.c.verifies;
        self.batch_items += after.c.batch_items - before.c.batch_items;
        self.digests += after.c.digests - before.c.digests;
        self.lookups += after.lookups - before.lookups;
        self.appended += after.appended - before.appended;
        self.syncs += after.syncs - before.syncs;
    }
}

/// Which server-side call a message lands in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Class {
    Read,
    Write,
    Gossip,
    Other,
}

impl Class {
    fn of(msg: &Msg) -> Class {
        match msg {
            Msg::TsQueryReq { .. } | Msg::ReadReq { .. } => Class::Read,
            Msg::WriteReq { .. } => Class::Write,
            Msg::GossipPush { .. } | Msg::GossipSummary { .. } => Class::Gossip,
            _ => Class::Other,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Class::Read => "server.handle_read",
            Class::Write => "server.handle_write",
            Class::Gossip => "server.handle_gossip",
            Class::Other => "server.handle_other",
        }
    }
}

/// One direction of one connection: the sender's queue and the bytes in
/// flight to the receiver's reader.
struct Pipe {
    out: WriteQueue,
    wire: Vec<u8>,
    reader: FrameReader,
}

impl Pipe {
    fn new() -> Pipe {
        Pipe {
            out: WriteQueue::new(DEFAULT_MAX_FRAME, DEFAULT_MAX_FRAME.saturating_mul(4)),
            wire: Vec::new(),
            reader: FrameReader::new(DEFAULT_MAX_FRAME),
        }
    }
}

struct ServerSide {
    node: ServerNode,
    rng: StdRng,
    up: bool,
    /// Messages staged for the client and for each peer this tick.
    to_client: Coalescer,
    to_peer: Vec<Coalescer>,
    stats: WireStats,
}

/// What the walk hands back.
pub struct Walked {
    /// Exactly repeatable counts of the measured part.
    pub counts: Counts,
    /// Wall time of the measured part.
    pub total_ns: u64,
    /// Spans of the measured part (empty when recording was off).
    pub spans: Vec<Span>,
    leaves: HashMap<&'static str, Leaf>,
    captured: Vec<StoredItem>,
    key: SigningKey,
    verifying: VerifyingKey,
    ops: u64,
    value_bytes: usize,
}

/// Draws arrival number `n`: the operation, and for the oracle what it is.
type NextOp<'a> = dyn FnMut(&mut Generator, usize) -> Option<(Option<Issued>, ClientOp)> + 'a;

#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Arrival,
    ClientTimer(u64),
    Gossip(usize),
}

struct World {
    rec: Recorder,
    now: u64,
    client: ClientCore,
    client_rng: StdRng,
    client_stats: WireStats,
    /// `up[i]`: client to server `i`; `down[i]`: server `i` to client.
    up: Vec<Pipe>,
    down: Vec<Pipe>,
    /// `peer[i][j]`: server `i` to server `j`.
    peer: Vec<Vec<Pipe>>,
    servers: Vec<ServerSide>,
    events: BinaryHeap<Reverse<(u64, u64, Event)>>,
    seq: u64,
    gen: Generator,
    inflight: HashMap<OpId, Issued>,
    counts: Counts,
    leaves: HashMap<&'static str, Leaf>,
    captured: Vec<StoredItem>,
    moved: bool,
}

fn store_config() -> StorageConfig {
    StorageConfig {
        fsync: FsyncPolicy::GroupCommit {
            max_batch: GROUP_COMMIT_BATCH,
            max_delay_us: GROUP_COMMIT_DELAY_US,
        },
        ..StorageConfig::default()
    }
}

impl World {
    fn new(
        dir: &Path,
        workload: &Workload,
        seed: u64,
    ) -> Result<(World, SigningKey, VerifyingKey), String> {
        let (mut signing, verifying) = generate_client_keys(1, KEY_SEED);
        let id = ClientId(0);
        let key = signing.remove(&id).ok_or("no client key")?;
        let vk = verifying.get(&id).ok_or("no client key")?.clone();
        let directory: Arc<Directory> = Directory::new(N, B, verifying);
        let mut servers = Vec::new();
        for i in 0..N {
            let mut cfg = ServerConfig::default();
            cfg.gossip.summary_every = SUMMARY_EVERY;
            let sid = ServerId(i as u16);
            let mut node = ServerNode::new(sid, directory.clone(), cfg);
            let store = Store::open(&dir.join(format!("s{i}")), store_config())
                .map_err(|e| e.to_string())?;
            node.attach_store(store);
            node.recover().map_err(|e| e.to_string())?;
            servers.push(ServerSide {
                node,
                // The event loop's gossip seed.
                rng: StdRng::seed_from_u64(0xbeef ^ i as u64),
                up: true,
                to_client: Coalescer::new(),
                to_peer: (0..N).map(|_| Coalescer::new()).collect(),
                stats: WireStats::new(),
            });
        }
        let client = ClientCore::new(id, directory, ClientConfig::default(), key.clone());
        let world = World {
            rec: Recorder::new(false),
            now: 0,
            client,
            // `PipeClient`'s seed for client 0.
            client_rng: StdRng::seed_from_u64(0xb1be),
            client_stats: WireStats::new(),
            up: (0..N).map(|_| Pipe::new()).collect(),
            down: (0..N).map(|_| Pipe::new()).collect(),
            peer: (0..N)
                .map(|_| (0..N).map(|_| Pipe::new()).collect())
                .collect(),
            servers,
            events: BinaryHeap::new(),
            seq: 0,
            gen: Generator::new(workload, seed),
            inflight: HashMap::new(),
            counts: Counts::default(),
            leaves: HashMap::new(),
            captured: Vec::new(),
            moved: false,
        };
        Ok((world, key, vk))
    }

    fn sim_now(&self) -> SimTime {
        SimTime::from_micros(self.now)
    }

    fn schedule(&mut self, at: u64, event: Event) {
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, event)));
    }

    fn client_probe(&self) -> Probe {
        let cache = self.client.verify_cache();
        Probe {
            c: self.client.counters(),
            lookups: cache.hits() + cache.misses(),
            ..Probe::default()
        }
    }

    fn server_probe(&self, s: usize) -> Probe {
        let node = &self.servers[s].node;
        let cache = node.verify_cache();
        let st = node.storage_stats().unwrap_or_default();
        Probe {
            c: node.counters(),
            lookups: cache.hits() + cache.misses(),
            appended: st.appended,
            syncs: st.syncs,
        }
    }

    /// `PipeClient::apply`: encode and enqueue sends, arm timers, bank
    /// completions.
    fn apply(&mut self, out: Output, op: u64) {
        for (to, msg) in out.sends {
            let i = usize::from(to.0);
            if !self.servers[i].up {
                continue; // the link is down: silence
            }
            if let Msg::WriteReq { item, .. } = &msg {
                if self.captured.len() < REPLAY_SAMPLES {
                    self.captured.push(item.clone());
                }
            }
            self.rec.enter("codec.encode", op);
            let bytes = encode_msg(&msg);
            self.rec.exit();
            self.client_stats.record(&msg, bytes.len());
            self.rec.enter("conn.enqueue", op);
            let _ = self.up[i].out.enqueue(&bytes);
            self.rec.exit();
        }
        for (delay, token) in out.timers {
            self.schedule(self.now + delay.as_micros(), Event::ClientTimer(token));
        }
        for r in out.done {
            let Some(issued) = self.inflight.remove(&r.op) else {
                // A connect.
                if !r.outcome.is_ok() {
                    self.counts.ops_failed += 1;
                }
                continue;
            };
            let good = self.gen.completed(issued, &r.outcome);
            if good {
                self.counts.ops_ok += 1;
            } else {
                self.counts.ops_failed += 1;
            }
        }
    }

    fn begin(&mut self, op: ClientOp, issued: Option<Issued>) {
        let before = self.client_probe();
        let now = self.sim_now();
        self.rec.enter("client.begin", 0);
        let (id, out) = self.client.begin(op, now, &mut self.client_rng);
        self.rec.exit();
        let after = self.client_probe();
        self.leaves
            .entry("client.begin")
            .or_default()
            .add(before, after);
        if let Some(issued) = issued {
            self.inflight.insert(id, issued);
        }
        self.apply(out, id.0);
    }

    /// Moves queued bytes of `pipe` onto its wire (`WriteQueue::flush_to`).
    fn flush(rec: &mut Recorder, pipe: &mut Pipe, moved: &mut bool) {
        if pipe.out.pending() == 0 {
            return;
        }
        rec.enter("conn.flush", 0);
        let _ = pipe.out.flush_to(&mut pipe.wire);
        rec.exit();
        *moved = true;
    }

    /// Feeds the wire's bytes to the reader in segments and takes every
    /// complete frame.
    fn reassemble(rec: &mut Recorder, pipe: &mut Pipe) -> Vec<Vec<u8>> {
        if pipe.wire.is_empty() {
            return Vec::new();
        }
        let wire = std::mem::take(&mut pipe.wire);
        let mut frames = Vec::new();
        rec.enter("conn.reassemble", 0);
        for chunk in wire.chunks(SEGMENT) {
            pipe.reader.ingest(chunk);
            while let Ok(Some(frame)) = pipe.reader.next_frame() {
                frames.push(frame);
            }
        }
        rec.exit();
        frames
    }

    fn decode(rec: &mut Recorder, frame: &[u8]) -> Vec<Msg> {
        rec.enter("codec.decode", 0);
        let msgs = decode_frame_msgs(frame).unwrap_or_default();
        rec.exit();
        msgs
    }

    /// `Loop::route`: stage a server's output for its destination.
    fn route(&mut self, s: usize, outs: Vec<(Addr, Msg)>) {
        for (to, msg) in outs {
            // The drain encodes inside its span; replay the encode here,
            // outside every span, so it can be subtracted.
            let t = Instant::now();
            let len = std::hint::black_box(encode_msg(&msg)).len();
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.leaves.entry("coalesce.drain").or_default().encode_ns += ns;
            if matches!(msg, Msg::GossipPush { .. } | Msg::GossipSummary { .. }) {
                self.counts.gossip_bytes += len as u64;
            }
            let side = &mut self.servers[s];
            match to {
                Addr::Client(_) => side.to_client.stage(msg),
                Addr::Server(p) => {
                    if let Some(c) = side.to_peer.get_mut(usize::from(p.0)) {
                        c.stage(msg);
                    }
                }
            }
        }
    }

    fn handle(&mut self, s: usize, from: Addr, msg: Msg) {
        let class = Class::of(&msg);
        let op = msg.op().map_or(0, |o| o.0);
        let now = self.sim_now();
        let before = self.server_probe(s);
        self.rec.enter(class.span(), op);
        let outs = self.servers[s].node.handle(from, msg, now);
        self.rec.exit();
        let after = self.server_probe(s);
        self.leaves
            .entry(class.span())
            .or_default()
            .add(before, after);
        self.route(s, outs);
    }

    /// One event-loop iteration of server `s`: read, dispatch, commit flush,
    /// coalesce, write.
    fn server_tick(&mut self, s: usize) {
        if !self.servers[s].up {
            self.up[s].wire.clear();
            for i in 0..N {
                self.peer[i][s].wire.clear();
            }
            return;
        }
        let frames = Self::reassemble(&mut self.rec, &mut self.up[s]);
        for frame in frames {
            for msg in Self::decode(&mut self.rec, &frame) {
                self.handle(s, Addr::Client(ClientId(0)), msg);
            }
        }
        for p in 0..N {
            let frames = Self::reassemble(&mut self.rec, &mut self.peer[p][s]);
            self.counts.peer_frames += frames.len() as u64;
            for frame in frames {
                for msg in Self::decode(&mut self.rec, &frame) {
                    self.handle(s, Addr::Server(ServerId(p as u16)), msg);
                }
            }
        }
        let now = self.sim_now();
        let before = self.server_probe(s);
        self.rec.enter("server.flush_commits", 0);
        let acks = self.servers[s].node.flush_commits(now, false);
        if acks.is_empty() {
            // Nothing was due: most ticks. Not a call worth a span.
            self.rec.discard();
        } else {
            self.rec.exit();
            let after = self.server_probe(s);
            self.leaves
                .entry("server.flush_commits")
                .or_default()
                .add(before, after);
            self.counts.flushes += 1;
            self.counts.acks_released += acks.len() as u64;
            self.route(s, acks);
        }
        let side = &mut self.servers[s];
        if !side.to_client.is_empty() {
            self.rec.enter("coalesce.drain", 0);
            side.to_client
                .drain_into(&mut self.down[s].out, DEFAULT_MAX_FRAME, &mut side.stats);
            self.rec.exit();
        }
        Self::flush(&mut self.rec, &mut self.down[s], &mut self.moved);
        for p in 0..N {
            if !side.to_peer[p].is_empty() {
                self.rec.enter("coalesce.drain", 0);
                side.to_peer[p].drain_into(
                    &mut self.peer[s][p].out,
                    DEFAULT_MAX_FRAME,
                    &mut side.stats,
                );
                self.rec.exit();
            }
            Self::flush(&mut self.rec, &mut self.peer[s][p], &mut self.moved);
        }
    }

    /// `PipeClient::read_links` for server `s`'s connection.
    fn client_read(&mut self, s: usize) {
        let frames = Self::reassemble(&mut self.rec, &mut self.down[s]);
        self.counts.server_frames += frames.len() as u64;
        for frame in frames {
            for msg in Self::decode(&mut self.rec, &frame) {
                let op = msg.op().map_or(0, |o| o.0);
                let before = self.client_probe();
                let now = self.sim_now();
                self.rec.enter("client.on_message", op);
                let out = self.client.on_message(ServerId(s as u16), msg, now);
                self.rec.exit();
                let after = self.client_probe();
                self.leaves
                    .entry("client.on_message")
                    .or_default()
                    .add(before, after);
                self.apply(out, op);
            }
        }
    }

    /// Exchanges messages at the current instant until nothing moves.
    fn settle(&mut self) {
        loop {
            self.moved = false;
            for s in 0..N {
                Self::flush(&mut self.rec, &mut self.up[s], &mut self.moved);
            }
            for s in 0..N {
                self.server_tick(s);
            }
            // Frames between servers are counted where they are read; the
            // reader of a dead server never runs, which is what silence is.
            for s in 0..N {
                self.client_read(s);
            }
            if !self.moved {
                return;
            }
        }
    }

    fn gossip(&mut self, s: usize) {
        let period = self.servers[s].node.gossip_period().as_micros().max(1);
        self.schedule(self.now + period, Event::Gossip(s));
        if !self.servers[s].up {
            return;
        }
        let now = self.sim_now();
        let before = self.server_probe(s);
        self.rec.enter("server.gossip_timer", 0);
        let side = &mut self.servers[s];
        let outs = side.node.on_gossip_timer(now, &mut side.rng);
        self.rec.exit();
        let after = self.server_probe(s);
        self.leaves
            .entry("server.gossip_timer")
            .or_default()
            .add(before, after);
        self.counts.gossip_rounds += 1;
        self.route(s, outs);
    }

    /// The earliest commit deadline any server holds.
    fn commit_deadline(&self) -> Option<u64> {
        self.servers
            .iter()
            .filter(|s| s.up)
            .filter_map(|s| s.node.pending_commit_deadline())
            .map(SimTime::as_micros)
            .min()
    }

    /// Runs `total` arrivals `interval_us` apart (then lets every operation
    /// finish), drawing each from `next_op`. `kill_at` takes a server down
    /// when that arrival is due.
    fn run_phase(
        &mut self,
        total: usize,
        interval_us: u64,
        kill_at: Option<(usize, usize)>,
        next_op: &mut NextOp<'_>,
    ) -> Result<(), String> {
        let t0 = self.now;
        let mut arrived = 0usize;
        self.schedule(t0, Event::Arrival);
        loop {
            if arrived >= total && self.inflight.is_empty() && self.client.inflight() == 0 {
                return Ok(());
            }
            let next_event = self.events.peek().map(|Reverse((at, _, _))| *at);
            let at = [next_event, self.commit_deadline()]
                .into_iter()
                .flatten()
                .min()
                .ok_or("the walk stalled with operations in flight")?;
            self.now = self.now.max(at);
            while self
                .events
                .peek()
                .is_some_and(|Reverse((at, _, _))| *at <= self.now)
            {
                let Some(Reverse((_, _, event))) = self.events.pop() else {
                    break;
                };
                match event {
                    Event::Arrival if arrived < total => {
                        if let Some((_, victim)) = kill_at.filter(|(n, _)| *n == arrived) {
                            self.servers[victim].up = false;
                        }
                        if let Some((issued, op)) = next_op(&mut self.gen, arrived) {
                            self.begin(op, issued);
                        }
                        arrived += 1;
                        if arrived < total {
                            self.schedule(t0 + arrived as u64 * interval_us, Event::Arrival);
                        }
                    }
                    Event::Arrival => {}
                    Event::ClientTimer(token) => {
                        let now = self.sim_now();
                        let out = self.client.on_timeout(token, now);
                        self.apply(out, token & 0xff_ffff_ffff);
                    }
                    Event::Gossip(s) => self.gossip(s),
                }
            }
            self.settle();
        }
    }

    /// Totals of everything countable, for differencing around the measured
    /// phase.
    fn totals(&self) -> Counts {
        let mut c = self.counts;
        c.client_msgs = self.client_stats.total_count();
        c.encoded_bytes = self.client_stats.total_encoded_bytes();
        c.client = self.client.counters();
        let cache = self.client.verify_cache();
        c.vcache_hits = cache.hits();
        c.vcache_lookups = cache.hits() + cache.misses();
        for side in &self.servers {
            c.server_msgs += side.stats.total_count();
            c.encoded_bytes += side.stats.total_encoded_bytes();
            c.servers = c.servers.merged(side.node.counters());
            let cache = side.node.verify_cache();
            c.vcache_hits += cache.hits();
            c.vcache_lookups += cache.hits() + cache.misses();
            let st = side.node.storage_stats().unwrap_or_default();
            c.appended += st.appended;
            c.syncs += st.syncs;
        }
        c
    }
}

fn diff(after: Counts, before: Counts) -> Counts {
    Counts {
        ops_ok: after.ops_ok - before.ops_ok,
        ops_failed: after.ops_failed - before.ops_failed,
        client_msgs: after.client_msgs - before.client_msgs,
        server_msgs: after.server_msgs - before.server_msgs,
        encoded_bytes: after.encoded_bytes - before.encoded_bytes,
        server_frames: after.server_frames - before.server_frames,
        peer_frames: after.peer_frames - before.peer_frames,
        gossip_rounds: after.gossip_rounds - before.gossip_rounds,
        gossip_bytes: after.gossip_bytes - before.gossip_bytes,
        flushes: after.flushes - before.flushes,
        acks_released: after.acks_released - before.acks_released,
        client: after.client.since(before.client),
        servers: after.servers.since(before.servers),
        vcache_hits: after.vcache_hits - before.vcache_hits,
        vcache_lookups: after.vcache_lookups - before.vcache_lookups,
        appended: after.appended - before.appended,
        syncs: after.syncs - before.syncs,
    }
}

/// Walks `ops` operations of `workload` through the layers, with spans when
/// `record` is set. `dir` must be a fresh directory; the stores live there.
///
/// # Errors
///
/// A store that cannot be opened, or a walk that stalls.
pub fn walk(
    dir: &Path,
    workload: &Workload,
    seed: u64,
    ops: usize,
    record: bool,
) -> Result<Walked, String> {
    let (mut w, key, verifying) = World::new(dir, workload, seed)?;
    for s in 0..N {
        let period = w.servers[s].node.gossip_period().as_micros().max(1);
        w.schedule(period, Event::Gossip(s));
    }
    // Set-up, unrecorded: the 16 connects, then every item written once.
    let interval = |rate: f64| (1e6 / rate) as u64;
    w.run_phase(GROUPS, interval(PRELOAD_RATE), None, &mut |_, g| {
        let op = ClientOp::Connect {
            group: GroupId(g as u32),
            recover: false,
        };
        Some((None, op))
    })?;
    w.run_phase(
        GROUPS * SLOTS,
        interval(PRELOAD_RATE),
        None,
        &mut |gen, item| Some((Some(Issued { item, read: false }), gen.preload(item))),
    )?;
    if w.counts.ops_failed > 0 {
        return Err(format!(
            "{} preload writes failed in the walk",
            w.counts.ops_failed
        ));
    }

    let rate = match workload.arrival {
        Arrival::Open(rate) => rate,
        Arrival::Closed => RATE_WALK_SATURATE,
    };
    let kill_at = workload.kill.then_some((ops / 2, victim(seed)));
    let before = w.totals();
    w.leaves.clear();
    w.captured.clear();
    w.rec = Recorder::new(record);
    let t = Instant::now();
    w.run_phase(ops, interval(rate), kill_at, &mut |gen, _| {
        gen.next().map(|(issued, op)| (Some(issued), op))
    })?;
    let total_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let counts = diff(w.totals(), before);
    Ok(Walked {
        counts,
        total_ns,
        spans: w.rec.spans().to_vec(),
        leaves: w.leaves,
        captured: w.captured,
        key,
        verifying,
        ops: ops as u64,
        value_bytes: workload.value_bytes,
    })
}

/// Unit costs of the leaf layers, from replaying captured inputs through
/// their public functions.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeafCosts {
    sign_ns: f64,
    verify_ns: f64,
    verify_batch_ns_per_sig: f64,
    digest_ns_per_kib: f64,
    check_ns: f64,
    append_ns: f64,
    sync_ns: f64,
}

fn per(total_ns: u128, n: usize) -> f64 {
    total_ns as f64 / n.max(1) as f64
}

/// Replays the walk's captured writes through signing, verification, the
/// verify cache, digesting and a scratch store at `dir`.
///
/// # Errors
///
/// A scratch store that cannot be opened or written.
pub fn replay_leaves(walked: &Walked, dir: &Path) -> Result<LeafCosts, String> {
    let items = &walked.captured;
    if items.is_empty() {
        return Ok(LeafCosts::default());
    }
    let payloads: Vec<Vec<u8>> = items.iter().map(|i| i.meta.payload()).collect();
    let n = items.len();

    let t = Instant::now();
    for p in &payloads {
        std::hint::black_box(walked.key.sign(p));
    }
    let sign_ns = per(t.elapsed().as_nanos(), n);

    let t = Instant::now();
    for (item, p) in items.iter().zip(&payloads) {
        let _ = std::hint::black_box(walked.verifying.verify(p, &item.meta.signature));
    }
    let verify_ns = per(t.elapsed().as_nanos(), n);

    let entries: Vec<BatchEntry<'_>> = items
        .iter()
        .zip(&payloads)
        .map(|(item, p)| BatchEntry {
            key: &walked.verifying,
            message: p,
            signature: &item.meta.signature,
        })
        .collect();
    let t = Instant::now();
    for batch in entries.chunks(GROUP_COMMIT_BATCH as usize) {
        let _ = std::hint::black_box(verify_batch(batch));
    }
    let verify_batch_ns_per_sig = per(t.elapsed().as_nanos(), n);

    let t = Instant::now();
    let mut bytes = 0usize;
    for item in items {
        bytes += item.value.len();
        std::hint::black_box(digest(&item.value));
    }
    let digest_ns_per_kib = t.elapsed().as_nanos() as f64 / (bytes.max(1) as f64 / 1024.0);

    // Half the triples are cached, so lookups are half hits, half misses.
    let mut cache = VerifyCache::default();
    for (item, p) in items.iter().zip(&payloads).step_by(2) {
        cache.insert(item.meta.writer, p, &item.meta.signature);
    }
    let t = Instant::now();
    for (item, p) in items.iter().zip(&payloads) {
        std::hint::black_box(cache.check(item.meta.writer, p, &item.meta.signature));
    }
    let check_ns = per(t.elapsed().as_nanos(), n);

    // Appends never sync on their own here, so the two are timed apart.
    let cfg = StorageConfig {
        fsync: FsyncPolicy::GroupCommit {
            max_batch: u32::MAX,
            max_delay_us: GROUP_COMMIT_DELAY_US,
        },
        ..StorageConfig::default()
    };
    let mut store = Store::open(dir, cfg).map_err(|e| e.to_string())?;
    let per_sync = (walked.counts.appended / walked.counts.syncs.max(1)).max(1) as usize;
    let (mut append_total, mut sync_total, mut syncs) = (0u128, 0u128, 0usize);
    for group in items.chunks(per_sync) {
        let t = Instant::now();
        for item in group {
            store
                .append(&Record::Item(item.clone()))
                .map_err(|e| e.to_string())?;
        }
        append_total += t.elapsed().as_nanos();
        let t = Instant::now();
        store.sync_now().map_err(|e| e.to_string())?;
        sync_total += t.elapsed().as_nanos();
        syncs += 1;
    }
    Ok(LeafCosts {
        sign_ns,
        verify_ns,
        verify_batch_ns_per_sig,
        digest_ns_per_kib,
        check_ns,
        append_ns: per(append_total, n),
        sync_ns: per(sync_total, syncs),
    })
}

impl Walked {
    /// Nanoseconds of leaf work nested in the calls `leaf` summarises.
    fn nested_ns(&self, leaf: &Leaf, costs: &LeafCosts) -> f64 {
        let digest_ns = costs.digest_ns_per_kib * self.value_bytes as f64 / 1024.0;
        // Batched signatures are checked by the batch, then found cached.
        leaf.signs as f64 * costs.sign_ns
            + leaf.verifies as f64 * costs.verify_ns
            + leaf.batch_items as f64 * costs.verify_batch_ns_per_sig
            + leaf.digests as f64 * digest_ns
            + leaf.lookups as f64 * costs.check_ns
            + leaf.appended as f64 * costs.append_ns
            + leaf.syncs as f64 * costs.sync_ns
            + leaf.encode_ns as f64
    }

    /// The walk's per-layer metrics, in manifest order after the outside
    /// ones. `other` is the same walk timed at its ends only, and
    /// `live_server_cpu_us_per_op` the tracing-off run's figure.
    pub fn metrics(
        &self,
        costs: &LeafCosts,
        other: &Walked,
        live_server_cpu_us_per_op: f64,
    ) -> Metrics {
        let spans = by_name(&self.spans);
        let calls = |name: &str| spans.get(name).map_or(0, |s| s.0) as f64;
        let total = |name: &str| spans.get(name).map_or(0, |s| s.1) as f64;
        // A span's own time, less the leaf work replay attributes to it.
        let own = |name: &str| {
            let nested = self
                .leaves
                .get(name)
                .map_or(0.0, |leaf| self.nested_ns(leaf, costs));
            (total(name) - nested).max(0.0)
        };
        let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let c = &self.counts;
        let ops = self.ops as f64;
        let msgs = (c.client_msgs + c.server_msgs) as f64;
        let server_frames = (c.server_frames + c.peer_frames) as f64;
        let frames = calls("conn.enqueue") + server_frames;
        let drain_encode = self
            .leaves
            .get("coalesce.drain")
            .map_or(0.0, |l| l.encode_ns as f64);
        let server_side: f64 = [
            "conn.reassemble",
            "codec.decode",
            "server.handle_read",
            "server.handle_write",
            "server.handle_gossip",
            "server.handle_other",
            "server.gossip_timer",
            "server.flush_commits",
            "coalesce.drain",
        ]
        .iter()
        .map(|n| total(n))
        .sum();
        // Reassembly and decoding run on both sides; the client's share is
        // its share of the frames read. Fsync waits are not CPU.
        let client_frames = c.server_frames as f64;
        let read_frames = calls("codec.decode");
        let client_rx =
            div(client_frames, read_frames) * (total("conn.reassemble") + total("codec.decode"));
        let server_flush = div(server_frames, frames) * total("conn.flush");
        let walk_server_us_per_op =
            (server_side - client_rx + server_flush - c.syncs as f64 * costs.sync_ns).max(0.0)
                / ops
                / 1e3;
        vec![
            ("client.begin_ns_per_op", div(own("client.begin"), ops)),
            (
                "client.on_message_ns_per_msg",
                div(own("client.on_message"), calls("client.on_message")),
            ),
            ("client.signs_per_op", c.client.signs as f64 / ops),
            ("client.verifies_per_op", c.client.verifies as f64 / ops),
            (
                "client.verify_cached_per_op",
                c.client.verify_cached as f64 / ops,
            ),
            (
                "codec.encode_ns_per_msg",
                div(total("codec.encode") + drain_encode, msgs),
            ),
            ("codec.decode_ns_per_msg", div(total("codec.decode"), msgs)),
            ("codec.bytes_per_msg", div(c.encoded_bytes as f64, msgs)),
            (
                "coalesce.drain_ns_per_msg",
                div(own("coalesce.drain"), c.server_msgs as f64),
            ),
            (
                "coalesce.msgs_per_frame",
                div(c.server_msgs as f64, server_frames),
            ),
            (
                "conn.enqueue_flush_ns_per_frame",
                div(total("conn.enqueue") + total("conn.flush"), frames),
            ),
            (
                "conn.reassemble_ns_per_frame",
                div(total("conn.reassemble"), read_frames),
            ),
            (
                "server.handle_read_ns_per_msg",
                div(own("server.handle_read"), calls("server.handle_read")),
            ),
            (
                "server.handle_write_ns_per_msg",
                div(own("server.handle_write"), calls("server.handle_write")),
            ),
            (
                "server.handle_gossip_ns_per_msg",
                div(own("server.handle_gossip"), calls("server.handle_gossip")),
            ),
            (
                "server.gossip_timer_ns_per_round",
                div(own("server.gossip_timer"), c.gossip_rounds as f64),
            ),
            (
                "server.gossip_bytes_per_round",
                div(c.gossip_bytes as f64, c.gossip_rounds as f64),
            ),
            (
                "server.flush_commits_ns_per_call",
                div(own("server.flush_commits"), calls("server.flush_commits")),
            ),
            (
                "server.acks_per_flush",
                div(c.acks_released as f64, c.flushes as f64),
            ),
            ("server.verifies_per_op", c.servers.verifies as f64 / ops),
            (
                "server.verify_cached_per_op",
                c.servers.verify_cached as f64 / ops,
            ),
            (
                "server.batch_items_per_batch",
                div(c.servers.batch_items as f64, c.servers.batch_ops as f64),
            ),
            ("vcache.check_ns", costs.check_ns),
            (
                "vcache.hit_ratio",
                div(c.vcache_hits as f64, c.vcache_lookups as f64),
            ),
            ("crypto.sign_ns", costs.sign_ns),
            ("crypto.verify_ns", costs.verify_ns),
            (
                "crypto.verify_batch_ns_per_sig",
                costs.verify_batch_ns_per_sig,
            ),
            ("crypto.digest_ns_per_kib", costs.digest_ns_per_kib),
            ("storage.append_ns_per_record", costs.append_ns),
            ("storage.sync_ns_per_call", costs.sync_ns),
            (
                "storage.records_per_sync",
                div(c.appended as f64, c.syncs as f64),
            ),
            ("storage.appends_per_op", c.appended as f64 / ops),
            ("storage.syncs_per_op", c.syncs as f64 / ops),
            (
                "trace.overhead_pct",
                (self.total_ns as f64 - other.total_ns as f64) / other.total_ns.max(1) as f64
                    * 100.0,
            ),
            (
                "trace.coverage",
                div(walk_server_us_per_op, live_server_cpu_us_per_op),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = crate::cluster::out_dir().join(format!("test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn counts_repeat_exactly_for_one_seed() {
        // write-open exercises every layer: WAL, group commit, gossip pushes.
        let w = &WORKLOADS[1];
        let (a_dir, b_dir) = (scratch("a"), scratch("b"));
        let a = walk(&a_dir, w, 42, 150, false).expect("first walk");
        let b = walk(&b_dir, w, 42, 150, true).expect("second walk");
        let _ = std::fs::remove_dir_all(&a_dir);
        let _ = std::fs::remove_dir_all(&b_dir);
        assert_eq!(a.counts.repeatable(), b.counts.repeatable());
        assert_eq!(a.counts.ops_ok, 150);
        assert_eq!(a.counts.ops_failed, 0);
        assert!(a.counts.syncs > 0 && a.counts.appended > 0);
        assert!(a.spans.is_empty() && !b.spans.is_empty());
    }
}
