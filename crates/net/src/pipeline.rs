//! The pipelined socket client: many in-flight operations, one
//! connection set.
//!
//! [`PipeClient`] drives the [`ClientCore`] state machine over the framed
//! TCP protocol non-blockingly: callers [`PipeClient::submit`] as many
//! operations as they like (the core tracks each by [`OpId`]) and then
//! [`PipeClient::pump`] readiness — every pump reads whatever responses
//! have arrived on any server connection, advances protocol timers, and
//! returns whichever operations completed, in whatever order the quorums
//! formed. Responses are matched to requests by the protocol's operation
//! id, not by arrival order, so a slow quorum for op 3 never blocks the
//! completion of op 7.
//!
//! This is the client-side half of the serving tentpole: one process can
//! multiplex thousands of logical sessions over `n` sockets (one per
//! server) instead of thousands of blocked threads. The benchmark's load
//! generator (`benchmark/src/live.rs`) is the canonical consumer; the
//! blocking [`crate::NetClient`] is this client with one operation in
//! flight.
//!
//! Each server gets one lazily-dialed connection; failures surface as
//! silence and the shared [`sstore_core::RetryPolicy`] paces redials, with
//! jitter so a mass disconnect does not reconnect in lockstep.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sstore_core::client::{ClientCore, ClientOp, OpResult, Outcome, Output};
use sstore_core::codec::{decode_frame_msgs, encode_msg};
use sstore_core::metrics::WireStats;
use sstore_core::server::Addr;
use sstore_core::types::{ClientId, GroupId, OpId, ServerId};
use sstore_core::wire::Msg;
use sstore_core::Context;
use sstore_simnet::SimTime;

use crate::backoff::LinkHealth;
use crate::conn::{FrameReader, WriteQueue};
use crate::frame::encode_hello;
use crate::NetClientConfig;

/// Scratch read-buffer size.
const SCRATCH: usize = 64 * 1024;

/// Per-connection write-queue cap, as a multiple of the frame cap.
const OUT_CAP_FRAMES: usize = 4;

/// Completed-read latencies kept for the hedging percentile.
const LAT_WINDOW: usize = 128;

/// Minimum latency samples before hedging may trigger — below this the
/// percentile is too noisy to call anything "slow".
const HEDGE_MIN_SAMPLES: usize = 16;

/// Per-server connection state.
struct PipeLink {
    /// The non-blocking socket, if the link is up.
    stream: Option<TcpStream>,
    reader: FrameReader,
    out: WriteQueue,
    /// Earliest time the next dial may be attempted.
    next_attempt: Instant,
    /// Fault streak and decorrelated-jitter redial pacing; quarantines
    /// flapping links (see [`crate::LinkHealth`]).
    health: LinkHealth,
}

/// Transport-level bookkeeping for one in-flight operation: the hard
/// per-op deadline (the retry *budget* in wall-clock form) and the
/// hedging state.
struct Pending {
    /// When the op is abandoned with [`Outcome::Unavailable`].
    deadline: Instant,
    /// Submission instant, for the completed-latency population.
    submitted: Instant,
    /// Read-family op, eligible for hedging and latency tracking.
    read: bool,
    /// Whether the one hedge this op gets has been spent.
    hedged: bool,
}

/// A non-blocking, pipelining client handle. See the module docs.
pub struct PipeClient {
    core: ClientCore,
    links: Vec<PipeLink>,
    addrs: Vec<SocketAddr>,
    cfg: NetClientConfig,
    rng: StdRng,
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    start: Instant,
    stats: WireStats,
    done: Vec<OpResult>,
    scratch: Vec<u8>,
    /// Transport bookkeeping per in-flight op (deadline, hedge state).
    pending: HashMap<OpId, Pending>,
    /// Ring of recent completed-read latencies (hedging percentile).
    lat: Vec<Duration>,
    lat_pos: usize,
    /// [`PipeClient::hedge_threshold`]'s answer, until the next sample.
    cached_threshold: Option<Duration>,
    sheds_seen: u64,
    hedges: u64,
    expired: u64,
}

impl PipeClient {
    pub(crate) fn new(
        core: ClientCore,
        addrs: Vec<SocketAddr>,
        cfg: NetClientConfig,
    ) -> PipeClient {
        let retry = core.retry_policy();
        let min = Duration::from_micros(retry.dial_delay(1).as_micros());
        let max = Duration::from_micros(retry.max_delay.as_micros());
        let links = addrs
            .iter()
            .map(|_| PipeLink {
                stream: None,
                reader: FrameReader::new(cfg.max_frame),
                out: WriteQueue::new(cfg.max_frame, cfg.max_frame.saturating_mul(OUT_CAP_FRAMES)),
                next_attempt: Instant::now(),
                health: LinkHealth::new(min, max, max),
            })
            .collect();
        let seed = 0xb1be ^ u64::from(core.id().0);
        PipeClient {
            core,
            links,
            addrs,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            timers: BinaryHeap::new(),
            start: Instant::now(),
            stats: WireStats::new(),
            done: Vec::new(),
            scratch: vec![0u8; SCRATCH],
            pending: HashMap::new(),
            lat: Vec::with_capacity(LAT_WINDOW),
            lat_pos: 0,
            cached_threshold: None,
            sheds_seen: 0,
            hedges: 0,
            expired: 0,
        }
    }

    /// This client's protocol id.
    pub fn id(&self) -> ClientId {
        self.core.id()
    }

    /// Operations begun but not yet completed.
    pub fn inflight(&self) -> usize {
        self.core.inflight()
    }

    /// The client's current context for `group`.
    pub fn context(&self, group: GroupId) -> Context {
        self.core.context(group)
    }

    /// Drops all volatile protocol state as if the process crashed:
    /// contexts, sessions and every in-flight operation with its deadline
    /// and timers (reconnect with `recover: true`). Connections stay up.
    pub fn simulate_crash(&mut self) {
        self.core.crash();
        self.pending.clear();
        self.timers.clear();
    }

    /// Measured-vs-formula byte accounting for every frame sent.
    pub fn wire_stats(&self) -> &WireStats {
        &self.stats
    }

    /// Explicit load-shed responses received from servers. A shed is the
    /// server saying "overloaded, retry elsewhere" — distinguishable from
    /// Byzantine silence, and escalated immediately by the core.
    pub fn sheds_seen(&self) -> u64 {
        self.sheds_seen
    }

    /// Reads hedged to one extra server after crossing the configured
    /// latency percentile ([`NetClientConfig::hedge_percentile`]).
    pub fn hedges(&self) -> u64 {
        self.hedges
    }

    /// Operations abandoned at their per-op deadline and surfaced as
    /// [`Outcome::Unavailable`] completions.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Links currently quarantined as flapping by their health score.
    pub fn quarantined_links(&self) -> usize {
        self.links.iter().filter(|l| l.health.quarantined()).count()
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX))
    }

    /// Begins `op` without waiting for it; its messages are *staged* on
    /// this call and hit the sockets on the next [`PipeClient::pump`] —
    /// a burst of submits between pumps coalesces into one write per
    /// connection instead of one syscall per operation. Call
    /// [`PipeClient::flush`] to force the staged bytes out early. The
    /// returned [`OpId`] matches the eventual [`OpResult::op`].
    pub fn submit(&mut self, op: ClientOp) -> OpId {
        self.ensure_links();
        let read = matches!(op, ClientOp::Read { .. } | ClientOp::MwRead { .. });
        let now = self.now();
        let (op_id, out) = self.core.begin(op, now, &mut self.rng);
        let started = Instant::now();
        self.pending.insert(
            op_id,
            Pending {
                deadline: started + self.cfg.request_timeout,
                submitted: started,
                read,
                hedged: false,
            },
        );
        self.apply(out);
        op_id
    }

    /// Forces staged writes onto the sockets without running a full pump
    /// round — for callers that submit and then wait on something other
    /// than [`PipeClient::pump`].
    pub fn flush(&mut self) {
        self.flush_links();
    }

    /// One readiness round: redial due links, fire due protocol timers,
    /// drain every readable socket through the state machine, flush
    /// pending writes. Returns every operation that completed, in
    /// completion order (which may be any order relative to submission).
    pub fn pump(&mut self) -> Vec<OpResult> {
        self.ensure_links();
        self.fire_due_timers();
        self.read_links();
        self.expire_overdue();
        self.maybe_hedge();
        self.flush_links();
        std::mem::take(&mut self.done)
    }

    /// Pumps until at least one operation completes or `deadline`
    /// passes, sleeping briefly between empty rounds. Per-op deadlines
    /// fire *inside* the pump, so an operation past its retry budget
    /// comes back as a completed [`Outcome::Unavailable`] result rather
    /// than lingering in the op table forever.
    pub fn pump_until(&mut self, deadline: Instant) -> Vec<OpResult> {
        loop {
            let done = self.pump();
            if !done.is_empty() || Instant::now() >= deadline {
                return done;
            }
            let next_expiry = self.pending.values().map(|p| p.deadline).min();
            let wake = self
                .timers
                .peek()
                .map(|Reverse((t, _))| *t)
                .unwrap_or(deadline)
                .min(next_expiry.unwrap_or(deadline))
                .min(deadline);
            // A nap, not a readiness wait like the server's: what comes due
            // during it leaves in one write per link. Waiting on the links
            // took read-open p50 565 -> 333 us but client CPU per op +39 %
            // and server +27 % over the napping parent (EXPERIMENTS.md F13).
            let nap = wake
                .saturating_duration_since(Instant::now())
                .min(Duration::from_micros(500));
            std::thread::sleep(nap.max(Duration::from_micros(50)));
        }
    }

    /// Sends effects, arms timers, banks completions.
    fn apply(&mut self, out: Output) {
        for (to, msg) in out.sends {
            self.send(to, &msg);
        }
        for (delay, token) in out.timers {
            let at = Instant::now() + Duration::from_micros(delay.as_micros());
            self.timers.push(Reverse((at, token)));
        }
        for r in out.done {
            if let Some(p) = self.pending.remove(&r.op) {
                if p.read && matches!(r.outcome, Outcome::ReadOk { .. }) {
                    self.record_latency(p.submitted.elapsed());
                }
            }
            self.done.push(r);
        }
    }

    /// Banks one completed-read latency in the bounded ring.
    fn record_latency(&mut self, d: Duration) {
        self.cached_threshold = None;
        if self.lat.len() < LAT_WINDOW {
            self.lat.push(d);
        } else {
            if let Some(slot) = self.lat.get_mut(self.lat_pos) {
                *slot = d;
            }
            self.lat_pos = (self.lat_pos + 1) % LAT_WINDOW;
        }
    }

    /// Abandons every op past its per-op deadline, surfacing each as a
    /// completed [`Outcome::Unavailable`] result — the transport-level
    /// retry budget: however many protocol rounds remain, the caller gets
    /// an answer by `submit + request_timeout`.
    fn expire_overdue(&mut self) {
        let cutoff = Instant::now();
        let overdue: Vec<OpId> = self
            .pending
            .iter()
            .filter(|(_, p)| cutoff >= p.deadline)
            .map(|(id, _)| *id)
            .collect();
        for op_id in overdue {
            self.pending.remove(&op_id);
            let now = self.now();
            if let Some(r) = self.core.expire(op_id, now) {
                self.expired = self.expired.saturating_add(1);
                self.done.push(r);
            }
        }
    }

    /// Hedges reads that have outlived the configured percentile of the
    /// recent completed-read latency population: one extra server gets
    /// the current-phase request, once per op, without consuming a retry
    /// round. Off unless [`NetClientConfig::hedge_percentile`] is set and
    /// enough samples have accumulated.
    fn maybe_hedge(&mut self) {
        let Some(p) = self.cfg.hedge_percentile else {
            return;
        };
        if self.lat.len() < HEDGE_MIN_SAMPLES {
            return;
        }
        let threshold = self.hedge_threshold(p);
        let cutoff = Instant::now();
        let slow: Vec<OpId> = self
            .pending
            .iter()
            .filter(|(_, t)| {
                t.read && !t.hedged && cutoff.saturating_duration_since(t.submitted) > threshold
            })
            .map(|(id, _)| *id)
            .collect();
        for op_id in slow {
            if let Some(t) = self.pending.get_mut(&op_id) {
                t.hedged = true;
            }
            let now = self.now();
            let out = self.core.hedge(op_id, now);
            if !out.sends.is_empty() {
                self.hedges = self.hedges.saturating_add(1);
            }
            self.apply(out);
        }
    }

    /// [`PipeClient::latency_percentile`] at the configured percentile,
    /// computed once per sample rather than once per pump: the ring only
    /// changes in [`PipeClient::record_latency`], which drops the cache.
    fn hedge_threshold(&mut self, p: f64) -> Duration {
        let t = self
            .cached_threshold
            .unwrap_or_else(|| self.latency_percentile(p));
        self.cached_threshold = Some(t);
        t
    }

    /// The `p`-percentile of the recent completed-read latencies (clones
    /// and sorts the ring).
    fn latency_percentile(&self, p: f64) -> Duration {
        let mut v = self.lat.clone();
        v.sort_unstable();
        let idx = ((v.len().saturating_sub(1)) as f64 * p.clamp(0.0, 1.0)) as usize;
        v.get(idx).copied().unwrap_or(Duration::MAX)
    }

    /// Enqueues one message for `to` if its link is up; silence if not.
    fn send(&mut self, to: ServerId, msg: &Msg) {
        let Some(link) = self.links.get_mut(usize::from(to.0)) else {
            return;
        };
        if link.stream.is_none() {
            return;
        }
        let bytes = encode_msg(msg);
        self.stats.record(msg, bytes.len());
        // lint:allow(L10): backpressure-as-silence — a full write queue
        // drops the request like a lossy network; the client core's
        // deadline/retry machinery is the designed recovery path, not an
        // error return from deep inside the fan-out loop.
        let _ = link.out.enqueue(&bytes);
    }

    /// (Re)dials every down link whose backoff has elapsed. The dial
    /// itself is the one blocking call in this client (bounded by
    /// `connect_timeout`); jittered retry-policy backoff paces attempts.
    fn ensure_links(&mut self) {
        let me = self.core.id();
        for i in 0..self.links.len() {
            let due = match self.links.get(i) {
                Some(link) => link.stream.is_none() && Instant::now() >= link.next_attempt,
                None => false,
            };
            if !due {
                continue;
            }
            let Some(&addr) = self.addrs.get(i) else {
                continue;
            };
            let dialed =
                TcpStream::connect_timeout(&addr, self.cfg.connect_timeout).and_then(|stream| {
                    stream.set_nodelay(true)?;
                    stream.set_nonblocking(true)?;
                    Ok(stream)
                });
            let Some(link) = self.links.get_mut(i) else {
                continue;
            };
            match dialed {
                Ok(stream) => {
                    link.health.on_connect(Instant::now());
                    link.reader = FrameReader::new(self.cfg.max_frame);
                    link.out = WriteQueue::new(
                        self.cfg.max_frame,
                        self.cfg.max_frame.saturating_mul(OUT_CAP_FRAMES),
                    );
                    if link.out.enqueue(&encode_hello(Addr::Client(me))).is_err() {
                        continue;
                    }
                    link.stream = Some(stream);
                }
                Err(_) => {
                    let delay = link.health.on_dial_failure(&mut self.rng);
                    link.next_attempt = Instant::now() + delay;
                }
            }
        }
    }

    /// Tears down server `i`'s connection. Redial pacing comes from the
    /// link's health score: a long-lived connection that died redials
    /// promptly, while a flapping link keeps its fault streak and backs
    /// off — quarantined out of quorum formation until it stays up.
    fn drop_link(&mut self, i: usize) {
        if let Some(link) = self.links.get_mut(i) {
            if let Some(stream) = link.stream.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            let delay = link.health.on_drop(Instant::now(), &mut self.rng);
            link.next_attempt = Instant::now() + delay;
        }
    }

    /// Fires every protocol timer whose deadline has passed.
    fn fire_due_timers(&mut self) {
        while let Some(Reverse((t, token))) = self.timers.peek().copied() {
            if t > Instant::now() {
                break;
            }
            self.timers.pop();
            let now = self.now();
            let out = self.core.on_timeout(token, now);
            self.apply(out);
        }
    }

    /// Drains every readable link, feeding complete frames through the
    /// state machine. A short read means the socket is empty: the next
    /// pump picks up what arrives later, without a second `read` now just
    /// to hear `WouldBlock`.
    fn read_links(&mut self) {
        for i in 0..self.links.len() {
            // Collect this link's complete messages first, then run them
            // through the core (which may enqueue sends on *other* links).
            let mut inbound: Vec<Msg> = Vec::new();
            let mut alive = true;
            {
                let Some(link) = self.links.get_mut(i) else {
                    continue;
                };
                let Some(stream) = link.stream.as_mut() else {
                    continue;
                };
                'read: loop {
                    match stream.read(&mut self.scratch) {
                        Ok(0) => {
                            alive = false;
                            break;
                        }
                        Ok(n) => {
                            let Some(bytes) = self.scratch.get(..n) else {
                                alive = false;
                                break;
                            };
                            link.reader.ingest(bytes);
                            loop {
                                match link.reader.next_frame() {
                                    Ok(Some(frame)) => match decode_frame_msgs(&frame) {
                                        Ok(msgs) => inbound.extend(msgs),
                                        Err(_) => {
                                            alive = false;
                                            break 'read;
                                        }
                                    },
                                    Ok(None) => break,
                                    Err(_) => {
                                        alive = false;
                                        break 'read;
                                    }
                                }
                            }
                            if n < self.scratch.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            alive = false;
                            break;
                        }
                    }
                }
            }
            if !alive {
                self.drop_link(i);
            }
            let sid = ServerId(u16::try_from(i).unwrap_or(u16::MAX));
            for msg in inbound {
                if matches!(msg, Msg::Shed { .. }) {
                    self.sheds_seen = self.sheds_seen.saturating_add(1);
                }
                let now = self.now();
                let out = self.core.on_message(sid, msg, now);
                self.apply(out);
            }
        }
    }

    /// Flushes every link's write queue as far as the sockets allow.
    fn flush_links(&mut self) {
        let mut dead: Vec<usize> = Vec::new();
        for (i, link) in self.links.iter_mut().enumerate() {
            let Some(stream) = link.stream.as_mut() else {
                continue;
            };
            if link.out.pending() == 0 {
                continue;
            }
            if link.out.flush_to(stream).is_err() {
                dead.push(i);
            }
        }
        for i in dead {
            self.drop_link(i);
        }
    }
}

impl Drop for PipeClient {
    fn drop(&mut self) {
        for link in &mut self.links {
            if let Some(stream) = link.stream.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetCluster;

    /// Hedging compares each pending read's age with this threshold and
    /// nothing else, so "same decisions with and without a cache hit" is
    /// "same threshold": after every sample — through the ring filling
    /// and wrapping — a miss and a hit both equal the uncached sort.
    #[test]
    fn cached_hedge_threshold_equals_the_uncached_percentile_after_every_sample() {
        let nowhere: Vec<SocketAddr> = vec!["127.0.0.1:1".parse().expect("addr"); 4];
        let mut client = NetCluster::connect(nowhere, 1, 1, 7).pipe_client(0);
        let p = 0.95;
        let mut x = 0x9e37_79b9u64;
        for _ in 0..3 * LAT_WINDOW {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            client.record_latency(Duration::from_micros(200 + (x >> 50)));
            let uncached = client.latency_percentile(p);
            assert_eq!(client.hedge_threshold(p), uncached, "miss");
            assert_eq!(client.hedge_threshold(p), uncached, "hit");
        }
    }
}
