//! The serving path: one readiness-driven event loop.
//!
//! A single loop thread owns every socket in non-blocking mode and
//! round-robins readiness:
//!
//! 1. accept new connections;
//! 2. register finished outbound dials (peer dials run on short-lived
//!    helper threads because `std` offers no non-blocking `connect`, and
//!    a slow dial must not stall the loop);
//! 3. read every readable socket, reassemble frames with
//!    [`FrameReader`], and dispatch complete messages through
//!    [`ServerNode::handle`] — pipelining falls out naturally, since
//!    every frame on a connection is processed as it completes without
//!    waiting for earlier responses to be written;
//! 4. fire the gossip timer when due, *enqueueing* the whole fan-out;
//! 5. flush every connection's [`WriteQueue`] — one coalesced `write`
//!    per readable batch and gossip round instead of a
//!    write+write+flush syscall triple per message;
//! 6. sleep briefly only when nothing progressed.
//!
//! The protocol state machine sits behind a mutex only so the
//! [`crate::NetServer`] handle can inspect it; the loop is its sole
//! writer. Slow or dead peers surface as *silence*: a full write queue
//! drops frames and an unreachable peer just never gets a connection,
//! exactly the failure model the quorum protocols assume.

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sstore_core::codec::decode_frame_msgs;
use sstore_core::metrics::WireStats;
use sstore_core::server::{Addr, ServerNode};
use sstore_core::types::ServerId;
use sstore_core::wire::Msg;
use sstore_simnet::SimTime;

use crate::backoff::Backoff;
use crate::coalesce::Coalescer;
use crate::conn::{FrameReader, WriteQueue};
use crate::frame::{decode_hello, encode_hello};
use crate::server::{locked, NetServerConfig};

/// Read budget per connection per loop tick: bounds how long one chatty
/// connection can monopolize the loop before its neighbours get a turn.
const READ_BUDGET: usize = 8;

/// Scratch read-buffer size.
const SCRATCH: usize = 64 * 1024;

/// Cap on messages buffered for a peer whose dial is still in flight.
const DIAL_QUEUE_CAP: usize = 1024;

/// Per-connection write-queue cap, as a multiple of the frame cap.
const OUT_CAP_FRAMES: usize = 4;

/// Longest nap when a tick made no progress (bounds shutdown and accept
/// latency, not throughput).
const IDLE_NAP: Duration = Duration::from_millis(1);

/// Write-queue high-water mark, as a multiple of the frame cap: once a
/// client connection's queue holds this much, further requests from it
/// are answered with [`Msg::Shed`] instead of being processed — explicit
/// overload, distinguishable from Byzantine silence, cheap enough (one
/// header-sized reply) to send from an overloaded server.
const SHED_HIGH_WATER_FRAMES: usize = 2;

/// State shared between the loop thread and the [`crate::NetServer`]
/// handle.
pub(crate) struct EventShared {
    pub(crate) me: ServerId,
    pub(crate) node: Mutex<ServerNode>,
    pub(crate) stats: Mutex<WireStats>,
    pub(crate) shutdown: AtomicBool,
    /// Requests refused with an explicit [`Msg::Shed`] reply.
    pub(crate) sheds: AtomicU64,
    /// Frames dropped at write-queue backpressure caps (live + closed
    /// connections; refreshed by the loop each flush).
    pub(crate) drops: AtomicU64,
    start: Instant,
}

impl EventShared {
    fn now(&self) -> SimTime {
        SimTime::from_micros(u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX))
    }
}

/// Handle on a running event loop.
pub(crate) struct EventHandle {
    pub(crate) shared: Arc<EventShared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl EventHandle {
    /// Signals the loop to stop and joins it; every socket closes when
    /// the loop's state drops.
    pub(crate) fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let handle = locked(&self.thread).take();
        if let Some(h) = handle {
            // lint:allow(L7): runs on the caller's thread tearing the loop
            // down, never on the loop itself — the loop cannot join itself.
            let _ = h.join();
        }
    }
}

/// Starts the event loop serving `node` on `listener`.
pub(crate) fn start(
    node: ServerNode,
    listener: TcpListener,
    peers: Vec<SocketAddr>,
    cfg: NetServerConfig,
) -> io::Result<EventHandle> {
    listener.set_nonblocking(true)?;
    let me = node.id();
    let gossip_period = Duration::from_micros(node.gossip_period().as_micros().max(1));
    let shared = Arc::new(EventShared {
        me,
        node: Mutex::new(node),
        stats: Mutex::new(WireStats::new()),
        shutdown: AtomicBool::new(false),
        sheds: AtomicU64::new(0),
        drops: AtomicU64::new(0),
        start: Instant::now(),
    });
    let loop_shared = shared.clone();
    let thread = std::thread::spawn(move || run(loop_shared, listener, peers, cfg, gossip_period));
    Ok(EventHandle {
        shared,
        thread: Mutex::new(Some(thread)),
    })
}

/// One live connection owned by the loop.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: WriteQueue,
    /// Messages staged this tick, packed into coalesced multi-message
    /// frames at flush time.
    staged: Coalescer,
    /// Routing identity; `None` until the inbound hello arrives
    /// (outbound peer links know it at dial time).
    addr: Option<Addr>,
}

impl Conn {
    fn new(stream: TcpStream, cfg: &NetServerConfig) -> Conn {
        Conn {
            stream,
            reader: FrameReader::new(cfg.max_frame),
            out: WriteQueue::new(cfg.max_frame, cfg.max_frame.saturating_mul(OUT_CAP_FRAMES)),
            staged: Coalescer::new(),
            addr: None,
        }
    }
}

/// Redial state for one peer server.
struct PeerDial {
    backoff: Backoff,
    next_attempt: Instant,
    /// A helper thread is currently dialing; don't start another.
    inflight: bool,
    /// Messages awaiting the connection (bounded; overflow is silence).
    queued: Vec<Msg>,
}

enum DialResult {
    Up(ServerId, TcpStream),
    Down(ServerId),
}

/// Everything the loop owns; split out so helpers can borrow it whole.
struct Loop {
    shared: Arc<EventShared>,
    cfg: NetServerConfig,
    peers: Vec<SocketAddr>,
    conns: Vec<Option<Conn>>,
    routes: HashMap<Addr, usize>,
    dials: HashMap<ServerId, PeerDial>,
    dial_tx: mpsc::Sender<DialResult>,
    rng: StdRng,
    /// Backpressure drops carried over from closed connections.
    drops_retired: u64,
}

impl Loop {
    /// Stores `conn` in the first free slot and returns its index.
    fn insert(&mut self, conn: Conn) -> usize {
        for (i, slot) in self.conns.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(conn);
                return i;
            }
        }
        self.conns.push(Some(conn));
        self.conns.len().saturating_sub(1)
    }

    /// Closes connection `idx`, dropping its route if it still owns it.
    fn close(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        self.drops_retired = self.drops_retired.saturating_add(conn.out.dropped());
        if let Some(addr) = conn.addr {
            if self.routes.get(&addr) == Some(&idx) {
                self.routes.remove(&addr);
            }
        }
        // Dropping `conn` closes the socket.
    }

    /// Stages one message on connection `idx`; the flush phase packs the
    /// tick's staged messages into coalesced frames. Frames the write
    /// queue cannot take are dropped — backpressure surfaces as silence.
    fn enqueue(&mut self, idx: usize, msg: Msg) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        conn.staged.stage(msg);
    }

    /// Routes one state-machine output: direct to a live connection,
    /// else (for peer servers) onto the dial queue; vanished clients are
    /// silence.
    fn route(&mut self, to: Addr, msg: Msg) {
        if let Some(&idx) = self.routes.get(&to) {
            self.enqueue(idx, msg);
            return;
        }
        let Addr::Server(peer) = to else {
            return; // client went away; nothing to do
        };
        if peer == self.shared.me {
            return;
        }
        let Some(&addr) = self.peers.get(usize::from(peer.0)) else {
            return;
        };
        let dial = self.dials.entry(peer).or_insert_with(|| PeerDial {
            backoff: Backoff::new(self.cfg.backoff_min, self.cfg.backoff_max),
            next_attempt: Instant::now(),
            inflight: false,
            queued: Vec::new(),
        });
        if dial.queued.len() < DIAL_QUEUE_CAP {
            dial.queued.push(msg);
        }
        if !dial.inflight && Instant::now() >= dial.next_attempt {
            dial.inflight = true;
            let tx = self.dial_tx.clone();
            let timeout = self.cfg.connect_timeout;
            std::thread::spawn(move || {
                let result = match TcpStream::connect_timeout(&addr, timeout) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        DialResult::Up(peer, stream)
                    }
                    Err(_) => DialResult::Down(peer),
                };
                let _ = tx.send(result);
            });
        }
    }

    /// Registers a finished outbound dial.
    fn dial_done(&mut self, result: DialResult) {
        match result {
            DialResult::Up(peer, stream) => {
                if stream.set_nonblocking(true).is_err() {
                    self.dial_done(DialResult::Down(peer));
                    return;
                }
                let mut conn = Conn::new(stream, &self.cfg);
                conn.addr = Some(Addr::Server(peer));
                if conn
                    .out
                    .enqueue(&encode_hello(Addr::Server(self.shared.me)))
                    .is_err()
                {
                    return;
                }
                let idx = self.insert(conn);
                self.routes.insert(Addr::Server(peer), idx);
                let queued = match self.dials.get_mut(&peer) {
                    Some(dial) => {
                        dial.inflight = false;
                        dial.backoff.reset();
                        std::mem::take(&mut dial.queued)
                    }
                    None => Vec::new(),
                };
                for msg in queued {
                    self.enqueue(idx, msg);
                }
            }
            DialResult::Down(peer) => {
                if let Some(dial) = self.dials.get_mut(&peer) {
                    dial.inflight = false;
                    dial.queued.clear(); // unreachable peer: silence
                    let delay = dial.backoff.next_delay(&mut self.rng);
                    dial.next_attempt = Instant::now() + delay;
                }
            }
        }
    }

    /// Drains readable bytes from connection `idx`, dispatching every
    /// complete frame through the state machine. Returns whether any
    /// byte arrived.
    fn read_conn(&mut self, idx: usize, scratch: &mut [u8]) -> bool {
        let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return false;
        };
        let mut outs: Vec<(Addr, Msg)> = Vec::new();
        let mut progressed = false;
        let mut alive = true;
        let mut budget = READ_BUDGET;
        'read: while budget > 0 {
            budget -= 1;
            match conn.stream.read(scratch) {
                Ok(0) => {
                    alive = false;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    let Some(bytes) = scratch.get(..n) else {
                        alive = false;
                        break;
                    };
                    conn.reader.ingest(bytes);
                    loop {
                        match conn.reader.next_frame() {
                            Ok(Some(frame)) => {
                                if !self.dispatch(&mut conn, idx, &frame, &mut outs) {
                                    alive = false;
                                    break 'read;
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                // Oversized announcement: protocol
                                // violation, drop the connection.
                                alive = false;
                                break 'read;
                            }
                        }
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
        if let Some(slot) = self.conns.get_mut(idx) {
            *slot = Some(conn);
        }
        if !alive {
            self.close(idx);
        }
        // Route only after the connection is back in (or out of) the
        // slab, so replies to the sender itself find it by route.
        for (to, msg) in outs {
            self.route(to, msg);
        }
        progressed
    }

    /// Handles one complete frame on `conn`: the first must be a hello,
    /// the rest are protocol messages — possibly several per frame, when
    /// the peer coalesced. Returns `false` on a protocol violation
    /// (caller drops the connection).
    fn dispatch(
        &mut self,
        conn: &mut Conn,
        idx: usize,
        frame: &[u8],
        outs: &mut Vec<(Addr, Msg)>,
    ) -> bool {
        match conn.addr {
            None => match decode_hello(frame) {
                Ok(addr) => {
                    conn.addr = Some(addr);
                    // Last hello wins: a reconnecting party replaces its
                    // route.
                    self.routes.insert(addr, idx);
                    true
                }
                Err(_) => false,
            },
            Some(from) => match decode_frame_msgs(frame) {
                Ok(msgs) => {
                    let now = self.shared.now();
                    // Overload check *before* handling: once this client
                    // connection's write queue crosses the high-water
                    // mark, processing more of its requests only deepens
                    // the backlog (and the replies would be dropped at
                    // the cap anyway — Byzantine silence from the
                    // client's view). An explicit shed is attributable:
                    // the client escalates to another server at once.
                    let overloaded = matches!(from, Addr::Client(_))
                        && conn.out.pending()
                            >= self.cfg.max_frame.saturating_mul(SHED_HIGH_WATER_FRAMES);
                    let mut node = locked(&self.shared.node);
                    for msg in msgs {
                        if overloaded {
                            if let Some(op) = msg.op() {
                                self.shared.sheds.fetch_add(1, Ordering::Relaxed);
                                outs.push((from, Msg::Shed { op }));
                                continue;
                            }
                        }
                        outs.extend(node.handle(from, msg, now));
                    }
                    true
                }
                Err(_) => false,
            },
        }
    }
}

/// The loop body. Runs until shutdown; dropping the state closes every
/// socket.
fn run(
    shared: Arc<EventShared>,
    listener: TcpListener,
    peers: Vec<SocketAddr>,
    cfg: NetServerConfig,
    gossip_period: Duration,
) {
    let me = shared.me;
    let (dial_tx, dial_rx) = mpsc::channel();
    let mut lp = Loop {
        shared,
        cfg,
        peers,
        conns: Vec::new(),
        routes: HashMap::new(),
        dials: HashMap::new(),
        dial_tx,
        rng: StdRng::seed_from_u64(0xbeef ^ u64::from(me.0)),
        drops_retired: 0,
    };
    let mut scratch = vec![0u8; SCRATCH];
    let mut next_gossip = Instant::now() + gossip_period;
    loop {
        if lp.shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let mut progressed = false;

        // 1. Accept.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let conn = Conn::new(stream, &lp.cfg);
                    lp.insert(conn);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // 2. Finished dials.
        while let Ok(result) = dial_rx.try_recv() {
            lp.dial_done(result);
            progressed = true;
        }

        // 3. Read + dispatch (responses and forwarded messages are
        // enqueued as they are produced — pipelining).
        for idx in 0..lp.conns.len() {
            if lp.read_conn(idx, &mut scratch) {
                progressed = true;
            }
        }

        // 4. Gossip timer: the whole fan-out is enqueued here and hits
        // the sockets in one flush below (batched gossip).
        let now = Instant::now();
        if now >= next_gossip {
            next_gossip = now + gossip_period;
            let sim_now = lp.shared.now();
            let outs = locked(&lp.shared.node).on_gossip_timer(sim_now, &mut lp.rng);
            for (to, msg) in outs {
                lp.route(to, msg);
            }
            progressed = true;
        }

        // 4b. Group-commit flush: sync the store once the deferred-ack
        // window's deadline passes and release the held acks. Under any
        // other fsync policy this is a no-op returning nothing.
        let commit_wait: Option<Duration> = {
            let sim_now = lp.shared.now();
            let (commits, deadline) = {
                let mut node = locked(&lp.shared.node);
                let commits = node.flush_commits(sim_now, false);
                (commits, node.pending_commit_deadline())
            };
            if !commits.is_empty() {
                progressed = true;
            }
            for (to, msg) in commits {
                lp.route(to, msg);
            }
            deadline.map(|d| Duration::from_micros(d.saturating_sub(sim_now).as_micros()))
        };

        // 5. Flush: pack each connection's staged messages into coalesced
        // frames, then write every queue in one batch.
        let mut dead: Vec<usize> = Vec::new();
        {
            let mut stats = locked(&lp.shared.stats);
            for (idx, slot) in lp.conns.iter_mut().enumerate() {
                let Some(conn) = slot.as_mut() else { continue };
                conn.staged
                    .drain_into(&mut conn.out, lp.cfg.max_frame, &mut stats);
                if conn.out.pending() == 0 {
                    continue;
                }
                match conn.out.flush_to(&mut conn.stream) {
                    Ok(n) => {
                        if n > 0 {
                            progressed = true;
                        }
                    }
                    Err(_) => dead.push(idx),
                }
            }
        }
        for idx in dead {
            lp.close(idx);
        }
        let live_drops: u64 = lp
            .conns
            .iter()
            .flatten()
            .map(|c| c.out.dropped())
            .fold(0, u64::saturating_add);
        lp.shared.drops.store(
            lp.drops_retired.saturating_add(live_drops),
            Ordering::Relaxed,
        );

        // 6. Idle wait, bounded by the gossip and group-commit deadlines.
        if !progressed {
            let mut wait = next_gossip.saturating_duration_since(Instant::now());
            if let Some(c) = commit_wait {
                wait = wait.min(c);
            }
            // lint:allow(L7): bounded idle wait (≤ IDLE_NAP, capped by the
            // gossip/commit deadlines) taken only when no socket made
            // progress this tick — never on a request-bearing path.
            std::thread::sleep(IDLE_NAP.min(wait.max(Duration::from_micros(50))));
        }
    }
}
