//! The serving path: one readiness-driven event loop.
//!
//! A single loop thread owns every socket in non-blocking mode. It blocks
//! in one place — [`WaitSet::wait`], a `ppoll(2)` over the listener, a
//! waker and every live connection — and each tick touches only what that
//! wait reported ready:
//!
//! 1. accept new connections, if the listener is ready;
//! 2. drain the waker and register finished outbound dials (peer dials
//!    run on short-lived helper threads because `std` offers no
//!    non-blocking `connect`, and a slow dial must not stall the loop;
//!    a helper wakes the loop when its result is in the channel);
//! 3. read every *ready* socket, reassemble frames with [`FrameReader`],
//!    and dispatch complete messages through [`ServerNode::handle`] —
//!    pipelining falls out naturally, since every frame on a connection
//!    is processed as it completes without waiting for earlier responses
//!    to be written;
//! 4. fire the gossip timer when due, *enqueueing* the whole fan-out, and
//!    release the group-commit acks whose fsync deadline has passed;
//! 5. flush every connection's [`WriteQueue`] — one coalesced `write`
//!    per readable batch and gossip round instead of a
//!    write+write+flush syscall triple per message;
//! 6. rebuild the wait set and block until a socket is ready, the waker
//!    fires, or the earlier of the gossip and commit deadlines passes.
//!
//! Readiness is level-triggered, which is what makes the loop hard to
//! wedge or spin. A connection that still has bytes after its
//! [`READ_BUDGET`] reports ready again at once, so a chatty (or
//! Byzantine) peer gets the same bounded turn per tick as before and its
//! neighbours are read in between. Writability is asked for *only* while
//! a connection's queue holds bytes: an idle socket is always writable
//! and would turn the wait into a spin; a stalled peer's socket is not
//! writable, so its backlog costs nothing until the peer reads again. The
//! wait set and the slot → connection table are rebuilt after the flush
//! phase of every tick, when every accept, close and insert of the tick
//! has happened, so a slot can never name a connection that was closed
//! or replaced under it; a connection inserted during a tick is first
//! read on the next one.
//!
//! The protocol state machine sits behind a mutex only so the
//! [`crate::NetServer`] handle can inspect it; the loop is its sole
//! writer. Slow or dead peers surface as *silence*: a full write queue
//! drops frames and an unreachable peer just never gets a connection,
//! exactly the failure model the quorum protocols assume.

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
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
use sstore_ready::WaitSet;
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

/// How long the listener stays out of the wait set after `accept` failed
/// with something other than `WouldBlock` (`EMFILE`, say): the pending
/// connection keeps the listener readable, so waiting on it would spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(1);

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
    /// Write end of the waker pair; the loop waits on the read end.
    /// Shared with the dial helpers, which must not keep the rest of this
    /// struct (the node, its store) alive past shutdown.
    waker: Arc<UnixStream>,
    /// Loop iterations so far: what the tests count instead of timing.
    #[cfg(test)]
    ticks: AtomicU64,
    start: Instant,
}

impl EventShared {
    fn now(&self) -> SimTime {
        SimTime::from_micros(u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX))
    }
}

/// Ends the loop's wait: one byte down the waker pair. A full pair means
/// earlier wake-ups are still unread, so the loop is about to run anyway
/// and the lost byte is harmless.
fn wake(mut waker: &UnixStream) {
    let _ = waker.write(&[1]);
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
        wake(&self.shared.waker);
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
    let (waker, waker_rx) = UnixStream::pair()?;
    waker.set_nonblocking(true)?;
    waker_rx.set_nonblocking(true)?;
    let me = node.id();
    let gossip_period = Duration::from_micros(node.gossip_period().as_micros().max(1));
    let shared = Arc::new(EventShared {
        me,
        node: Mutex::new(node),
        stats: Mutex::new(WireStats::new()),
        shutdown: AtomicBool::new(false),
        sheds: AtomicU64::new(0),
        drops: AtomicU64::new(0),
        waker: Arc::new(waker),
        #[cfg(test)]
        ticks: AtomicU64::new(0),
        start: Instant::now(),
    });
    let loop_shared = shared.clone();
    let thread = std::thread::spawn(move || {
        run(loop_shared, listener, waker_rx, peers, cfg, gossip_period);
    });
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
            let waker = self.shared.waker.clone();
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
                wake(&waker);
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
    /// complete frame through the state machine. A short read ends the
    /// turn: the socket is empty, and asking again would cost a syscall
    /// to hear `WouldBlock`; bytes that arrive later make it ready again.
    fn read_conn(&mut self, idx: usize, scratch: &mut [u8]) {
        let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let mut outs: Vec<(Addr, Msg)> = Vec::new();
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
                    if n < scratch.len() {
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
    waker_rx: UnixStream,
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
    // What the previous tick's wait was built from. Empty before the
    // first wait, so the first tick touches no socket.
    let mut wait = WaitSet::new();
    let mut listener_slot: Option<usize> = None;
    let mut waker_slot: Option<usize> = None;
    let mut conn_slots: Vec<(usize, usize)> = Vec::new();
    loop {
        if lp.shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        #[cfg(test)]
        lp.shared.ticks.fetch_add(1, Ordering::Relaxed);

        // 1. Accept.
        let mut accept_failed = false;
        if listener_slot.is_some_and(|s| wait.ready(s)) {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let conn = Conn::new(stream, &lp.cfg);
                        lp.insert(conn);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        accept_failed = true;
                        break;
                    }
                }
            }
        }

        // 2. Waker and finished dials. The bytes carry nothing: a helper
        // sends its result before it writes one, so whatever woke the
        // loop is in the channel by now.
        if waker_slot.is_some_and(|s| wait.ready(s)) {
            while matches!((&waker_rx).read(&mut scratch), Ok(n) if n == scratch.len()) {}
        }
        while let Ok(result) = dial_rx.try_recv() {
            lp.dial_done(result);
        }

        // 3. Read + dispatch what is ready (responses and forwarded
        // messages are enqueued as they are produced — pipelining).
        for &(slot, idx) in &conn_slots {
            if wait.ready(slot) {
                lp.read_conn(idx, &mut scratch);
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
                if conn.out.flush_to(&mut conn.stream).is_err() {
                    dead.push(idx);
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

        // 6. Wait. Writability is asked for only while bytes are queued:
        // a socket with nothing to send is always writable.
        wait.clear();
        conn_slots.clear();
        listener_slot = (!accept_failed).then(|| wait.push(listener.as_raw_fd(), false));
        waker_slot = Some(wait.push(waker_rx.as_raw_fd(), false));
        for (idx, conn) in lp.conns.iter().enumerate() {
            if let Some(conn) = conn {
                let slot = wait.push(conn.stream.as_raw_fd(), conn.out.pending() > 0);
                conn_slots.push((slot, idx));
            }
        }
        let mut timeout = next_gossip.saturating_duration_since(Instant::now());
        if let Some(c) = commit_wait {
            timeout = timeout.min(c);
        }
        if accept_failed {
            timeout = timeout.min(ACCEPT_RETRY);
        }
        // lint:allow(L7): the loop's one blocking call — bounded by the
        // gossip/commit deadline and ended early by any ready socket or
        // the waker, so no request waits behind it. An error (ENOMEM)
        // leaves every slot marked ready: the next tick probes every
        // socket, as the loop did before it had a wait set.
        let _ = wait.wait(timeout);
    }
}

/// Tick counts, not timings: what must hold on a busy CI host is how
/// often the loop runs, which the `cfg(test)` counter reads directly.
#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Shutdown;

    use sstore_core::directory::{generate_client_keys, Directory};
    use sstore_core::types::{ClientId, Consistency, DataId, GroupId, OpId, Timestamp};
    use sstore_core::{ServerConfig, StoreHandle};

    use crate::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME};
    use crate::NetCluster;

    const N: usize = 4;
    const B: usize = 1;
    const CLIENTS: u16 = 2;
    const KEY_SEED: u64 = 0x7ea1;

    /// `N` servers on ephemeral ports that never gossip, so every tick
    /// the tests count comes from a socket, the waker or the timer.
    fn start_quiet(gossip_period: Duration) -> (Vec<EventHandle>, Vec<SocketAddr>) {
        let listeners: Vec<TcpListener> = (0..N)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect();
        let (_, verifying) = generate_client_keys(CLIENTS, KEY_SEED);
        let dir = Directory::new(N, B, verifying);
        let mut cfg = ServerConfig::default();
        cfg.gossip.enabled = false;
        cfg.gossip.period =
            SimTime::from_micros(u64::try_from(gossip_period.as_micros()).expect("period fits"));
        let handles = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| {
                let id = ServerId(u16::try_from(i).expect("small n"));
                let node = ServerNode::new(id, dir.clone(), cfg.clone());
                start(node, l, addrs.clone(), NetServerConfig::default()).expect("start")
            })
            .collect();
        (handles, addrs)
    }

    fn ticks(h: &EventHandle) -> u64 {
        h.shared.ticks.load(Ordering::Relaxed)
    }

    /// Ticks the timer alone accounts for over `elapsed`, plus slack for
    /// the edges of the window and a stray `EINTR`.
    fn timer_ticks(elapsed: Duration, period: Duration) -> u64 {
        u64::try_from(elapsed.as_micros() / period.as_micros()).expect("fits") + 3
    }

    /// A raw client connection that has said hello as client `id`.
    fn raw_client(addr: SocketAddr, id: u16) -> TcpStream {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_nodelay(true).expect("nodelay");
        let hello = encode_hello(Addr::Client(ClientId(id)));
        write_frame(&mut s, &hello, DEFAULT_MAX_FRAME).expect("hello");
        s
    }

    fn send(s: &mut TcpStream, msg: &Msg) {
        let bytes = sstore_core::codec::encode_msg(msg);
        write_frame(s, &bytes, DEFAULT_MAX_FRAME).expect("request");
    }

    fn recv(s: &mut TcpStream) -> Vec<Msg> {
        let frame = read_frame(s, DEFAULT_MAX_FRAME).expect("response frame");
        decode_frame_msgs(&frame).expect("response decodes")
    }

    fn shutdown_all(handles: Vec<EventHandle>) {
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn idle_server_ticks_at_the_timer_rate_even_with_an_idle_connection() {
        let period = Duration::from_millis(100);
        let (handles, addrs) = start_quiet(period);
        let server = handles.first().expect("a server");
        // An idle, hello'd client: its socket is writable the whole time,
        // so asking for writability with nothing queued would spin here.
        let mut idle = raw_client(*addrs.first().expect("addr"), 1);
        send(
            &mut idle,
            &Msg::TsQueryReq {
                op: OpId(1),
                data: DataId(1),
            },
        );
        assert_eq!(recv(&mut idle).len(), 1, "connection is registered");

        let before = ticks(server);
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(500));
        let spent = ticks(server) - before;
        let allowed = timer_ticks(t0.elapsed(), period);
        assert!(
            spent <= allowed,
            "{spent} ticks idle, timer explains {allowed}"
        );
        shutdown_all(handles);
    }

    #[test]
    fn shutdown_of_an_idle_server_does_not_wait_for_the_timer() {
        // Only the waker can end this wait early: the timer is 30 s away.
        let (handles, _) = start_quiet(Duration::from_secs(30));
        std::thread::sleep(Duration::from_millis(50)); // let the loops block
        let t0 = Instant::now();
        shutdown_all(handles);
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(50), "four joins took {took:?}");
    }

    #[test]
    fn request_right_behind_the_hello_is_answered() {
        let (handles, addrs) = start_quiet(Duration::from_secs(30));
        // Hello and request are on the wire before the loop has seen the
        // connection: accepted in one tick, read in the next, with no
        // timer due for 30 s to paper over a missed wake-up.
        let mut s = raw_client(*addrs.first().expect("addr"), 1);
        send(
            &mut s,
            &Msg::TsQueryReq {
                op: OpId(7),
                data: DataId(1),
            },
        );
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let got = recv(&mut s);
        assert!(
            matches!(got.as_slice(), [Msg::TsQueryResp { op: OpId(7), .. }]),
            "{got:?}"
        );
        shutdown_all(handles);
    }

    #[test]
    fn client_that_stops_reading_does_not_raise_the_tick_rate() {
        const VALUE: usize = 256 * 1024;
        const READS: u64 = 64;
        let period = Duration::from_millis(100);
        let (handles, addrs) = start_quiet(period);
        let g = GroupId(1);
        {
            let cluster = NetCluster::connect(addrs.clone(), B, CLIENTS, KEY_SEED);
            let mut writer = cluster.client(0);
            writer.connect(g, false).expect("connect");
            writer
                .write(DataId(1), g, Consistency::Mrc, vec![0xab; VALUE])
                .expect("write");
        }
        // The write went to a quorum and nothing gossips: stall against a
        // server that holds it.
        let (server, addr) = handles
            .iter()
            .zip(&addrs)
            .find(|(h, _)| locked(&h.shared.node).item(DataId(1)).is_some())
            .expect("a quorum stored the write");

        // 16 MiB of responses to a client that reads none of them: more
        // than the two kernel buffers between them hold, so the server is
        // left with bytes queued on a socket that is not writable.
        let mut stalled = raw_client(*addr, 1);
        for op in 0..READS {
            send(
                &mut stalled,
                &Msg::ReadReq {
                    op: OpId(op),
                    data: DataId(1),
                    ts: Timestamp::Version(1),
                },
            );
        }
        std::thread::sleep(Duration::from_millis(300)); // requests handled, buffers full

        let before = ticks(server);
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(500));
        let spent = ticks(server) - before;
        let allowed = timer_ticks(t0.elapsed(), period);
        assert!(
            spent <= allowed,
            "{spent} ticks with a stalled client, timer explains {allowed}"
        );

        // Once the client reads again, writability wakes the loop and the
        // whole backlog arrives.
        stalled
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        let mut answered = 0;
        while answered < READS {
            for msg in recv(&mut stalled) {
                match msg {
                    Msg::ReadResp {
                        item: Some(item), ..
                    } => assert_eq!(item.value.len(), VALUE),
                    other => panic!("unexpected {other:?}"),
                }
                answered += 1;
            }
        }
        let _ = stalled.shutdown(Shutdown::Both);
        shutdown_all(handles);
    }
}
