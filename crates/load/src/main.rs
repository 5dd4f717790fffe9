//! `sstore-load`: sustained-load benchmark rig for the TCP serving path.
//!
//! ```text
//! # self-hosted n=4/b=1 cluster on loopback, 1024 closed-loop sessions:
//! sstore-load --sessions 1024 --workers 4 --duration 10
//!
//! # open-loop at a target arrival rate against an external cluster:
//! sstore-load --servers 10.0.0.1:7450,10.0.0.2:7450,... --b 1 \
//!     --mode open --rate 20000
//! ```
//!
//! Each of `--workers` threads drives one pipelining
//! [`sstore_net::PipeClient`] (one protocol client, one socket per
//! server) multiplexing its share of `--sessions` logical sessions. A
//! session issues one operation at a time: a group drawn from `--dist`
//! (zipfian by default — real workloads have hot groups), then a read or
//! write per `--read-pct`. The first operation on a `(session, group)`
//! pair is always a write so later reads have something to find, and
//! every session's data ids are private to it, preserving the protocol's
//! single-writer-per-item rule.
//!
//! Two load modes: `closed` (every session keeps exactly one operation
//! in flight — the saturation throughput measure) and `open` (operations
//! arrive at `--rate` per second regardless of completions; arrivals
//! finding no free session are counted as shed, and latency is measured
//! from the *intended* arrival time, avoiding coordinated omission).
//!
//! Results — throughput plus p50/p99/p999/max/mean latency from
//! HDR-style histograms, split by read/write — print as a summary table
//! and append as one JSON entry to `BENCH_protocol.json` at the repo
//! root (same append-only convention as `BENCH_crypto.json`), so the
//! serving path's perf history accumulates alongside the crypto one.
//!
//! Without `--servers`, the rig self-hosts an `--n`-server cluster on
//! loopback ephemeral ports. External servers must be started with
//! matching `--clients ≥ workers` and `--key-seed`.
//!
//! `--batching on|off` (default on) toggles the hot-path amortizations
//! this rig can reach: with `on`, self-hosted servers send the full
//! anti-entropy summary only every 4th gossip round and client submits
//! stay staged until the next pump (one coalesced frame per burst);
//! with `off`, every gossip round summarizes and every submit is
//! flushed to the sockets immediately — one frame per operation, the
//! pre-batching wire behavior. Self-hosted load servers keep no durable
//! store, so the group-commit fsync leg is exercised by the chaos rig
//! (`sstore-chaos --fsync group-commit:N:USEC`), not here.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::process::exit;
use std::thread;
use std::time::{Duration, Instant, SystemTime};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sstore_core::client::{ClientOp, OpResult, Outcome};
use sstore_core::directory::{generate_client_keys, Directory};
use sstore_core::types::{Consistency, DataId, GroupId, OpId, ServerId};
use sstore_core::{ClientConfig, ServerConfig, ServerNode};
use sstore_load::hist::Histogram;
use sstore_load::pick::{Dist, Selector};
use sstore_net::{NetClientConfig, NetCluster, NetServer, NetServerConfig, PipeClient};

const USAGE: &str = "usage: sstore-load [--servers A,B,C,... | --n N] [--b B]
    [--sessions S] [--workers W] [--duration SECS] [--warmup SECS]
    [--read-pct PCT] [--dist uniform|zipf|zipf:SKEW] [--groups G]
    [--value-bytes BYTES] [--consistency mrc|cc]
    [--mode closed|open] [--rate OPS_PER_SEC]
    [--batching on|off]
    [--clients N] [--key-seed SEED] [--seed SEED]
    [--out PATH] [--note STR] [--no-append] [--fail-on-error]";

struct Args {
    servers: Option<Vec<SocketAddr>>,
    n: usize,
    b: usize,
    sessions: usize,
    workers: usize,
    duration: Duration,
    warmup: Duration,
    read_pct: u32,
    dist: Dist,
    groups: u32,
    value_bytes: usize,
    consistency: Consistency,
    mode: Mode,
    rate: f64,
    batching: bool,
    clients: u16,
    key_seed: u64,
    seed: u64,
    out: String,
    note: String,
    append: bool,
    fail_on_error: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Closed,
    Open,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Closed => "closed",
            Mode::Open => "open",
        }
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        servers: None,
        n: 4,
        b: 1,
        sessions: 1024,
        workers: 4,
        duration: Duration::from_secs(10),
        warmup: Duration::from_secs(2),
        read_pct: 90,
        dist: Dist::Zipf(1.1),
        groups: 64,
        value_bytes: 128,
        consistency: Consistency::Mrc,
        mode: Mode::Closed,
        rate: 0.0,
        batching: true,
        clients: 8,
        key_seed: 0x7ea1,
        seed: 0x10ad,
        out: String::new(),
        note: String::new(),
        append: true,
        fail_on_error: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        // Value-less switches first.
        match flag.as_str() {
            "--no-append" => {
                args.append = false;
                continue;
            }
            "--fail-on-error" => {
                args.fail_on_error = true;
                continue;
            }
            "--help" | "-h" => return Err("help requested".to_string()),
            _ => {}
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--servers" => {
                let parsed: Result<Vec<SocketAddr>, _> = value.split(',').map(str::parse).collect();
                args.servers = Some(parsed.map_err(|_| "bad --servers")?);
            }
            "--n" => args.n = value.parse().map_err(|_| "bad --n")?,
            "--b" => args.b = value.parse().map_err(|_| "bad --b")?,
            "--sessions" => args.sessions = value.parse().map_err(|_| "bad --sessions")?,
            "--workers" => args.workers = value.parse().map_err(|_| "bad --workers")?,
            "--duration" => {
                args.duration = Duration::from_secs_f64(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .ok_or("bad --duration")?,
                )
            }
            "--warmup" => {
                args.warmup = Duration::from_secs_f64(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s >= 0.0)
                        .ok_or("bad --warmup")?,
                )
            }
            "--read-pct" => {
                args.read_pct = value
                    .parse()
                    .ok()
                    .filter(|p| *p <= 100)
                    .ok_or("bad --read-pct (0..=100)")?
            }
            "--dist" => args.dist = Dist::parse(&value).ok_or("bad --dist")?,
            "--groups" => {
                args.groups = value
                    .parse()
                    .ok()
                    .filter(|g| *g > 0 && *g <= (1 << 20))
                    .ok_or("bad --groups (1..=2^20)")?
            }
            "--value-bytes" => args.value_bytes = value.parse().map_err(|_| "bad --value-bytes")?,
            "--consistency" => {
                args.consistency = match value.as_str() {
                    "mrc" => Consistency::Mrc,
                    "cc" => Consistency::Cc,
                    _ => return Err("bad --consistency (mrc|cc)".to_string()),
                }
            }
            "--mode" => {
                args.mode = match value.as_str() {
                    "closed" => Mode::Closed,
                    "open" => Mode::Open,
                    _ => return Err("bad --mode (closed|open)".to_string()),
                }
            }
            "--rate" => {
                args.rate = value
                    .parse()
                    .ok()
                    .filter(|r: &f64| *r > 0.0)
                    .ok_or("bad --rate")?
            }
            "--batching" => {
                args.batching = match value.as_str() {
                    "on" => true,
                    "off" => false,
                    _ => return Err("bad --batching (on|off)".to_string()),
                }
            }
            "--clients" => args.clients = value.parse().map_err(|_| "bad --clients")?,
            "--key-seed" => args.key_seed = parse_u64(&value).ok_or("bad --key-seed")?,
            "--seed" => args.seed = parse_u64(&value).ok_or("bad --seed")?,
            "--out" => args.out = value,
            "--note" => args.note = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.sessions == 0 || args.workers == 0 {
        return Err("--sessions and --workers must be nonzero".to_string());
    }
    if args.sessions > (1 << 24) {
        return Err("--sessions above 2^24 unsupported".to_string());
    }
    if args.workers > usize::from(args.clients) {
        return Err("--workers must not exceed --clients (one protocol client each)".to_string());
    }
    if args.mode == Mode::Open && args.rate <= 0.0 {
        return Err("--mode open needs --rate".to_string());
    }
    if args.out.is_empty() {
        args.out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_protocol.json").to_string();
    }
    Ok(args)
}

/// One worker's share of the run.
struct WorkerCfg {
    worker: u16,
    sessions: usize,
    groups: u32,
    read_pct: u32,
    dist: Dist,
    value: Vec<u8>,
    consistency: Consistency,
    mode: Mode,
    /// `false` forces a socket flush after every submit (no coalescing).
    batching: bool,
    /// Target arrivals per second for this worker (open mode).
    rate: f64,
    /// Shared run epoch, so all workers' windows align.
    t0: Instant,
    warmup: Duration,
    duration: Duration,
    seed: u64,
}

#[derive(Default)]
struct WorkerStats {
    read: Histogram,
    write: Histogram,
    ops: u64,
    err_unavailable: u64,
    err_stale: u64,
    err_faulty: u64,
    shed: u64,
    connect_failures: u64,
    /// `Msg::Shed` overload replies observed by this worker's client.
    server_sheds: u64,
    /// Hedged read rounds issued by the client resilience layer.
    hedges: u64,
    /// Operations surfaced as `Unavailable` by per-op deadline expiry.
    expired: u64,
}

impl WorkerStats {
    fn merge(&mut self, other: &WorkerStats) {
        self.read.merge(&other.read);
        self.write.merge(&other.write);
        self.ops += other.ops;
        self.err_unavailable += other.err_unavailable;
        self.err_stale += other.err_stale;
        self.err_faulty += other.err_faulty;
        self.shed += other.shed;
        self.connect_failures += other.connect_failures;
        self.server_sheds += other.server_sheds;
        self.hedges += other.hedges;
        self.expired += other.expired;
    }

    fn errors(&self) -> u64 {
        self.err_unavailable + self.err_stale + self.err_faulty
    }
}

/// An operation in flight: which session issued it and when its latency
/// clock started (submission for closed loop, intended arrival for open).
struct Pending {
    session: usize,
    read: bool,
    t0: Instant,
}

/// Establishes a session on every group, retrying failed connects a
/// couple of times before counting them as failures.
fn connect_groups(client: &mut PipeClient, groups: u32, stats: &mut WorkerStats) {
    let mut todo: Vec<GroupId> = (0..groups).map(GroupId).collect();
    for _round in 0..3 {
        if todo.is_empty() {
            return;
        }
        let mut waiting: HashMap<OpId, GroupId> = HashMap::new();
        for group in todo.drain(..) {
            let op = client.submit(ClientOp::Connect {
                group,
                recover: false,
            });
            waiting.insert(op, group);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while !waiting.is_empty() && Instant::now() < deadline {
            let slice = deadline.min(Instant::now() + Duration::from_millis(5));
            for done in client.pump_until(slice) {
                if let Some(group) = waiting.remove(&done.op) {
                    if !done.outcome.is_ok() {
                        todo.push(group);
                    }
                }
            }
        }
        // Connects still in flight at the deadline stay with the client;
        // retry their groups rather than waiting forever.
        todo.extend(waiting.into_values());
    }
    stats.connect_failures += todo.len() as u64;
}

fn run_worker(mut client: PipeClient, cfg: WorkerCfg) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x10ad << 16) ^ u64::from(cfg.worker));
    let selector = Selector::new(cfg.groups as usize, cfg.dist);

    connect_groups(&mut client, cfg.groups, &mut stats);

    let warmup_end = cfg.t0 + cfg.warmup;
    let end = warmup_end + cfg.duration;
    let mut free: Vec<usize> = (0..cfg.sessions).rev().collect();
    let mut inflight: HashMap<OpId, Pending> = HashMap::new();
    // (group, session) pairs that have been written at least once and so
    // are eligible for reads.
    let mut seeded: HashMap<(u32, usize), bool> = HashMap::new();
    let interval = if cfg.rate > 0.0 {
        Duration::from_secs_f64(1.0 / cfg.rate)
    } else {
        Duration::ZERO
    };
    let mut next_arrival = Instant::now();

    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        match cfg.mode {
            Mode::Closed => {
                while let Some(session) = free.pop() {
                    submit_op(
                        &mut client,
                        &cfg,
                        &selector,
                        &mut rng,
                        &mut seeded,
                        &mut inflight,
                        session,
                        Instant::now(),
                    );
                }
            }
            Mode::Open => {
                while next_arrival <= now {
                    if let Some(session) = free.pop() {
                        submit_op(
                            &mut client,
                            &cfg,
                            &selector,
                            &mut rng,
                            &mut seeded,
                            &mut inflight,
                            session,
                            next_arrival,
                        );
                    } else if now >= warmup_end {
                        stats.shed += 1;
                    }
                    next_arrival += interval;
                }
            }
        }
        let wake = match cfg.mode {
            Mode::Closed => now + Duration::from_millis(1),
            Mode::Open => next_arrival,
        };
        for done in client.pump_until(wake.min(end)) {
            complete(done, &mut inflight, &mut free, &mut stats, warmup_end, end);
        }
    }

    // Drain without recording so sockets close gracefully.
    let grace = Instant::now() + Duration::from_secs(2);
    while client.inflight() > 0 && Instant::now() < grace {
        for done in client.pump_until(Instant::now() + Duration::from_millis(5)) {
            complete(done, &mut inflight, &mut free, &mut stats, warmup_end, end);
        }
    }
    stats.server_sheds = client.sheds_seen();
    stats.hedges = client.hedges();
    stats.expired = client.expired();
    stats
}

#[allow(clippy::too_many_arguments)]
fn submit_op(
    client: &mut PipeClient,
    cfg: &WorkerCfg,
    selector: &Selector,
    rng: &mut StdRng,
    seeded: &mut HashMap<(u32, usize), bool>,
    inflight: &mut HashMap<OpId, Pending>,
    session: usize,
    t0: Instant,
) {
    let g = selector.pick(rng) as u32;
    let group = GroupId(g);
    // Data ids are partitioned (worker | group | session) so every item
    // has exactly one writer, as the single-writer protocol requires.
    let data =
        DataId((u64::from(cfg.worker) << 44) | (u64::from(g) << 24) | (session as u64 & 0xff_ffff));
    let is_seeded = seeded.contains_key(&(g, session));
    let read = is_seeded && rng.gen_range(0..100u32) < cfg.read_pct;
    let op = if read {
        ClientOp::Read {
            data,
            group,
            consistency: cfg.consistency,
        }
    } else {
        seeded.insert((g, session), true);
        ClientOp::Write {
            data,
            group,
            consistency: cfg.consistency,
            value: cfg.value.clone(),
        }
    };
    let op_id = client.submit(op);
    if !cfg.batching {
        client.flush();
    }
    inflight.insert(op_id, Pending { session, read, t0 });
}

fn complete(
    done: OpResult,
    inflight: &mut HashMap<OpId, Pending>,
    free: &mut Vec<usize>,
    stats: &mut WorkerStats,
    warmup_end: Instant,
    end: Instant,
) {
    let Some(pending) = inflight.remove(&done.op) else {
        return; // stray connect-phase completion
    };
    free.push(pending.session);
    let now = Instant::now();
    if now < warmup_end || now >= end {
        return;
    }
    match done.outcome {
        Outcome::Unavailable => stats.err_unavailable += 1,
        Outcome::Stale { .. } => stats.err_stale += 1,
        Outcome::FaultyWriterDetected { .. } => stats.err_faulty += 1,
        _ => {
            let us = u64::try_from(now.duration_since(pending.t0).as_micros()).unwrap_or(u64::MAX);
            stats.ops += 1;
            if pending.read {
                stats.read.record(us);
            } else {
                stats.write.record(us);
            }
        }
    }
}

/// Binds `n` ephemeral loopback listeners, then starts one server per
/// listener (every server needs the full address list first).
fn start_servers(args: &Args) -> (Vec<NetServer>, Vec<SocketAddr>) {
    let listeners: Vec<TcpListener> = (0..args.n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    let (_, verifying) = generate_client_keys(args.clients, args.key_seed);
    let dir = Directory::new(args.n, args.b, verifying);
    let servers = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let mut server_cfg = ServerConfig::default();
            if args.batching {
                server_cfg.gossip.summary_every = 4;
            }
            let node = ServerNode::new(
                ServerId(u16::try_from(i).unwrap_or(u16::MAX)),
                dir.clone(),
                server_cfg,
            );
            NetServer::start(node, listener, addrs.clone(), NetServerConfig::default())
                .expect("server start")
        })
        .collect();
    (servers, addrs)
}

struct RunSummary {
    stats: WorkerStats,
    throughput: f64,
    all: Histogram,
    /// Server-side counters summed across in-process servers before
    /// shutdown (all zero when driving external `--servers`).
    srv_storage_faults: u64,
    srv_dropped_frames: u64,
    srv_sheds: u64,
}

fn run_once(args: &Args) -> RunSummary {
    let (servers, addrs) = match &args.servers {
        Some(a) => (Vec::new(), a.clone()),
        None => start_servers(args),
    };
    let cluster = NetCluster::connect_with(
        addrs,
        args.b,
        args.clients,
        args.key_seed,
        ClientConfig::default(),
        NetClientConfig::default(),
    );
    let t0 = Instant::now();
    let base = args.sessions / args.workers;
    let extra = args.sessions % args.workers;
    let mut handles = Vec::new();
    for w in 0..args.workers {
        let client = cluster.pipe_client(u16::try_from(w).unwrap_or(u16::MAX));
        let cfg = WorkerCfg {
            worker: u16::try_from(w).unwrap_or(u16::MAX),
            sessions: base + usize::from(w < extra),
            groups: args.groups,
            read_pct: args.read_pct,
            dist: args.dist,
            value: vec![0x5a; args.value_bytes],
            consistency: args.consistency,
            mode: args.mode,
            batching: args.batching,
            rate: args.rate / args.workers as f64,
            t0,
            warmup: args.warmup,
            duration: args.duration,
            seed: args.seed,
        };
        handles.push(thread::spawn(move || run_worker(client, cfg)));
    }
    let mut stats = WorkerStats::default();
    for handle in handles {
        match handle.join() {
            Ok(s) => stats.merge(&s),
            Err(_) => eprintln!("sstore-load: worker panicked"),
        }
    }
    let mut srv_storage_faults = 0u64;
    let mut srv_dropped_frames = 0u64;
    let mut srv_sheds = 0u64;
    for server in servers {
        srv_storage_faults += server.with_node(|n| n.storage_faults());
        srv_dropped_frames += server.dropped_frames();
        srv_sheds += server.shed_count();
        server.shutdown();
    }
    let mut all = stats.read.clone();
    all.merge(&stats.write);
    let throughput = stats.ops as f64 / args.duration.as_secs_f64();
    RunSummary {
        stats,
        throughput,
        all,
        srv_storage_faults,
        srv_dropped_frames,
        srv_sheds,
    }
}

fn lat_json(label: &str, h: &Histogram) -> String {
    format!(
        "\"{}\": {{ \"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"max_us\": {}, \"mean_us\": {:.1} }}",
        label,
        h.count(),
        h.p50(),
        h.p99(),
        h.p999(),
        h.max(),
        h.mean(),
    )
}

fn print_summary(label: &str, s: &RunSummary) {
    println!(
        "{label}: {:.0} ops/s  ({} ok, {} err, {} shed)",
        s.throughput,
        s.stats.ops,
        s.stats.errors(),
        s.stats.shed
    );
    println!(
        "  resilience: {} server sheds seen, {} hedged reads, {} deadline-expired",
        s.stats.server_sheds, s.stats.hedges, s.stats.expired
    );
    if s.srv_storage_faults > 0 || s.srv_dropped_frames > 0 || s.srv_sheds > 0 {
        println!(
            "  servers: {} storage faults, {} dropped frames, {} shed replies",
            s.srv_storage_faults, s.srv_dropped_frames, s.srv_sheds
        );
    }
    for (name, h) in [
        ("read", &s.stats.read),
        ("write", &s.stats.write),
        ("all", &s.all),
    ] {
        if h.count() == 0 {
            continue;
        }
        println!(
            "  {name:>5}: p50 {:>6} us  p99 {:>7} us  p999 {:>7} us  max {:>8} us  mean {:>7.1} us",
            h.p50(),
            h.p99(),
            h.p999(),
            h.max(),
            h.mean()
        );
    }
}

/// Appends `entry` to the JSON array in `path`, creating it if absent —
/// the same append-only convention as `BENCH_crypto.json`.
fn append_entry(path: &str, entry: &str) -> std::io::Result<()> {
    let new_content = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let without_close = trimmed
                .strip_suffix(']')
                .map(str::trim_end)
                .unwrap_or(trimmed);
            if without_close.trim() == "[" {
                format!("[\n{entry}\n]\n")
            } else {
                format!("{without_close},\n{entry}\n]\n")
            }
        }
        Err(_) => format!("[\n{entry}\n]\n"),
    };
    std::fs::write(path, new_content)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sstore-load: {e}\n{USAGE}");
            exit(2);
        }
    };

    let main_run = run_once(&args);
    print_summary(args.mode.name(), &main_run);

    let recorded_unix = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let note = if args.note.is_empty() {
        format!("{} loopback sustained load", args.mode.name())
    } else {
        args.note.clone()
    };
    let s = &main_run.stats;
    let entry = format!(
        "  {{\n    \"recorded_unix\": {recorded_unix},\n    \"note\": \"{note}\",\n    \"config\": {{ \"mode\": \"{}\", \"batching\": {}, \"n\": {}, \"b\": {}, \"sessions\": {}, \"workers\": {}, \"groups\": {}, \"read_pct\": {}, \"dist\": \"{}\", \"value_bytes\": {}, \"consistency\": \"{:?}\", \"duration_s\": {:.1}, \"warmup_s\": {:.1}, \"rate_ops_s\": {:.1} }},\n    \"results\": {{\n      \"throughput_ops_s\": {:.1},\n      \"ops\": {},\n      \"errors\": {{ \"unavailable\": {}, \"stale\": {}, \"faulty_writer\": {}, \"connect_failures\": {} }},\n      \"shed_arrivals\": {},\n      \"resilience\": {{ \"server_sheds_seen\": {}, \"hedged_reads\": {}, \"deadline_expired\": {} }},\n      \"server_counters\": {{ \"storage_faults\": {}, \"dropped_frames\": {}, \"shed_replies\": {} }},\n      \"latency_us\": {{ {}, {}, {} }}\n    }}\n  }}",
        args.mode.name(),
        args.batching,
        args.servers.as_ref().map_or(args.n, Vec::len),
        args.b,
        args.sessions,
        args.workers,
        args.groups,
        args.read_pct,
        args.dist,
        args.value_bytes,
        args.consistency,
        args.duration.as_secs_f64(),
        args.warmup.as_secs_f64(),
        args.rate,
        main_run.throughput,
        s.ops,
        s.err_unavailable,
        s.err_stale,
        s.err_faulty,
        s.connect_failures,
        s.shed,
        s.server_sheds,
        s.hedges,
        s.expired,
        main_run.srv_storage_faults,
        main_run.srv_dropped_frames,
        main_run.srv_sheds,
        lat_json("read", &s.read),
        lat_json("write", &s.write),
        lat_json("all", &main_run.all),
    );
    if args.append {
        if let Err(e) = append_entry(&args.out, &entry) {
            eprintln!("sstore-load: cannot write {}: {e}", args.out);
            exit(1);
        }
        println!("appended to {}", args.out);
    } else {
        println!("{entry}");
    }

    if args.fail_on_error && (s.errors() > 0 || s.connect_failures > 0) {
        eprintln!(
            "sstore-load: --fail-on-error: {} protocol errors, {} connect failures",
            s.errors(),
            s.connect_failures
        );
        exit(1);
    }
}
