//! `sstore-server`: one repository server per process.
//!
//! ```text
//! sstore-server --id 0 --b 1 --listen 127.0.0.1:7450 \
//!     --peers 127.0.0.1:7450,127.0.0.1:7451,127.0.0.1:7452,127.0.0.1:7453 \
//!     [--clients 8] [--key-seed 0x7ea1] \
//!     [--data-dir PATH] [--fsync always|never|interval:N]
//! ```
//!
//! `--peers` lists every server's listen address in server-id order (the
//! entry at position `--id` is this process); `n` is its length. All
//! servers and clients of one deployment must agree on `--clients` and
//! `--key-seed`, which stand in for the paper's well-known client public
//! keys.
//!
//! With `--data-dir` the server keeps a write-ahead log plus periodic
//! snapshots under that directory and replays them on start, so a
//! killed process restarted at the same directory comes back with every
//! durable item, context, and multi-writer hold-back. Each server needs
//! its own directory. `--fsync` trades durability for throughput:
//! `always` (default) syncs every record, `interval:N` every N records
//! (acks may lead durability), `group-commit:N:USEC` batches up to N
//! records or USEC microseconds per fsync *while holding write acks
//! until the sync lands* (throughput without weakening the ack), and
//! `never` leaves flushing to the OS.
//!
//! `--gossip-summary-every K` sends the full anti-entropy summary only
//! every K-th gossip round, pushing just the dirty set in between
//! (default 1: summarize every round).
//!
//! `--serving event-loop` is accepted and ignored: the event loop is the
//! only serving path, and the frozen benchmark (`benchmark/src/cluster.rs`)
//! still spawns every server with that spelling. Any other value is a
//! usage error.
//!
//! `--stats-every SECS` prints a periodic health line to stdout with the
//! storage fault count, backpressure frame drops, and shed replies
//! (default 30; 0 disables the line entirely).

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::exit;

use sstore_core::config::ServerConfig;
use sstore_core::directory::{generate_client_keys, Directory};
use sstore_core::server::storage::{FsyncPolicy, StorageConfig, Store};
use sstore_core::server::ServerNode;
use sstore_core::types::ServerId;
use sstore_net::{NetServer, NetServerConfig};

const USAGE: &str = "usage: sstore-server --id N --b B --listen ADDR --peers A,B,C,... \
                     [--clients N] [--key-seed SEED] [--data-dir PATH] \
                     [--fsync always|never|interval:N|group-commit:N:USEC] \
                     [--gossip-summary-every K] [--stats-every SECS]";

struct Args {
    id: u16,
    b: usize,
    listen: SocketAddr,
    peers: Vec<SocketAddr>,
    clients: u16,
    key_seed: u64,
    data_dir: Option<String>,
    fsync: FsyncPolicy,
    summary_every: u32,
    stats_every: u64,
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_fsync(s: &str) -> Result<FsyncPolicy, String> {
    const BAD: &str = "bad --fsync (always|never|interval:N|group-commit:N:USEC)";
    match s {
        "always" => Ok(FsyncPolicy::Always),
        "never" => Ok(FsyncPolicy::Never),
        other => {
            if let Some(num) = other.strip_prefix("interval:") {
                return num
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .map(FsyncPolicy::EveryN)
                    .ok_or_else(|| BAD.to_string());
            }
            let Some(rest) = other.strip_prefix("group-commit:") else {
                return Err(BAD.to_string());
            };
            let Some((batch, delay)) = rest.split_once(':') else {
                return Err(BAD.to_string());
            };
            let max_batch: u32 = batch
                .parse()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| BAD.to_string())?;
            let max_delay_us: u64 = delay.parse().map_err(|_| BAD.to_string())?;
            Ok(FsyncPolicy::GroupCommit {
                max_batch,
                max_delay_us,
            })
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut id = None;
    let mut b = None;
    let mut listen = None;
    let mut peers = None;
    let mut clients = 8u16;
    let mut key_seed = 0x7ea1u64;
    let mut data_dir = None;
    let mut fsync = FsyncPolicy::Always;
    let mut summary_every = 1u32;
    let mut stats_every = 30u64;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--id" => id = Some(value.parse().map_err(|_| "bad --id")?),
            "--b" => b = Some(value.parse().map_err(|_| "bad --b")?),
            "--listen" => listen = Some(value.parse().map_err(|_| "bad --listen")?),
            "--peers" => {
                let parsed: Result<Vec<SocketAddr>, _> = value.split(',').map(str::parse).collect();
                peers = Some(parsed.map_err(|_| "bad --peers")?);
            }
            "--clients" => clients = value.parse().map_err(|_| "bad --clients")?,
            "--key-seed" => {
                key_seed = parse_u64(&value).ok_or("bad --key-seed")?;
            }
            "--data-dir" => data_dir = Some(value),
            "--fsync" => {
                fsync = parse_fsync(&value)?;
            }
            "--gossip-summary-every" => {
                summary_every = value
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or("bad --gossip-summary-every (K >= 1)")?;
            }
            "--serving" => {
                if value != "event-loop" {
                    return Err("bad --serving (only event-loop exists)".to_string());
                }
            }
            "--stats-every" => {
                stats_every = value.parse().map_err(|_| "bad --stats-every (SECS)")?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        id: id.ok_or("--id is required")?,
        b: b.ok_or("--b is required")?,
        listen: listen.ok_or("--listen is required")?,
        peers: peers.ok_or("--peers is required")?,
        clients,
        key_seed,
        data_dir,
        fsync,
        summary_every,
        stats_every,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sstore-server: {e}\n{USAGE}");
            exit(2);
        }
    };
    let n = args.peers.len();
    if usize::from(args.id) >= n {
        eprintln!("sstore-server: --id {} out of range for {n} peers", args.id);
        exit(2);
    }
    let (_, verifying) = generate_client_keys(args.clients, args.key_seed);
    let dir = Directory::new(n, args.b, verifying);
    let mut server_cfg = ServerConfig::default();
    server_cfg.gossip.summary_every = args.summary_every;
    let mut node = ServerNode::new(ServerId(args.id), dir, server_cfg);
    if let Some(dir) = &args.data_dir {
        let cfg = StorageConfig {
            fsync: args.fsync,
            ..StorageConfig::default()
        };
        let store = match Store::open(Path::new(dir), cfg) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sstore-server: cannot open data dir {dir}: {e}");
                exit(1);
            }
        };
        node.attach_store(store);
        match node.recover() {
            Ok(report) => {
                println!(
                    "sstore-server {}: recovered {} record(s) from {dir} \
                     (rejected {}, torn tail: {}, bit-rot faults: {})",
                    args.id, report.records, report.rejected, report.torn_tail, report.bitrot
                );
            }
            Err(e) => {
                eprintln!("sstore-server: recovery from {dir} failed: {e}");
                exit(1);
            }
        }
    }
    let listener = match TcpListener::bind(args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("sstore-server: cannot bind {}: {e}", args.listen);
            exit(1);
        }
    };
    let server = match NetServer::start(
        node,
        listener,
        args.peers.clone(),
        NetServerConfig::default(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sstore-server: cannot start: {e}");
            exit(1);
        }
    };
    println!(
        "sstore-server {}/{n} (b={}) listening on {}",
        args.id,
        args.b,
        server.local_addr()
    );
    if args.stats_every == 0 {
        loop {
            std::thread::park();
        }
    }
    // Periodic health line: storage faults (WAL append/fsync failures and
    // deferred-ack cap rejections), backpressure frame drops, and shed
    // replies. One line per interval keeps long-running daemons greppable
    // without a metrics endpoint.
    let period = std::time::Duration::from_secs(args.stats_every);
    loop {
        std::thread::sleep(period);
        let faults = server.with_node(|n| n.storage_faults());
        println!(
            "sstore-server {}: stats storage_faults={faults} dropped_frames={} sheds={}",
            args.id,
            server.dropped_frames(),
            server.shed_count(),
        );
    }
}
