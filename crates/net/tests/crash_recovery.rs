//! Crash-recovery integration test for the TCP deployment path: a real
//! `n = 4`, `b = 1` cluster of `sstore-server` *processes* with
//! per-server data dirs. One server is SIGKILLed mid-campaign and
//! restarted at the same directory; the test then removes other
//! servers from the cluster so quorums can only form if the restarted
//! process actually replayed its write-ahead log.
//!
//! Uses the compiled daemon binary (`CARGO_BIN_EXE_sstore-server`), so
//! the kill is a real `SIGKILL` against a separate process — nothing
//! in-process survives it.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sstore_core::types::{Consistency, DataId, GroupId, Timestamp};
use sstore_core::ClientConfig;
use sstore_net::{NetClientConfig, NetCluster, StoreHandle};

const N: usize = 4;
const B: usize = 1;
const CLIENTS: u16 = 2;
const KEY_SEED: u64 = 0x7ea1;
/// Full multi-writer quorum `2b+1` — with exactly three servers alive,
/// reaching it requires every one of them, recovered server included.
const MW_QUORUM: usize = 2 * B + 1;
const SETUP_DEADLINE: Duration = Duration::from_secs(20);
const OP_DEADLINE: Duration = Duration::from_secs(30);

fn unique_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .subsec_nanos();
    std::env::temp_dir().join(format!("sstore-{tag}-{}-{nanos}", std::process::id()))
}

/// Reserves `N` distinct loopback ports by briefly binding ephemeral
/// listeners. The listeners are dropped before the daemons start; the
/// spawn helper retries, so a lost race for a port is only slow, not
/// fatal.
fn reserve_addrs() -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

fn peers_arg(addrs: &[SocketAddr]) -> String {
    addrs
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn spawn_server(id: usize, addrs: &[SocketAddr], data_dir: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_sstore-server"))
        .args([
            "--id",
            &id.to_string(),
            "--b",
            &B.to_string(),
            "--listen",
            &addrs[id].to_string(),
            "--peers",
            &peers_arg(addrs),
            "--clients",
            &CLIENTS.to_string(),
            "--key-seed",
            &format!("{KEY_SEED:#x}"),
            "--data-dir",
            &data_dir.display().to_string(),
            "--fsync",
            "always",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sstore-server")
}

/// Spawns server `id` and waits until it accepts TCP connections,
/// respawning if the process dies first (e.g. it lost a bind race for
/// the reserved port).
fn spawn_until_up(id: usize, addrs: &[SocketAddr], data_dir: &Path) -> Child {
    let deadline = Instant::now() + SETUP_DEADLINE;
    let mut child = spawn_server(id, addrs, data_dir);
    loop {
        if TcpStream::connect_timeout(&addrs[id], Duration::from_millis(250)).is_ok() {
            return child;
        }
        if child.try_wait().expect("try_wait").is_some() {
            child = spawn_server(id, addrs, data_dir);
        }
        assert!(
            Instant::now() < deadline,
            "server {id} never came up on {}",
            addrs[id]
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn sigkill(mut child: Child) {
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
}

fn cluster_for(addrs: Vec<SocketAddr>) -> NetCluster {
    NetCluster::connect_with(
        addrs,
        B,
        CLIENTS,
        KEY_SEED,
        ClientConfig::default(),
        NetClientConfig {
            request_timeout: Duration::from_secs(10),
            ..NetClientConfig::default()
        },
    )
}

/// Polls `op` with a bounded deadline: server kills and recovery leave
/// transient windows where an op can time out without that being a
/// verdict on correctness.
fn poll_until<T>(what: &str, mut op: impl FnMut() -> Result<T, String>) -> T {
    let deadline = Instant::now() + OP_DEADLINE;
    loop {
        match op() {
            Ok(v) => return v,
            Err(e) => {
                assert!(Instant::now() < deadline, "{what}: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

#[test]
fn sigkilled_server_recovers_from_its_data_dir() {
    let base = unique_dir("crash-recovery");
    let dirs: Vec<PathBuf> = (0..N).map(|i| base.join(format!("s{i}"))).collect();
    let addrs = reserve_addrs();
    let mut children: Vec<Option<Child>> = (0..N)
        .map(|i| Some(spawn_until_up(i, &addrs, &dirs[i])))
        .collect();

    let g = GroupId(1);
    let cluster = cluster_for(addrs.clone());
    let mut alice = cluster.client(0);
    alice.connect(g, false).expect("connect");

    // Durable writes all four servers log: a single-writer item, a
    // causal item, and a multi-writer item.
    alice
        .write(DataId(1), g, Consistency::Mrc, b"pre-crash".to_vec())
        .expect("mrc write");
    alice
        .write(DataId(2), g, Consistency::Cc, b"pre-crash causal".to_vec())
        .expect("cc write");
    alice
        .mw_write(DataId(9), g, b"pre-crash multi".to_vec())
        .expect("mw write");
    let (ts1, v) = alice
        .read(DataId(1), g, Consistency::Mrc)
        .expect("read back");
    assert_eq!(v, b"pre-crash");

    // SIGKILL server 2 mid-campaign; with n = 4, b = 1 the cluster
    // keeps serving, and new writes land only on the survivors.
    sigkill(children[2].take().expect("server 2 running"));
    poll_until("mrc write with server 2 down", || {
        alice
            .write(DataId(3), g, Consistency::Mrc, b"during outage".to_vec())
            .map_err(|e| format!("{e:?}"))
    });
    drop(alice);

    // Restart server 2 at the same data dir and port: it must replay
    // its WAL before accepting connections.
    children[2] = Some(spawn_until_up(2, &addrs, &dirs[2]));

    // Fresh client with fresh connections (the old sockets to server 2
    // died with the process).
    let cluster2 = cluster_for(addrs.clone());
    let mut bob = cluster2.client(1);
    bob.connect(g, false).expect("bob connect");

    // Take server 3 out: the multi-writer quorum 2b+1 = 3 now needs
    // every live server — including the recovered one, which only
    // knows the pre-crash item from its disk.
    sigkill(children[3].take().expect("server 3 running"));
    let confirmations = poll_until("mw read needing the recovered server", || {
        match bob.mw_read(DataId(9), g, Consistency::Mrc) {
            Ok((_, v, confirmations)) => {
                assert_eq!(v, b"pre-crash multi", "mw value must survive recovery");
                if confirmations >= MW_QUORUM {
                    Ok(confirmations)
                } else {
                    Err(format!("only {confirmations} confirmations so far"))
                }
            }
            Err(e) => Err(format!("{e:?}")),
        }
    });
    assert!(confirmations >= MW_QUORUM);

    // Take server 0 out too, leaving servers 1 and 2. The pre-crash
    // items now have b+1 = 2 live holders only because server 2
    // replayed them: a correct read here *proves* recovery, and a
    // wiped server 2 could never produce it.
    sigkill(children[0].take().expect("server 0 running"));
    let (ts_after, v) = poll_until("read served by the recovered server", || {
        bob.read(DataId(1), g, Consistency::Mrc)
            .map_err(|e| format!("{e:?}"))
    });
    assert_eq!(v, b"pre-crash");
    assert!(
        ts_after.is_at_least(&ts1),
        "timestamps must not regress across recovery: {ts_after:?} < {ts1:?}"
    );
    assert_ne!(ts_after, Timestamp::GENESIS);
    let (_, v) = poll_until("causal read served by the recovered server", || {
        bob.read(DataId(2), g, Consistency::Mrc)
            .map_err(|e| format!("{e:?}"))
    });
    assert_eq!(v, b"pre-crash causal");

    drop(bob);
    for child in children.into_iter().flatten() {
        sigkill(child);
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// `--serving event-loop` is a no-op the frozen benchmark still passes to
/// every server it spawns; no other serving path exists to ask for.
#[test]
fn serving_flag_accepts_only_event_loop() {
    let addrs = reserve_addrs();
    let serve = |value: &str| {
        Command::new(env!("CARGO_BIN_EXE_sstore-server"))
            .args(["--id", "0", "--b", &B.to_string(), "--stats-every", "0"])
            .args(["--listen", &addrs[0].to_string()])
            .args(["--peers", &peers_arg(&addrs), "--serving", value])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sstore-server")
    };

    let mut up = serve("event-loop");
    let mut line = String::new();
    BufReader::new(up.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read banner");
    sigkill(up);
    assert!(line.contains("listening on"), "banner was {line:?}");

    let status = serve("threaded").wait().expect("wait");
    assert_eq!(status.code(), Some(2), "usage errors exit 2");
}
