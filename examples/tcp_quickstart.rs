//! TCP quickstart: the same secure store, but over real sockets.
//!
//! Run with: `cargo run --example tcp_quickstart`
//!
//! This starts a 4-server / b=1 cluster on loopback ephemeral ports inside
//! one process — the exact same [`NetServer`] that the standalone
//! `sstore-server` binary runs, one per process, in a real deployment:
//!
//! ```text
//! for i in 0 1 2 3; do
//!   cargo run --release --bin sstore-server -- --id $i --b 1 \
//!     --listen 127.0.0.1:745$i \
//!     --peers 127.0.0.1:7450,127.0.0.1:7451,127.0.0.1:7452,127.0.0.1:7453 \
//!     --data-dir /tmp/sstore/s$i &
//! done
//! ```
//!
//! `--data-dir` (one directory per server) makes a server durable: it
//! write-ahead-logs admitted state and replays it on start, so a killed
//! process restarted at the same directory rejoins with everything it had
//! acknowledged (`--fsync always|never|interval:N` picks the durability /
//! throughput trade-off). Omit it for a memory-only server, which is what
//! this in-process example uses.
//!
//! Servers run a non-blocking event loop with request pipelining.
//! To push a cluster like this one hard — four server processes with
//! the write-ahead log on, 64 operations in flight, goodput and latency
//! percentiles in the JSON on the last line of output:
//!
//! ```text
//! bash benchmark/run.sh --workload saturate-closed
//! ```
//!
//! And to shake a real deployment down under wire-level faults — added
//! latency, throttling, corrupted bytes, resets, half-open sockets,
//! partitions, timed SIGKILL/restart — run the seeded campaign driver
//! against real `sstore-server` processes through its fault-injecting
//! proxy (DESIGN.md §9); failing seeds shrink to minimal replay files:
//!
//! ```text
//! cargo build --release -p sstore-net --bins
//! ./target/release/sstore-wirechaos --seeds 0..100 --jobs 4 --markdown
//! ```

use std::net::{SocketAddr, TcpListener};

use sstore_core::directory::{generate_client_keys, Directory};
use sstore_core::types::{Consistency, DataId, GroupId, ServerId};
use sstore_core::{ClientConfig, ServerConfig, ServerNode};
use sstore_net::{NetClientConfig, NetCluster, NetServer, NetServerConfig, StoreHandle};

fn main() {
    // Bind 4 ephemeral listeners first so every server knows the full
    // address list, then start one repository server per listener.
    let listeners: Vec<TcpListener> = (0..4)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    // Client keys are derived from a shared (count, seed) pair — the
    // reproduction's stand-in for the paper's well-known public keys.
    let (_, verifying) = generate_client_keys(1, 0x7ea1);
    let dir = Directory::new(4, 1, verifying);
    let servers: Vec<NetServer> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let node = ServerNode::new(ServerId(i as u16), dir.clone(), ServerConfig::default());
            NetServer::start(node, listener, addrs.clone(), NetServerConfig::default())
                .expect("server start")
        })
        .collect();
    for s in &servers {
        println!("server {} listening on {}", s.id(), s.local_addr());
    }

    // The client side only needs the address list and the key parameters.
    let cluster = NetCluster::connect_with(
        addrs,
        1,
        1,
        0x7ea1,
        ClientConfig::default(),
        NetClientConfig::default(),
    );
    let mut client = cluster.client(0);
    let group = GroupId(1);

    client.connect(group, false).expect("connect");
    let ts = client
        .write(
            DataId(1),
            group,
            Consistency::Mrc,
            b"hello over tcp".to_vec(),
        )
        .expect("write");
    println!("wrote x1 at {ts}");
    let (ts, value) = client
        .read(DataId(1), group, Consistency::Mrc)
        .expect("read");
    println!("read x1 at {ts}: {:?}", String::from_utf8_lossy(&value));
    client.disconnect(group).expect("disconnect");

    // Measured wire bytes per message kind, next to the §6 formula figures.
    println!("\nclient wire bytes:\n{}", client.wire_stats());

    drop(client);
    for s in servers {
        s.shutdown();
    }
}
