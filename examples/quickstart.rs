//! Quickstart: a 4-server / b=1 secure store on real threads.
//!
//! Run with: `cargo run --example quickstart`

use sstore_core::types::{Consistency, DataId, GroupId};
use sstore_transport::{LocalCluster, StoreHandle};

fn main() {
    // 4 replicated servers, at most 1 Byzantine, 1 client.
    let cluster = LocalCluster::start(4, 1, 1);
    let mut client = cluster.client(0);
    let group = GroupId(1);

    // A session starts by acquiring the client's context for the group.
    let connected = client.connect(group, false).expect("connect");
    println!(
        "connected: context has {} entries, took {}",
        client.context(group).len(),
        connected.latency()
    );

    // Writes go to b+1 = 2 servers; everything is signed by the client.
    let ts = client
        .write(
            DataId(1),
            group,
            Consistency::Mrc,
            b"hello, secure store".to_vec(),
        )
        .expect("write");
    println!("wrote x1 at {ts}");

    // Reads query b+1 servers for timestamps, then fetch and verify.
    let (ts, value) = client
        .read(DataId(1), group, Consistency::Mrc)
        .expect("read");
    println!("read x1 at {ts}: {:?}", String::from_utf8_lossy(&value));
    assert_eq!(value, b"hello, secure store");

    // Disconnect stores the signed context at a ⌈(n+b+1)/2⌉ quorum.
    client.disconnect(group).expect("disconnect");
    println!("session closed; context persisted");

    cluster.shutdown();
}
