//! Loopback integration test for the TCP deployment path: a real `n = 4`,
//! `b = 1` cluster on ephemeral ports, exercised through the same blocking
//! API as the in-process transports — including one server killed mid-run.

use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use sstore_core::directory::{generate_client_keys, Directory};
use sstore_core::types::{Consistency, DataId, GroupId, ServerId, Timestamp};
use sstore_core::{ClientConfig, ServerConfig, ServerNode};
use sstore_net::{
    NetClientConfig, NetCluster, NetServer, NetServerConfig, StoreError, StoreHandle,
};

const N: usize = 4;
const B: usize = 1;
const CLIENTS: u16 = 2;
const KEY_SEED: u64 = 0x7ea1;

/// Binds `N` ephemeral listeners first (so every server knows the full
/// address list), then starts one [`NetServer`] per listener.
fn start_servers() -> (Vec<NetServer>, Vec<SocketAddr>) {
    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    let (_, verifying) = generate_client_keys(CLIENTS, KEY_SEED);
    let dir = Directory::new(N, B, verifying);
    let servers = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let node = ServerNode::new(ServerId(i as u16), dir.clone(), ServerConfig::default());
            NetServer::start(node, listener, addrs.clone(), NetServerConfig::default())
                .expect("server start")
        })
        .collect();
    (servers, addrs)
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

#[test]
fn full_protocol_over_loopback_with_mid_run_server_kill() {
    let (mut servers, addrs) = start_servers();
    let cluster = cluster_for(addrs);
    let mut alice = cluster.client(0);
    let g = GroupId(1);

    // MRC write/read over real sockets.
    alice.connect(g, false).expect("connect");
    alice
        .write(DataId(1), g, Consistency::Mrc, b"over tcp".to_vec())
        .expect("mrc write");
    let (ts, v) = alice
        .read(DataId(1), g, Consistency::Mrc)
        .expect("mrc read");
    assert_eq!(v, b"over tcp");
    assert_eq!(ts, Timestamp::Version(1));

    // CC write/read.
    alice
        .write(DataId(2), g, Consistency::Cc, b"causal".to_vec())
        .expect("cc write");
    let (_, v) = alice.read(DataId(2), g, Consistency::Cc).expect("cc read");
    assert_eq!(v, b"causal");

    // Kill one server mid-run: with n = 4, b = 1 every quorum still forms,
    // and the dead server surfaces only as silence.
    let killed = servers.remove(2);
    killed.shutdown();

    // Multi-writer write/read with the server down.
    alice
        .mw_write(DataId(9), g, b"multi".to_vec())
        .expect("mw write");
    let (_, v, confirmations) = alice
        .mw_read(DataId(9), g, Consistency::Cc)
        .expect("mw read");
    assert_eq!(v, b"multi");
    assert!(confirmations >= 2 * B + 1 - B, "2b+1 quorum minus b faulty");

    // Context reconstruction (paper §5.1): crash, then recover the context
    // from signed server metadata — still with one server dead.
    alice.simulate_crash();
    alice.connect(g, true).expect("recovering connect");
    assert!(
        !alice.context(g).is_empty(),
        "reconstructed context must cover past writes"
    );
    let (_, v) = alice
        .read(DataId(1), g, Consistency::Mrc)
        .expect("read after recovery");
    assert_eq!(v, b"over tcp");
    alice.disconnect(g).expect("disconnect");

    // The client measured real encoded bytes for the frames it sent.
    let stats = alice.wire_stats();
    assert!(stats.total_count() > 0);
    assert!(stats.total_encoded_bytes() > 0);
    drop(alice);
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn cross_client_visibility_over_loopback() {
    let (servers, addrs) = start_servers();
    let cluster = cluster_for(addrs);
    let g = GroupId(2);
    let mut writer = cluster.client(0);
    writer.connect(g, false).expect("writer connect");
    writer
        .write(DataId(5), g, Consistency::Mrc, b"bulletin".to_vec())
        .expect("write");
    // Poll with a bounded deadline instead of a fixed sleep: gossip
    // dissemination timing varies under load, and a flat sleep is either
    // flaky (too short) or slow (long enough for the worst case).
    let mut reader = cluster.client(1);
    reader.connect(g, false).expect("reader connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    let v = loop {
        match reader.read(DataId(5), g, Consistency::Mrc) {
            Ok((_, v)) => break v,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "reader never saw the write within the deadline: {e:?}"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    };
    assert_eq!(v, b"bulletin");
    drop(writer);
    drop(reader);
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn generic_store_handle_runs_on_tcp() {
    // The same code drives LocalCluster (`sstore-transport`'s unit tests
    // run this scenario over channels) and NetCluster via StoreHandle.
    fn exercise(h: &mut dyn StoreHandle, g: GroupId, b: usize) {
        h.connect(g, false).unwrap();
        let ts = h
            .write(DataId(1), g, Consistency::Mrc, b"generic".to_vec())
            .unwrap();
        assert_eq!(
            h.read(DataId(1), g, Consistency::Mrc).unwrap(),
            (ts, b"generic".to_vec())
        );
        let mw_ts = h.mw_write(DataId(9), g, b"multi".to_vec()).unwrap();
        let (ts, v, confirmations) = h.mw_read(DataId(9), g, Consistency::Cc).unwrap();
        assert_eq!((ts, v), (mw_ts, b"multi".to_vec()));
        assert!(confirmations > b, "accepted on fewer than b+1 matches");
        // Crash, then reconstruct the context from server metadata.
        h.simulate_crash();
        assert!(h.context(g).is_empty());
        h.connect(g, true).unwrap();
        assert_eq!(h.context(g).len(), 2);
        let (_, v) = h.read(DataId(1), g, Consistency::Mrc).unwrap();
        assert_eq!(v, b"generic");
        h.disconnect(g).unwrap();
    }
    let (servers, addrs) = start_servers();
    let cluster = cluster_for(addrs);
    let mut c = cluster.client(0);
    exercise(&mut c, GroupId(8), B);
    drop(c);
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn blocking_client_gives_up_at_its_request_deadline() {
    // Four addresses nothing listens on: every dial is refused, so the
    // only thing that can end the call is the per-op deadline.
    let addrs: Vec<SocketAddr> = (0..N)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
            l.local_addr().expect("local addr")
        })
        .collect();
    let cluster = NetCluster::connect_with(
        addrs,
        B,
        CLIENTS,
        KEY_SEED,
        ClientConfig::default(),
        NetClientConfig {
            request_timeout: Duration::from_millis(300),
            ..NetClientConfig::default()
        },
    );
    let mut c = cluster.client(0);
    let t0 = Instant::now();
    assert_eq!(c.connect(GroupId(1), false), Err(StoreError::Unavailable));
    let took = t0.elapsed();
    assert!(
        took >= Duration::from_millis(300),
        "gave up early: {took:?}"
    );
    assert!(took < Duration::from_millis(1500), "overshot: {took:?}");
}
