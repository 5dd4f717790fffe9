//! Integration test for request pipelining: one [`PipeClient`] keeps
//! many operations in flight against a real `n = 4`, `b = 1` event-loop
//! cluster, and every completion must be matched back to its submission
//! by operation id — the protocol rounds of different operations
//! interleave freely on the shared sockets, so nothing but the id links
//! a response to its request.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use sstore_core::client::ClientOp;
use sstore_core::directory::{generate_client_keys, Directory};
use sstore_core::types::{Consistency, DataId, GroupId, OpId, ServerId};
use sstore_core::{ClientConfig, ServerConfig, ServerNode};
use sstore_net::{NetClientConfig, NetCluster, NetServer, NetServerConfig, PipeClient};

const N: usize = 4;
const B: usize = 1;
const CLIENTS: u16 = 2;
const KEY_SEED: u64 = 0x7ea1;

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

/// Pumps until every id in `want` has completed (asserting success), or
/// panics at the deadline.
fn pump_all(client: &mut PipeClient, want: &mut HashSet<OpId>, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !want.is_empty() {
        assert!(
            Instant::now() < deadline,
            "{what}: {} operations never completed",
            want.len()
        );
        for done in client.pump_until(Instant::now() + Duration::from_millis(10)) {
            assert!(
                want.remove(&done.op),
                "{what}: completion for unknown or duplicate op {:?}",
                done.op
            );
            assert!(
                done.outcome.is_ok(),
                "{what}: op {:?} failed: {:?}",
                done.op,
                done.outcome
            );
        }
    }
}

#[test]
fn pipelined_operations_complete_out_of_order_matched_by_id() {
    let (servers, addrs) = start_servers();
    let cluster = NetCluster::connect_with(
        addrs,
        B,
        CLIENTS,
        KEY_SEED,
        ClientConfig::default(),
        NetClientConfig::default(),
    );
    let mut client = cluster.pipe_client(0);

    const GROUPS: u32 = 4;
    const PER_GROUP: u64 = 8;

    // Phase 1: connect to every group, all connects in flight at once.
    let mut want: HashSet<OpId> = (0..GROUPS)
        .map(|g| {
            client.submit(ClientOp::Connect {
                group: GroupId(g),
                recover: false,
            })
        })
        .collect();
    pump_all(&mut client, &mut want, "connect");

    // Phase 2: a burst of writes spanning all groups, all pipelined.
    // Track which id wrote which value so reads can verify payloads.
    let mut values: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut want: HashSet<OpId> = HashSet::new();
    for g in 0..GROUPS {
        for slot in 0..PER_GROUP {
            let data = u64::from(g) << 32 | slot;
            let value = format!("v-{g}-{slot}").into_bytes();
            values.insert(data, value.clone());
            want.insert(client.submit(ClientOp::Write {
                data: DataId(data),
                group: GroupId(g),
                consistency: Consistency::Mrc,
                value,
            }));
        }
    }
    let burst = want.len();
    assert!(
        client.inflight() >= burst,
        "writes should pipeline, not serialize"
    );
    pump_all(&mut client, &mut want, "write burst");

    // Phase 3: interleaved reads and writes in one burst; completions
    // arrive in whatever order the quorums finish, matched by id.
    let mut reads: HashMap<OpId, u64> = HashMap::new();
    let mut want: HashSet<OpId> = HashSet::new();
    for g in 0..GROUPS {
        for slot in 0..PER_GROUP {
            let data = u64::from(g) << 32 | slot;
            if (slot + u64::from(g)) % 2 == 0 {
                let op = client.submit(ClientOp::Read {
                    data: DataId(data),
                    group: GroupId(g),
                    consistency: Consistency::Mrc,
                });
                reads.insert(op, data);
                want.insert(op);
            } else {
                let value = format!("v2-{g}-{slot}").into_bytes();
                values.insert(data, value.clone());
                want.insert(client.submit(ClientOp::Write {
                    data: DataId(data),
                    group: GroupId(g),
                    consistency: Consistency::Mrc,
                    value,
                }));
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while !want.is_empty() {
        assert!(Instant::now() < deadline, "mixed burst never completed");
        for done in client.pump_until(Instant::now() + Duration::from_millis(10)) {
            assert!(want.remove(&done.op), "unknown op {:?}", done.op);
            assert!(done.outcome.is_ok(), "op failed: {:?}", done.outcome);
            if let Some(data) = reads.get(&done.op) {
                // A read must return the value its own data id holds —
                // proof the response was matched to the right request.
                let expect = values.get(data).expect("tracked value");
                match &done.outcome {
                    sstore_core::client::Outcome::ReadOk { value, .. } => {
                        assert_eq!(value, expect, "read {data:#x}");
                    }
                    other => panic!("read {data:#x} returned {other:?}"),
                }
            }
        }
    }
    assert_eq!(client.inflight(), 0);

    for server in servers {
        server.shutdown();
    }
}

#[test]
fn two_pipe_clients_multiplex_independently() {
    let (servers, addrs) = start_servers();
    let cluster = NetCluster::connect_with(
        addrs,
        B,
        CLIENTS,
        KEY_SEED,
        ClientConfig::default(),
        NetClientConfig::default(),
    );
    let mut a = cluster.pipe_client(0);
    let mut b = cluster.pipe_client(1);

    for client in [&mut a, &mut b] {
        let mut want: HashSet<OpId> = [client.submit(ClientOp::Connect {
            group: GroupId(0),
            recover: false,
        })]
        .into_iter()
        .collect();
        pump_all(client, &mut want, "connect");
    }

    // Interleave submissions across the two clients (distinct data ids:
    // each client is a distinct writer), then pump both to completion.
    let mut want_a: HashSet<OpId> = HashSet::new();
    let mut want_b: HashSet<OpId> = HashSet::new();
    for slot in 0..6u64 {
        want_a.insert(a.submit(ClientOp::Write {
            data: DataId(0xa000 + slot),
            group: GroupId(0),
            consistency: Consistency::Mrc,
            value: vec![0xaa; 16],
        }));
        want_b.insert(b.submit(ClientOp::Write {
            data: DataId(0xb000 + slot),
            group: GroupId(0),
            consistency: Consistency::Mrc,
            value: vec![0xbb; 16],
        }));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while !(want_a.is_empty() && want_b.is_empty()) {
        assert!(Instant::now() < deadline, "multiplexed writes stalled");
        for done in a.pump_until(Instant::now() + Duration::from_millis(5)) {
            assert!(want_a.remove(&done.op), "client a: unknown op");
            assert!(done.outcome.is_ok(), "client a: {:?}", done.outcome);
        }
        for done in b.pump_until(Instant::now() + Duration::from_millis(5)) {
            assert!(want_b.remove(&done.op), "client b: unknown op");
            assert!(done.outcome.is_ok(), "client b: {:?}", done.outcome);
        }
    }

    for server in servers {
        server.shutdown();
    }
}
