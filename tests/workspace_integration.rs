//! Cross-crate integration: simulator and threaded transport must agree,
//! baselines behave, and the confidentiality layer composes with the
//! protocol stack.

use sstore_baselines::masking::MaskCluster;
use sstore_baselines::pbft::PbftCluster;
use sstore_core::client::{ClientOp, Outcome};
use sstore_core::confidential::{FragmentStore, ValueCipher};
use sstore_core::sim::{ClusterBuilder, Step};
use sstore_core::types::{Consistency, DataId, GroupId, Timestamp};
use sstore_simnet::SimConfig;
use sstore_transport::{LocalCluster, StoreHandle};

const G: GroupId = GroupId(1);

/// The same logical workload gives the same values on the simulator and on
/// real threads — the state machines are shared, only the I/O differs.
#[test]
fn sim_and_transport_agree_on_values() {
    // Simulator run.
    let mut sim = ClusterBuilder::new(4, 1)
        .seed(5)
        .client(vec![
            Step::Do(ClientOp::Connect {
                group: G,
                recover: false,
            }),
            Step::Do(ClientOp::Write {
                data: DataId(1),
                group: G,
                consistency: Consistency::Cc,
                value: b"agreed".to_vec(),
            }),
            Step::Do(ClientOp::Read {
                data: DataId(1),
                group: G,
                consistency: Consistency::Cc,
            }),
        ])
        .build();
    sim.run_to_quiescence();
    let sim_read = sim
        .client_results(0)
        .iter()
        .find_map(|r| match &r.outcome {
            Outcome::ReadOk { ts, value, .. } => Some((*ts, value.clone())),
            _ => None,
        })
        .expect("sim read");

    // Threaded run.
    let cluster = LocalCluster::start(4, 1, 1);
    let mut c = cluster.client(0);
    c.connect(G, false).unwrap();
    c.write(DataId(1), G, Consistency::Cc, b"agreed".to_vec())
        .unwrap();
    let threaded_read = c.read(DataId(1), G, Consistency::Cc).unwrap();
    cluster.shutdown();

    assert_eq!(sim_read.0, threaded_read.0, "same timestamp");
    assert_eq!(sim_read.1, threaded_read.1, "same value");
}

/// Encrypted values flow through the full protocol stack unchanged.
#[test]
fn encrypted_values_through_threaded_stack() {
    let cluster = LocalCluster::start(4, 1, 1);
    let mut c = cluster.client(0);
    c.connect(G, false).unwrap();
    let cipher = ValueCipher::new(b"master", b"it");
    let ts = Timestamp::Version(c.context(G).timestamp(DataId(3)).time() + 1);
    let sealed = cipher.encrypt(b"private", &ts);
    let got_ts = c.write(DataId(3), G, Consistency::Mrc, sealed).unwrap();
    assert_eq!(got_ts, ts);
    let (rts, blob) = c.read(DataId(3), G, Consistency::Mrc).unwrap();
    assert_eq!(cipher.decrypt(&blob, &rts).unwrap(), b"private");
    cluster.shutdown();
}

/// All three systems store and return the same value for the same fault
/// budget — the comparison in T4 is apples-to-apples.
#[test]
fn all_three_systems_roundtrip() {
    // Secure store.
    let mut ss = ClusterBuilder::new(5, 1)
        .seed(6)
        .client(vec![
            Step::Do(ClientOp::Connect {
                group: G,
                recover: false,
            }),
            Step::Do(ClientOp::Write {
                data: DataId(1),
                group: G,
                consistency: Consistency::Mrc,
                value: b"same".to_vec(),
            }),
            Step::Do(ClientOp::Read {
                data: DataId(1),
                group: G,
                consistency: Consistency::Mrc,
            }),
        ])
        .build();
    ss.run_to_quiescence();
    assert!(ss.client_results(0).iter().all(|r| r.outcome.is_ok()));

    // Masking quorum.
    let mut mask = MaskCluster::new(5, 1, SimConfig::lan(6));
    assert!(mask.write(DataId(1), b"same").ok);
    assert_eq!(mask.read(DataId(1)).value.unwrap(), b"same");

    // PBFT-lite.
    let mut pbft = PbftCluster::new(1, SimConfig::lan(6));
    assert!(pbft.put(DataId(1), b"same").ok);
    assert_eq!(pbft.get(DataId(1)).value.unwrap(), b"same");
}

/// Fragmentation backends compose with per-server distribution: store one
/// fragment per server id, reconstruct from any k.
#[test]
fn fragmented_storage_across_servers() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for store in [FragmentStore::shamir(2, 4), FragmentStore::ida(2, 4)] {
        let frags = store
            .split(b"fragment across the cluster", &mut rng)
            .unwrap();
        assert_eq!(frags.len(), 4);
        // Lose any two fragments; the rest reconstructs.
        for keep in [[0usize, 1], [1, 3], [2, 0]] {
            let subset = vec![frags[keep[0]].clone(), frags[keep[1]].clone()];
            assert_eq!(
                store.reconstruct(&subset).unwrap(),
                b"fragment across the cluster"
            );
        }
    }
}

/// The paper's headline quorum comparison holds for every valid (n, b).
#[test]
fn quorum_sizes_ordered_across_systems() {
    for n in 5..30 {
        for b in 1..=(n - 1) / 4 {
            let ctx = sstore_core::quorum::context_quorum(n, b);
            let mask = sstore_core::quorum::masking_quorum(n, b);
            let data = sstore_core::quorum::data_quorum(b);
            let mw = sstore_core::quorum::multi_writer_quorum(b);
            assert!(data <= mw, "n={n} b={b}");
            assert!(ctx <= mask, "n={n} b={b}");
            assert!(data < ctx, "n={n} b={b}: data path beats context path");
        }
    }
}
