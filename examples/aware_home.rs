//! Aware-Home scenario (paper §2, class 1): non-shared, confidential data.
//!
//! A resident stores encrypted medical records in the secure store. The
//! values are sealed client-side — servers (even compromised ones) only
//! ever see ciphertext — and the client's context makes reads monotonic.
//! Midway the resident's device "crashes", losing the in-memory context,
//! and recovers it with the reconstruction protocol.
//!
//! Run with: `cargo run --example aware_home`

use sstore_core::confidential::ValueCipher;
use sstore_core::types::{Consistency, DataId, GroupId};
use sstore_transport::{LocalCluster, StoreHandle};

const RECORDS: GroupId = GroupId(10);
const BLOOD_TYPE: DataId = DataId(1);
const MEDICATION: DataId = DataId(2);

fn main() {
    let cluster = LocalCluster::start(4, 1, 1);
    let mut resident = cluster.client(0);

    // The master secret never leaves the client device.
    let cipher = ValueCipher::new(b"resident master secret", b"medical-records");

    resident.connect(RECORDS, false).expect("connect");

    // Store two encrypted records. The nonce is the write timestamp, which
    // the client knows before sealing: next version = context version + 1.
    for (item, plaintext) in [
        (BLOOD_TYPE, &b"blood type: O+"[..]),
        (MEDICATION, &b"medication: 5mg lisinopril daily"[..]),
    ] {
        let next =
            sstore_core::Timestamp::Version(resident.context(RECORDS).timestamp(item).time() + 1);
        let sealed = cipher.encrypt(plaintext, &next);
        let ts = resident
            .write(item, RECORDS, Consistency::Mrc, sealed)
            .expect("write");
        assert_eq!(ts, next);
        println!("stored {item} (encrypted) at {ts}");
    }

    // The device crashes without a clean disconnect: context lost.
    resident.simulate_crash();
    println!("device crashed — in-memory context lost");

    // Recovery: reconstruct the context by scanning item metadata at all
    // servers (paper §5.1's expensive path), then read the records back.
    resident.connect(RECORDS, true).expect("reconstruct");
    println!(
        "context reconstructed with {} entries",
        resident.context(RECORDS).len()
    );

    for item in [BLOOD_TYPE, MEDICATION] {
        let (ts, sealed) = resident
            .read(item, RECORDS, Consistency::Mrc)
            .expect("read");
        let plaintext = cipher.decrypt(&sealed, &ts).expect("decrypt");
        println!("{item} at {ts}: {}", String::from_utf8_lossy(&plaintext));
    }

    resident.disconnect(RECORDS).expect("disconnect");
    cluster.shutdown();
}
