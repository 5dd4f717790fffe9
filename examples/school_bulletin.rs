//! School-bulletin scenario (paper §2, class 2): one writer, many readers.
//!
//! The school posts announcements; families read them with MRC — each
//! family sees a monotonically advancing bulletin even though different
//! reads hit different `b+1` server subsets and dissemination is
//! asynchronous. Integrity comes from the school's signature: no server
//! can forge an announcement.
//!
//! Run with: `cargo run --example school_bulletin`

use std::thread;
use std::time::Duration;

use sstore_core::types::{Consistency, DataId, GroupId};
use sstore_transport::{LocalCluster, StoreHandle};

const BULLETIN: GroupId = GroupId(20);
const ANNOUNCEMENTS: DataId = DataId(1);

fn main() {
    // 7 servers tolerating 2 Byzantine; client 0 = school, 1..=3 families.
    let cluster = LocalCluster::start(7, 2, 4);

    let mut school = cluster.client(0);
    school.connect(BULLETIN, false).expect("school connect");

    let posts = [
        "Week 1: science fair sign-ups open",
        "Week 2: science fair this Friday!",
        "Week 3: congratulations to all participants",
    ];

    // Families poll in their own threads (handles are independent).
    let readers: Vec<_> = (1..=3u16)
        .map(|i| {
            let mut family = cluster.client(i);
            thread::spawn(move || {
                family.connect(BULLETIN, false).expect("family connect");
                let mut last_seen = 0u64;
                let mut versions_seen = Vec::new();
                for _ in 0..12 {
                    thread::sleep(Duration::from_millis(150));
                    match family.read(ANNOUNCEMENTS, BULLETIN, Consistency::Mrc) {
                        Ok((ts, value)) => {
                            let v = ts.time();
                            // MRC guarantee: never goes backwards.
                            assert!(v >= last_seen, "bulletin went backwards!");
                            if v > last_seen {
                                println!(
                                    "family {i} sees v{v}: {}",
                                    String::from_utf8_lossy(&value)
                                );
                                versions_seen.push(v);
                                last_seen = v;
                            }
                        }
                        Err(e) => println!("family {i}: read pending ({e})"),
                    }
                }
                family.disconnect(BULLETIN).expect("family disconnect");
                versions_seen
            })
        })
        .collect();

    for (i, post) in posts.iter().enumerate() {
        let ts = school
            .write(
                ANNOUNCEMENTS,
                BULLETIN,
                Consistency::Mrc,
                post.as_bytes().to_vec(),
            )
            .expect("post");
        println!("school posted v{} ({post})", ts.time());
        thread::sleep(Duration::from_millis(400));
        let _ = i;
    }
    school.disconnect(BULLETIN).expect("school disconnect");

    for (i, r) in readers.into_iter().enumerate() {
        let versions = r.join().expect("reader thread");
        println!("family {} observed versions {versions:?}", i + 1);
        assert!(
            versions.windows(2).all(|w| w[0] < w[1]),
            "monotonic reads violated"
        );
    }
    cluster.shutdown();
}
