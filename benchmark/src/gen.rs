//! The seeded operation generator and its correctness oracle, shared by the
//! live run and the layer walk. The system under test sees only the
//! operations this produces.
//!
//! Every value carries `(data id, sequence)`. Each item has one writer, and a
//! write is in flight on an item only while nothing else is (reads share an
//! item), so under MRC a successful read can return nothing but the item's
//! last acknowledged write.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sstore_core::client::{ClientOp, Outcome};
use sstore_core::types::{Consistency, DataId, GroupId};
use sstore_load::pick::{Dist, Selector};

use crate::spec::{Workload, GROUPS, SLOTS, ZIPF};

/// Bytes of `(data id, sequence)` at the head of every value.
const STAMP: usize = 16;

/// Index of an item in the keyspace: `group * SLOTS + slot`.
pub type Item = usize;

/// The data id of `item`; the group is in the high bits as in `sstore-load`.
pub fn data_id(item: Item) -> DataId {
    DataId((((item / SLOTS) as u64) << 24) | (item % SLOTS) as u64)
}

/// The group of `item`.
pub fn group_of(item: Item) -> GroupId {
    GroupId((item / SLOTS) as u32)
}

/// The value of write number `seq` to `item`.
pub fn value_for(item: Item, seq: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len.max(STAMP));
    v.extend_from_slice(&data_id(item).0.to_be_bytes());
    v.extend_from_slice(&seq.to_be_bytes());
    v.resize(len.max(STAMP), (seq as u8) ^ 0x5a);
    v
}

/// What the generator issued, kept by the caller until the reply arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issued {
    /// The item operated on.
    pub item: Item,
    /// Read or write.
    pub read: bool,
}

/// Per-item oracle state.
#[derive(Debug, Clone, Copy, Default)]
struct ItemState {
    /// Reads in flight. An item takes any number of reads or one write: a
    /// 500 ms degraded read must not keep other readers off the item, and a
    /// read racing a write that is stuck on a dead server would itself fail.
    readers: u32,
    writing: bool,
    /// Sequence of the last acknowledged write.
    acked: u64,
    /// Sequence of the last write attempted; above `acked` only after a
    /// write failed, when either value may legitimately be stored.
    attempted: u64,
}

/// Seeded generator over the `GROUPS x SLOTS` keyspace.
pub struct Generator {
    rng: StdRng,
    groups: Selector,
    items: Vec<ItemState>,
    read_pct: u32,
    value_bytes: usize,
    wrong_reads: u64,
}

impl Generator {
    /// A generator for `workload` whose stream is a function of `seed`.
    pub fn new(workload: &Workload, seed: u64) -> Generator {
        Generator {
            rng: StdRng::seed_from_u64(seed),
            groups: Selector::new(GROUPS, Dist::Zipf(ZIPF)),
            items: vec![ItemState::default(); GROUPS * SLOTS],
            read_pct: workload.read_pct,
            value_bytes: workload.value_bytes,
            wrong_reads: 0,
        }
    }

    /// The write that preloads `item` (sequence 1), marking it in flight.
    pub fn preload(&mut self, item: Item) -> ClientOp {
        self.write_op(item)
    }

    /// Draws the next operation: a zipfian group, read or write by the mix,
    /// and the first item at or after a random one of the group that admits
    /// it (the search runs on into the next groups). `None` when no item of
    /// the keyspace does — a shed arrival.
    pub fn next(&mut self) -> Option<(Issued, ClientOp)> {
        let group = self.groups.pick(&mut self.rng);
        let first = self.rng.gen_range(0..SLOTS);
        let read = self.rng.gen_range(0..100u32) < self.read_pct;
        let item = (0..GROUPS * SLOTS)
            .map(|probe| (group * SLOTS + first + probe) % (GROUPS * SLOTS))
            .find(|&i| {
                let st = &self.items[i];
                !st.writing && (read || st.readers == 0)
            })?;
        let op = if read {
            self.items[item].readers += 1;
            ClientOp::Read {
                data: data_id(item),
                group: group_of(item),
                consistency: Consistency::Mrc,
            }
        } else {
            self.write_op(item)
        };
        Some((Issued { item, read }, op))
    }

    fn write_op(&mut self, item: Item) -> ClientOp {
        let st = &mut self.items[item];
        st.writing = true;
        st.attempted = st.acked + 1;
        ClientOp::Write {
            data: data_id(item),
            group: group_of(item),
            consistency: Consistency::Mrc,
            value: value_for(item, st.attempted, self.value_bytes),
        }
    }

    /// Books the completion of `issued` with the oracle; returns whether the
    /// operation succeeded and, for a read, returned an admissible value.
    pub fn completed(&mut self, issued: Issued, outcome: &Outcome) -> bool {
        match outcome {
            Outcome::ReadOk { value, .. } => self.read_done(issued.item, Some(value)),
            Outcome::WriteOk { .. } => {
                self.write_done(issued.item, true);
                true
            }
            _ if issued.read => {
                self.read_done(issued.item, None);
                false
            }
            _ => {
                self.write_done(issued.item, false);
                false
            }
        }
    }

    /// Frees the item of a completed write; `ok` acknowledges it.
    pub fn write_done(&mut self, item: Item, ok: bool) {
        let st = &mut self.items[item];
        st.writing = false;
        if ok {
            st.acked = st.attempted;
        }
    }

    /// Frees the item of a completed read. `value` is what a successful read
    /// returned; returns whether it is the value the oracle allows.
    pub fn read_done(&mut self, item: Item, value: Option<&[u8]>) -> bool {
        let st = &mut self.items[item];
        st.readers = st.readers.saturating_sub(1);
        let Some(value) = value else {
            return true;
        };
        let stamp = |at: usize| {
            value
                .get(at..at + 8)
                .and_then(|b| b.try_into().ok())
                .map(u64::from_be_bytes)
        };
        let right = value.len() == self.value_bytes.max(STAMP)
            && stamp(0) == Some(data_id(item).0)
            && stamp(8).is_some_and(|seq| (st.acked..=st.attempted).contains(&seq));
        if !right {
            self.wrong_reads += 1;
        }
        right
    }

    /// Successful reads that returned anything but the last acknowledged
    /// write.
    pub fn wrong_reads(&self) -> u64 {
        self.wrong_reads
    }
}

/// Fixed-interval arrival schedule. Arrivals keep their intended times
/// however late the generator polls, so a stall is charged to the operations
/// that were due during it.
pub struct Schedule {
    start: Instant,
    interval: Duration,
    issued: u64,
}

impl Schedule {
    /// `rate` arrivals per second, the first at `start`.
    pub fn new(start: Instant, rate: f64) -> Schedule {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
            issued: 0,
        }
    }

    /// When the next arrival is due.
    pub fn next_due(&self) -> Instant {
        // Multiplying (not accumulating) keeps rounding out of the schedule.
        self.start + self.interval.mul_f64(self.issued as f64)
    }

    /// The intended time of the next arrival if it is due at `now`, with how
    /// late the generator is for it.
    pub fn take_due(&mut self, now: Instant) -> Option<(Instant, Duration)> {
        let due = self.next_due();
        if due > now {
            return None;
        }
        self.issued += 1;
        Some((due, now - due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn schedule_keeps_intended_arrivals_when_late() {
        let t0 = Instant::now();
        let mut s = Schedule::new(t0, 1000.0);
        let ms = Duration::from_millis;
        assert_eq!(s.take_due(t0), Some((t0, Duration::ZERO)));
        assert_eq!(s.take_due(t0), None, "second arrival is due at 1 ms");
        // The generator stalls until 3.5 ms: arrivals 1, 2 and 3 are all due,
        // each at its own intended time, each with its own lag.
        let late = t0 + Duration::from_micros(3500);
        assert_eq!(
            s.take_due(late),
            Some((t0 + ms(1), Duration::from_micros(2500)))
        );
        assert_eq!(
            s.take_due(late),
            Some((t0 + ms(2), Duration::from_micros(1500)))
        );
        assert_eq!(
            s.take_due(late),
            Some((t0 + ms(3), Duration::from_micros(500)))
        );
        assert_eq!(s.take_due(late), None);
        assert_eq!(s.next_due(), t0 + ms(4));
    }

    #[test]
    fn same_seed_same_operations() {
        let ops = |seed| {
            let mut g = Generator::new(&WORKLOADS[0], seed);
            (0..200)
                .map(|_| g.next().map(|(i, _)| i))
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));
    }

    #[test]
    fn oracle_accepts_only_the_last_acknowledged_write() {
        let mut g = Generator::new(&WORKLOADS[0], 1);
        let item = 5;
        g.preload(item);
        g.write_done(item, true);
        assert!(g.read_done(item, Some(&value_for(item, 1, 128))));
        assert!(!g.read_done(item, Some(&value_for(item, 2, 128))));
        assert!(!g.read_done(item, Some(&value_for(item + 1, 1, 128))));
        assert!(!g.read_done(item, Some(&value_for(item, 1, 64))));
        assert_eq!(g.wrong_reads(), 3);
        // A failed write leaves both values admissible.
        g.write_op(item);
        g.write_done(item, false);
        assert!(g.read_done(item, Some(&value_for(item, 1, 128))));
        assert!(g.read_done(item, Some(&value_for(item, 2, 128))));
        assert!(g.read_done(item, None), "a failed read is not a wrong read");
    }

    #[test]
    fn reads_share_an_item_and_a_write_excludes_everything() {
        let mut g = Generator::new(&WORKLOADS[0], 3);
        for item in 0..GROUPS * SLOTS {
            g.preload(item);
        }
        assert!(g.next().is_none(), "every item is being written: shed");
        g.write_done(9, true);
        // Only item 9 admits anything now, whatever group is drawn.
        let (mut reads, mut writing) = (0, false);
        for _ in 0..200 {
            let Some((issued, _)) = g.next() else {
                continue;
            };
            assert_eq!(issued.item, 9);
            assert!(!writing, "a write excludes every other operation");
            if issued.read {
                reads += 1;
            } else {
                assert_eq!(reads, 0, "a write waits for the readers");
                writing = true;
            }
        }
        assert!(reads > 1 || writing);
    }
}
