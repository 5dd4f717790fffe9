//! Readiness wait set: block until a file descriptor is ready or a
//! timeout passes.
//!
//! `std` has non-blocking sockets but no way to *wait* on several of them,
//! so a loop built on `std` alone has to probe every socket and nap. This
//! crate is the missing call and nothing else: [`WaitSet`] is a vector of
//! `(fd, interest)` entries and [`WaitSet::wait`] is one `ppoll(2)` over
//! it. `ppoll` rather than `poll` because its timeout is a `timespec`:
//! the server's group-commit deadline is 500 µs, and `poll`'s whole
//! milliseconds would either double the write latency or spin.
//!
//! This is the workspace's only `unsafe` code (`sstore-lint` rejects the
//! keyword in every other file): one foreign call, declared here so the
//! workspace needs no `libc` crate — `std` already links the C library.
//!
//! On anything but 64-bit Linux, and under Miri, `wait` has no readiness
//! source: it sleeps `min(timeout, 1 ms)` and reports every slot ready, so
//! a caller probes every non-blocking socket each millisecond — slower to
//! react, never wrong.
//!
//! Readiness is level-triggered: a descriptor with unread bytes reports
//! ready on every wait until they are read. A caller therefore asks for
//! writability only while it has bytes queued, or an idle writable socket
//! turns the wait into a spin.

#![warn(missing_docs)]

use std::io;
use std::time::Duration;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// Any of these in `revents` means "touch this descriptor": data, room to
/// write, or a condition (hang-up, error, closed fd) the next `read` or
/// `write` will surface as an error.
const READY: i16 = POLLIN | POLLOUT | POLLERR | POLLHUP | POLLNVAL;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// A reusable set of file descriptors to wait on. Rebuild it with
/// [`WaitSet::clear`] and [`WaitSet::push`] before each wait; the
/// allocation is kept.
#[derive(Default)]
pub struct WaitSet {
    fds: Vec<PollFd>,
}

impl WaitSet {
    /// An empty set.
    pub fn new() -> WaitSet {
        WaitSet::default()
    }

    /// Empties the set, keeping its allocation.
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Adds `fd` (a raw descriptor, `AsRawFd::as_raw_fd`) and returns its
    /// slot for [`WaitSet::ready`]. Readability, hang-up and errors are
    /// always reported; writability only when `want_write`. The slot
    /// reports not-ready until the next [`WaitSet::wait`].
    pub fn push(&mut self, fd: i32, want_write: bool) -> usize {
        let events = if want_write { POLLIN | POLLOUT } else { POLLIN };
        self.fds.push(PollFd {
            fd,
            events,
            revents: 0,
        });
        self.fds.len().saturating_sub(1)
    }

    /// Blocks until an entry is ready or `timeout` passes, and returns how
    /// many entries are ready. A signal ends the wait early with `Ok(0)`.
    ///
    /// # Errors
    ///
    /// The `ppoll` failure (`ENOMEM`, or `EINVAL` for more entries than
    /// the process may have open). Every slot then reports ready, so a
    /// caller that carries on probes every descriptor instead of missing
    /// one.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<usize> {
        sys::wait(&mut self.fds, timeout)
    }

    /// Whether the entry at `slot` was ready at the last wait.
    pub fn ready(&self, slot: usize) -> bool {
        self.fds.get(slot).is_some_and(|p| p.revents & READY != 0)
    }
}

/// The real thing: 64-bit Linux, where `time_t`, `long` and `nfds_t` are
/// all 64 bits wide.
#[cfg(all(target_os = "linux", target_pointer_width = "64", not(miri)))]
mod sys {
    use super::{PollFd, READY};
    use std::io;
    use std::time::Duration;

    /// `struct timespec` from `<time.h>`.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        /// `int ppoll(struct pollfd *, nfds_t, const struct timespec *,
        /// const sigset_t *)`.
        fn ppoll(
            fds: *mut PollFd,
            nfds: usize,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }

    pub(super) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        let ts = Timespec {
            tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` structs laid out as `struct pollfd`, and the
        // pointer and length passed are its own, so the kernel reads and
        // writes inside it; of each entry it writes only `revents`, an
        // `i16` for which every bit pattern is valid. `ts` lives on this
        // stack frame for the whole call and is only read; `tv_nsec` is
        // below 10^9 by `subsec_nanos`. The null signal mask means "leave
        // the mask alone". A descriptor that was closed, or never open,
        // is not undefined behaviour: the kernel reports it as
        // `POLLNVAL`.
        let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len(), &ts, std::ptr::null()) };
        if let Ok(n) = usize::try_from(n) {
            return Ok(n);
        }
        let err = io::Error::last_os_error();
        let interrupted = err.kind() == io::ErrorKind::Interrupted;
        for p in fds.iter_mut() {
            p.revents = if interrupted { 0 } else { READY };
        }
        if interrupted {
            Ok(0)
        } else {
            Err(err)
        }
    }
}

/// No readiness source on this target: nap and report everything ready.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64", not(miri))))]
mod sys {
    use super::PollFd;
    use std::io;
    use std::time::Duration;

    pub(super) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
        for p in fds.iter_mut() {
            p.revents = p.events;
        }
        Ok(fds.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_slot_is_not_ready_and_clear_empties() {
        let mut set = WaitSet::new();
        let slot = set.push(-1, false);
        assert_eq!(slot, 0);
        assert!(!set.ready(slot), "not ready before a wait");
        assert!(!set.ready(7));
        set.clear();
        assert_eq!(set.push(-1, true), 0);
    }

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64", not(miri))))]
    #[test]
    fn fallback_naps_and_marks_every_slot_ready() {
        let mut set = WaitSet::new();
        let a = set.push(-1, false);
        let b = set.push(-1, true);
        assert_eq!(set.wait(Duration::from_secs(5)).expect("nap"), 2);
        assert!(set.ready(a) && set.ready(b));
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64", not(miri)))]
    mod linux {
        use super::*;
        use std::io::Write;
        use std::os::unix::io::AsRawFd;
        use std::os::unix::net::UnixStream;
        use std::sync::{Arc, Barrier};
        use std::time::Instant;

        #[test]
        fn byte_from_another_thread_wakes_the_wait_and_marks_only_that_slot() {
            let (quiet_rx, _quiet_tx) = UnixStream::pair().expect("pair");
            let (rx, mut tx) = UnixStream::pair().expect("pair");
            let mut set = WaitSet::new();
            let quiet = set.push(quiet_rx.as_raw_fd(), false);
            let woken = set.push(rx.as_raw_fd(), false);
            // Either order — byte before the wait starts or during it —
            // must report the same thing; the barrier only makes both
            // likely across runs.
            let gate = Arc::new(Barrier::new(2));
            let writer = {
                let gate = gate.clone();
                std::thread::spawn(move || {
                    gate.wait();
                    tx.write_all(&[1]).expect("write");
                    tx
                })
            };
            gate.wait();
            let n = set.wait(Duration::from_millis(200)).expect("wait");
            assert_eq!(n, 1, "woken by the byte, not by the timeout");
            assert!(set.ready(woken));
            assert!(!set.ready(quiet));
            let _tx = writer.join().expect("writer");
        }

        #[test]
        fn sub_millisecond_timeout_is_honoured() {
            let (rx, _tx) = UnixStream::pair().expect("pair");
            let mut set = WaitSet::new();
            let slot = set.push(rx.as_raw_fd(), false);
            // Best of a few attempts: one descheduling on a busy host
            // must not fail the test, a millisecond-granular timeout must.
            let mut best = Duration::MAX;
            for _ in 0..5 {
                let t0 = Instant::now();
                assert_eq!(set.wait(Duration::from_micros(300)).expect("wait"), 0);
                best = best.min(t0.elapsed());
                assert!(!set.ready(slot));
            }
            assert!(best < Duration::from_millis(2), "took {best:?}");
            assert!(best >= Duration::from_micros(300), "returned early");
        }

        #[test]
        fn idle_socket_is_ready_only_if_writability_was_asked_for() {
            let (a, _b) = UnixStream::pair().expect("pair");
            let mut set = WaitSet::new();
            let slot = set.push(a.as_raw_fd(), false);
            assert_eq!(set.wait(Duration::from_millis(1)).expect("wait"), 0);
            assert!(!set.ready(slot));
            set.clear();
            let slot = set.push(a.as_raw_fd(), true);
            assert_eq!(set.wait(Duration::from_secs(5)).expect("wait"), 1);
            assert!(set.ready(slot), "an empty send buffer is writable");
        }

        #[test]
        fn closed_peer_reports_ready() {
            let (a, b) = UnixStream::pair().expect("pair");
            drop(b);
            let mut set = WaitSet::new();
            let slot = set.push(a.as_raw_fd(), false);
            assert_eq!(set.wait(Duration::from_secs(5)).expect("wait"), 1);
            assert!(set.ready(slot));
        }

        #[test]
        fn descriptor_that_is_not_open_reports_ready_not_an_error() {
            let mut set = WaitSet::new();
            // No process has this many descriptors; a closed one looks the
            // same to the kernel but its number could be reused by a
            // neighbouring test.
            let slot = set.push(i32::MAX, false);
            assert_eq!(set.wait(Duration::from_secs(5)).expect("wait"), 1);
            assert!(set.ready(slot), "POLLNVAL counts as ready");
        }
    }
}
