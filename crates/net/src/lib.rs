//! Real TCP deployment path for the secure store.
//!
//! The repository's protocol logic lives in sans-I/O state machines
//! (`sstore-core`'s `ClientCore` / `ServerNode`); this crate is the third
//! and outermost shell around them:
//!
//! 1. **deterministic simulator** (`sstore-simnet`) — protocol validation
//!    with seeded faults;
//! 2. **threaded in-process transport** (`sstore-transport`) — real time,
//!    real concurrency, in-memory channels;
//! 3. **`sstore-net`** (this crate) — real sockets: a canonical binary
//!    codec (`sstore_core::codec`) under length-prefixed framing, the
//!    [`NetServer`] daemon (one non-blocking event loop that blocks only
//!    in `sstore_ready::WaitSet::wait` — one `ppoll(2)` over listener,
//!    waker and connections — and reads only the sockets it reports
//!    ready; also packaged as the `sstore-server` binary, one repository
//!    server per process), the
//!    pipelining [`PipeClient`] that multiplexes many in-flight
//!    operations over one connection set with per-op deadlines, jittered
//!    redial, link quarantine and hedged reads, and the blocking
//!    [`NetClient`], which is that client with one operation in flight.
//!
//! The byte-for-byte identical state machines are the point: behavior
//! validated in the simulator is the behavior deployed on the wire. The
//! failure model also carries over — a crashed or unreachable server is
//! *silence*, never an error, so client quorum logic degrades gracefully
//! with up to `b` servers gone (paper §3.4).
//!
//! Applications use [`StoreHandle`] to stay generic over deployment path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
mod client;
mod coalesce;
mod conn;
mod event_loop;
mod frame;
mod pipeline;
mod server;
pub mod wirechaos;

pub use backoff::{decorrelated_jitter, jittered, Backoff, LinkHealth};
pub use client::{NetClient, NetClientConfig, NetCluster};
pub use coalesce::{frames_from, Coalescer};
pub use conn::{Enqueued, FrameReader, WriteQueue};
pub use frame::{
    decode_hello, encode_hello, read_frame, write_frame, WireError, DEFAULT_MAX_FRAME,
};
pub use pipeline::PipeClient;
pub use server::{NetServer, NetServerConfig};
pub use sstore_core::{StoreError, StoreHandle};
