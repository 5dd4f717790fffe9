//! # sstore-core — a secure and highly available distributed store
//!
//! Rust reproduction of *"A Secure and Highly Available Distributed Store
//! for Meeting Diverse Data Storage Needs"* (Lakshmanan, Ahamad,
//! Venkateswaran — DSN 2001).
//!
//! The store is implemented by `n` replicated, **passive** servers, up to
//! `b` of which may fail arbitrarily (Byzantine). Clients sign everything
//! they store and enforce consistency themselves from per-group *context*
//! metadata, which buys small quorums:
//!
//! | Operation | Servers contacted |
//! |---|---|
//! | context read/write | `⌈(n+b+1)/2⌉` |
//! | single-writer data read/write | `b+1` |
//! | multi-writer data read/write | `2b+1` |
//!
//! compared with `⌈(n+2b+1)/2⌉` for masking quorums and `O(n²)` messages
//! for BFT state machine replication (see the `sstore-baselines` crate).
//!
//! ## Crate layout
//!
//! - [`types`], [`context`], [`item`], [`encoding`]: protocol data model —
//!   timestamps (plain versions and `(time, uid, d(v))` tuples), contexts,
//!   signed items, canonical signing bytes.
//! - [`codec`]: canonical binary wire codec (encode + strict decoder) used
//!   by the TCP deployment path (`sstore-net`).
//! - [`quorum`]: the quorum arithmetic above.
//! - [`server`]: the passive repository state machine — storage, gossip
//!   dissemination, multi-writer write logs with causal holdback and GC.
//! - [`client`]: the consistency-enforcing client — sessions (context
//!   acquisition/storage/reconstruction), MRC/CC reads and writes,
//!   multi-writer reads and writes; plus [`StoreHandle`], the blocking
//!   API every real-time driver of that state machine shares.
//! - [`metrics`], [`vcache`]: §6 crypto-operation accounting and the
//!   bounded LRU verification cache that lets nodes skip re-verifying
//!   signatures they have already validated.
//! - [`faults`]: Byzantine server behaviours for fault injection.
//! - [`sim`]: a harness running whole clusters inside the deterministic
//!   `sstore-simnet` simulator.
//! - [`confidential`]: client-side encryption helpers (non-shared data) and
//!   fragmentation backends.
//!
//! ## Quickstart
//!
//! ```
//! use sstore_core::client::ClientOp;
//! use sstore_core::sim::{ClusterBuilder, Step};
//! use sstore_core::types::{Consistency, DataId, GroupId};
//!
//! let group = GroupId(1);
//! let mut cluster = ClusterBuilder::new(4, 1)
//!     .client(vec![
//!         Step::Do(ClientOp::Connect { group, recover: false }),
//!         Step::Do(ClientOp::Write {
//!             data: DataId(1),
//!             group,
//!             consistency: Consistency::Mrc,
//!             value: b"tax-return-2001".to_vec(),
//!         }),
//!         Step::Do(ClientOp::Read {
//!             data: DataId(1),
//!             group,
//!             consistency: Consistency::Mrc,
//!         }),
//!         Step::Do(ClientOp::Disconnect { group }),
//!     ])
//!     .build();
//! cluster.run_to_quiescence();
//! let results = cluster.client_results(0);
//! assert_eq!(results.len(), 4);
//! assert!(results.iter().all(|r| r.outcome.is_ok()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod codec;
pub mod confidential;
pub mod config;
pub mod context;
pub mod directory;
pub mod encoding;
pub mod faults;
pub mod item;
pub mod metrics;
pub mod quorum;
pub mod server;
pub mod sim;
pub mod types;
pub mod vcache;
pub mod wire;

pub use client::{ClientCore, ClientOp, OpKind, OpResult, Outcome, StoreError, StoreHandle};
pub use config::{ClientConfig, GossipConfig, MultiWriterConfig, RetryPolicy, ServerConfig};
pub use context::Context;
pub use directory::Directory;
pub use item::{ItemMeta, SignedContext, StoredItem};
pub use server::{Addr, ServerNode};
pub use types::{ClientId, Consistency, DataId, GroupId, OpId, ServerId, Timestamp};
pub use vcache::VerifyCache;
pub use wire::Msg;
