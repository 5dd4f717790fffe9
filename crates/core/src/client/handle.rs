//! The blocking client API, defined once for every deployment path.
//!
//! A driver — in-memory channels (`sstore-transport`), TCP sockets
//! (`sstore-net`) — knows how to push one [`ClientOp`] through a
//! [`ClientCore`](super::ClientCore) until it completes. Everything an
//! application sees on top of that (the typed `connect / write / read /
//! mw_*` calls and the [`Outcome`] → [`StoreError`] mapping) is the same
//! for all of them, so it lives here as provided methods of
//! [`StoreHandle`].

use super::{ClientOp, OpResult, Outcome};
use crate::context::Context;
use crate::types::{Consistency, DataId, GroupId, Timestamp};

/// Error returned by blocking client operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The operation could not assemble its quorum.
    Unavailable,
    /// The read found only values older than the client's context.
    Stale,
    /// A multi-writer read exposed an equivocating writer.
    FaultyWriter,
    /// The cluster has shut down.
    Disconnected,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Unavailable => write!(f, "quorum unavailable"),
            StoreError::Stale => write!(f, "only stale copies reachable"),
            StoreError::FaultyWriter => write!(f, "writer equivocation detected"),
            StoreError::Disconnected => write!(f, "cluster has shut down"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Turns a completed operation's failure [`Outcome`] into its error.
fn checked(r: OpResult) -> Result<OpResult, StoreError> {
    match r.outcome {
        Outcome::Unavailable => Err(StoreError::Unavailable),
        Outcome::Stale { .. } => Err(StoreError::Stale),
        Outcome::FaultyWriterDetected { .. } => Err(StoreError::FaultyWriter),
        _ => Ok(r),
    }
}

fn written(r: OpResult) -> Result<Timestamp, StoreError> {
    match checked(r)?.outcome {
        Outcome::WriteOk { ts } => Ok(ts),
        _ => Err(StoreError::Unavailable),
    }
}

fn read_back(r: OpResult) -> Result<(Timestamp, Vec<u8>, usize), StoreError> {
    match checked(r)?.outcome {
        Outcome::ReadOk {
            ts,
            value,
            confirmations,
        } => Ok((ts, value, confirmations)),
        _ => Err(StoreError::Unavailable),
    }
}

/// The blocking client API shared by every deployment path.
///
/// A driver implements [`run_op`](StoreHandle::run_op),
/// [`context`](StoreHandle::context) and
/// [`simulate_crash`](StoreHandle::simulate_crash); applications call the
/// provided typed methods and so run unchanged — same operations, same
/// [`StoreError`] surface, same blocking semantics — wherever the cluster
/// actually lives.
pub trait StoreHandle {
    /// Drives `op` until the client state machine completes it and returns
    /// the completed result *whatever its outcome*.
    ///
    /// # Errors
    ///
    /// Only when the driver itself gives up: [`StoreError::Unavailable`]
    /// at its hard deadline, [`StoreError::Disconnected`] when the cluster
    /// is gone.
    fn run_op(&mut self, op: ClientOp) -> Result<OpResult, StoreError>;

    /// The client's current context for `group`.
    fn context(&self, group: GroupId) -> Context;

    /// Drops all volatile state as if the process crashed (then use
    /// `connect(group, true)` to reconstruct).
    fn simulate_crash(&mut self);

    /// Starts a session for `group`; `recover` reconstructs the context
    /// from server metadata instead of reading the stored copy.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if the context quorum cannot form.
    fn connect(&mut self, group: GroupId, recover: bool) -> Result<OpResult, StoreError> {
        checked(self.run_op(ClientOp::Connect { group, recover })?)
    }

    /// Stores the context and ends the session.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if the context quorum cannot form.
    fn disconnect(&mut self, group: GroupId) -> Result<OpResult, StoreError> {
        checked(self.run_op(ClientOp::Disconnect { group })?)
    }

    /// Single-writer write.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if `b+1` servers cannot be reached.
    fn write(
        &mut self,
        data: DataId,
        group: GroupId,
        consistency: Consistency,
        value: Vec<u8>,
    ) -> Result<Timestamp, StoreError> {
        let op = ClientOp::Write {
            data,
            group,
            consistency,
            value,
        };
        written(self.run_op(op)?)
    }

    /// Single-writer read; returns `(timestamp, value)`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Stale`] when only older-than-context copies are
    /// reachable; [`StoreError::Unavailable`] when no quorum forms.
    fn read(
        &mut self,
        data: DataId,
        group: GroupId,
        consistency: Consistency,
    ) -> Result<(Timestamp, Vec<u8>), StoreError> {
        let op = ClientOp::Read {
            data,
            group,
            consistency,
        };
        let (ts, value, _) = read_back(self.run_op(op)?)?;
        Ok((ts, value))
    }

    /// Multi-writer write.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if `2b+1` servers cannot be reached.
    fn mw_write(
        &mut self,
        data: DataId,
        group: GroupId,
        value: Vec<u8>,
    ) -> Result<Timestamp, StoreError> {
        written(self.run_op(ClientOp::MwWrite { data, group, value })?)
    }

    /// Multi-writer read; returns `(timestamp, value, confirmations)`.
    ///
    /// # Errors
    ///
    /// Same as [`StoreHandle::read`], plus [`StoreError::FaultyWriter`]
    /// when the read exposes writer equivocation.
    fn mw_read(
        &mut self,
        data: DataId,
        group: GroupId,
        consistency: Consistency,
    ) -> Result<(Timestamp, Vec<u8>, usize), StoreError> {
        let op = ClientOp::MwRead {
            data,
            group,
            consistency,
        };
        read_back(self.run_op(op)?)
    }
}
