//! The unified crate-public error hierarchy.
//!
//! Every fallible surface a service client or operator touches — environment
//! construction, checkpoint decoding, machine validation, the wire protocol —
//! folds into one [`EagleError`] enum with `From` impls and
//! stable display strings, replacing the per-crate `Result<_, String>` stragglers
//! the pre-serving API grew. Wire replies carry the typed [`ErrorCode`] projection
//! (see [`crate::api::ApiError`]), so clients can branch on the *kind* of failure
//! without parsing prose.

use eagle_core::CheckpointError;
use eagle_devsim::{EnvError, MachineError};

use crate::api::{ApiError, ErrorCode};

/// Any failure the EAGLE system can report across its public API.
#[derive(Debug)]
pub enum EagleError {
    /// Environment construction rejected the graph/machine/knob configuration.
    Env(EnvError),
    /// A checkpoint file could not be read, verified, or decoded.
    Checkpoint(CheckpointError),
    /// A machine configuration failed builder validation.
    Machine(MachineError),
    /// Filesystem or socket error.
    Io(std::io::Error),
    /// JSON (de)serialization error.
    Json(serde_json::Error),
    /// A request line was not a valid protocol message.
    Protocol(String),
    /// The request declared a wire schema version this build does not speak.
    SchemaVersion {
        /// Version found in the request.
        found: u64,
        /// Version this build speaks.
        expected: u64,
    },
    /// No policy is published for the requested graph family.
    UnknownFamily(String),
    /// A `graph_key` was not registered on this server.
    UnknownGraphKey(String),
    /// The stored policy's parameter layout does not fit the request's
    /// graph/machine (e.g. trained for a different device count).
    PolicyMismatch(String),
    /// The request was well-formed JSON but semantically invalid.
    BadRequest(String),
    /// Every sampled candidate placement was invalid (OOM) on the machine.
    Infeasible(String),
    /// Admission control shed the request: the router queue (or the family's
    /// quota share of it) is at capacity. Carries a retry hint derived from the
    /// queue depth and recent wave service time.
    Overloaded {
        /// Requests queued ahead at rejection time.
        queued: usize,
        /// The capacity that was hit (queue bound or family quota).
        capacity: usize,
        /// Estimated milliseconds until a retry is likely to be admitted.
        retry_after_ms: u64,
    },
    /// The request's `deadline_ms` budget expired before its wave ran.
    DeadlineExceeded(String),
    /// The daemon failed while answering (a panic caught inside a wave).
    Internal(String),
}

impl std::fmt::Display for EagleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EagleError::Env(e) => write!(f, "environment error: {e}"),
            EagleError::Checkpoint(e) => write!(f, "{e}"),
            EagleError::Machine(e) => write!(f, "machine error: {e}"),
            EagleError::Io(e) => write!(f, "I/O error: {e}"),
            EagleError::Json(e) => write!(f, "{e}"),
            EagleError::Protocol(m) => write!(f, "protocol error: {m}"),
            EagleError::SchemaVersion { found, expected } => {
                write!(f, "unsupported schema version {found}; this server speaks {expected}")
            }
            EagleError::UnknownFamily(name) => write!(f, "no policy published for family {name}"),
            EagleError::UnknownGraphKey(key) => write!(f, "unknown graph key {key}"),
            EagleError::PolicyMismatch(m) => write!(f, "policy mismatch: {m}"),
            EagleError::BadRequest(m) => write!(f, "bad request: {m}"),
            EagleError::Infeasible(m) => write!(f, "infeasible: {m}"),
            EagleError::Overloaded { queued, capacity, retry_after_ms } => write!(
                f,
                "overloaded: {queued} requests queued against capacity {capacity}; \
                 retry in ~{retry_after_ms} ms"
            ),
            EagleError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
            EagleError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for EagleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EagleError::Env(e) => Some(e),
            EagleError::Checkpoint(e) => Some(e),
            EagleError::Machine(e) => Some(e),
            EagleError::Io(e) => Some(e),
            EagleError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EnvError> for EagleError {
    fn from(e: EnvError) -> Self {
        EagleError::Env(e)
    }
}

impl From<CheckpointError> for EagleError {
    fn from(e: CheckpointError) -> Self {
        EagleError::Checkpoint(e)
    }
}

impl From<MachineError> for EagleError {
    fn from(e: MachineError) -> Self {
        EagleError::Machine(e)
    }
}

impl From<std::io::Error> for EagleError {
    fn from(e: std::io::Error) -> Self {
        EagleError::Io(e)
    }
}

impl From<serde_json::Error> for EagleError {
    fn from(e: serde_json::Error) -> Self {
        EagleError::Json(e)
    }
}

impl EagleError {
    /// The wire-level error code clients branch on.
    pub fn code(&self) -> ErrorCode {
        match self {
            EagleError::Protocol(_) | EagleError::Json(_) => ErrorCode::Protocol,
            EagleError::SchemaVersion { .. } => ErrorCode::SchemaVersion,
            EagleError::UnknownFamily(_) => ErrorCode::UnknownFamily,
            EagleError::UnknownGraphKey(_) => ErrorCode::UnknownGraphKey,
            EagleError::PolicyMismatch(_) => ErrorCode::PolicyMismatch,
            EagleError::BadRequest(_) | EagleError::Machine(_) | EagleError::Env(_) => {
                ErrorCode::BadRequest
            }
            EagleError::Infeasible(_) => ErrorCode::Infeasible,
            EagleError::Overloaded { .. } => ErrorCode::Overloaded,
            EagleError::DeadlineExceeded(_) => ErrorCode::DeadlineExceeded,
            EagleError::Checkpoint(_) | EagleError::Io(_) | EagleError::Internal(_) => {
                ErrorCode::Internal
            }
        }
    }

    /// The typed wire reply for this error. Only `Overloaded` carries the
    /// `retry_after_ms` hint; every other code sends `null`.
    pub fn to_api(&self) -> ApiError {
        let retry_after_ms = match self {
            EagleError::Overloaded { retry_after_ms, .. } => Some(*retry_after_ms),
            _ => None,
        };
        ApiError { code: self.code(), message: self.to_string(), retry_after_ms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings_are_stable() {
        assert_eq!(
            EagleError::UnknownFamily("gnmt".into()).to_string(),
            "no policy published for family gnmt"
        );
        assert_eq!(
            EagleError::SchemaVersion { found: 9, expected: 1 }.to_string(),
            "unsupported schema version 9; this server speaks 1"
        );
        assert_eq!(
            EagleError::from(EnvError::EmptyGraph).to_string(),
            "environment error: op graph has no nodes"
        );
        assert_eq!(
            EagleError::from(MachineError::NoDevices).to_string(),
            "machine error: machine has no devices"
        );
        assert_eq!(
            EagleError::Internal("wave panicked".into()).to_string(),
            "internal error: wave panicked"
        );
    }

    #[test]
    fn codes_partition_the_variants() {
        assert_eq!(EagleError::Protocol("x".into()).code(), ErrorCode::Protocol);
        assert_eq!(EagleError::Infeasible("x".into()).code(), ErrorCode::Infeasible);
        assert_eq!(EagleError::BadRequest("x".into()).code(), ErrorCode::BadRequest);
        assert_eq!(EagleError::Io(std::io::Error::other("boom")).code(), ErrorCode::Internal);
        assert_eq!(EagleError::Internal("x".into()).code(), ErrorCode::Internal);
        let over = EagleError::Overloaded { queued: 8, capacity: 8, retry_after_ms: 5 };
        assert_eq!(over.code(), ErrorCode::Overloaded);
        assert_eq!(EagleError::DeadlineExceeded("x".into()).code(), ErrorCode::DeadlineExceeded);
    }

    #[test]
    fn only_overloaded_carries_the_retry_hint() {
        let over = EagleError::Overloaded { queued: 8, capacity: 8, retry_after_ms: 5 };
        assert_eq!(over.to_api().retry_after_ms, Some(5));
        assert_eq!(
            over.to_string(),
            "overloaded: 8 requests queued against capacity 8; retry in ~5 ms"
        );
        assert_eq!(EagleError::DeadlineExceeded("late".into()).to_api().retry_after_ms, None);
        assert_eq!(EagleError::BadRequest("x".into()).to_api().retry_after_ms, None);
    }
}
