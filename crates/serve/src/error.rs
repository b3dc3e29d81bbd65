//! Structured service errors.
//!
//! Every way the service can refuse or lose work has its own variant
//! carrying the numbers a client needs to react: [`ServeError::Overloaded`]
//! says how deep the queue was and when to retry, and
//! [`ServeError::QuotaExceeded`] names the exhausted resource with the
//! requested/limit/in-use triple. The `bqsim` CLI maps each variant to a
//! distinct exit code (see the README's exit-code table).

use bqsim_campaign::JournalError;
use std::fmt;

/// Why the service rejected a submission or failed outright.
#[derive(Debug)]
pub enum ServeError {
    /// The bounded admission queue is full and the overload ladder could
    /// not make room. The submission was **not** enqueued — no unbounded
    /// buffering — and `retry_after_ms` is the service's backpressure
    /// hint.
    Overloaded {
        /// Queue depth observed at rejection.
        queue_depth: usize,
        /// The configured queue bound.
        queue_capacity: usize,
        /// Suggested client-side retry delay.
        retry_after_ms: u64,
    },
    /// Admitting the submission would overshoot one of the tenant's
    /// quotas.
    QuotaExceeded {
        /// The tenant whose quota would be overshot.
        tenant: String,
        /// `"amp-bytes"`, `"in-flight"`, or `"precision-floor"` (for
        /// the floor, `requested`/`limit` are accuracy ranks — f32=0,
        /// f64=2 — not byte counts).
        resource: &'static str,
        /// What the submission asked for.
        requested: u64,
        /// The tenant's limit for the resource.
        limit: u64,
        /// What the tenant already holds.
        in_use: u64,
    },
    /// The submission spec itself is malformed (bad tenant/id characters,
    /// unknown circuit family, zero batches, …).
    InvalidSpec(String),
    /// The service's state directory, manifest, or trace could not be
    /// read or written.
    State(String),
    /// A per-submission campaign journal failed (I/O, corruption, or a
    /// fingerprint mismatch on resume).
    Journal(JournalError),
    /// The simulation itself failed unrecoverably.
    Sim(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded {
                queue_depth,
                queue_capacity,
                retry_after_ms,
            } => write!(
                f,
                "service overloaded: admission queue at depth {queue_depth} of \
                 capacity {queue_capacity}; retry after {retry_after_ms} ms"
            ),
            ServeError::QuotaExceeded {
                tenant,
                resource,
                requested,
                limit,
                in_use,
            } => write!(
                f,
                "tenant `{tenant}` {resource} quota exceeded: requested {requested} \
                 with {in_use} in use against limit {limit}"
            ),
            ServeError::InvalidSpec(msg) => write!(f, "invalid submission: {msg}"),
            ServeError::State(msg) => write!(f, "service state error: {msg}"),
            ServeError::Journal(e) => write!(f, "{e}"),
            ServeError::Sim(msg) => write!(f, "simulation failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for ServeError {
    fn from(e: JournalError) -> Self {
        ServeError::Journal(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::State(e.to_string())
    }
}
