//! Error types shared across the `sms-core` crate.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by symbolic-encoding operations.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// An operation required at least one sample/value but got none.
    EmptyInput(&'static str),
    /// Alphabet sizes must be powers of two in `[2, 2^16]` because symbols
    /// are stored as binary strings (paper §3, "we used only the power of 2").
    InvalidAlphabetSize(usize),
    /// Symbol resolution (in bits) outside the supported `1..=16` range.
    InvalidResolution(u8),
    /// Separators handed to a lookup table were not non-decreasing.
    NonMonotonicSeparators {
        /// Index of the first offending separator.
        index: usize,
    },
    /// A lookup table of `k` symbols needs exactly `k - 1` separators.
    SeparatorCount {
        /// Separators required for the alphabet (`k - 1`).
        expected: usize,
        /// Separators actually provided.
        got: usize,
    },
    /// Attempted to combine symbolic series of incompatible resolutions
    /// without an explicit conversion.
    ResolutionMismatch {
        /// Resolution (bits) of the first operand.
        left: u8,
        /// Resolution (bits) of the second operand.
        right: u8,
    },
    /// Timestamps handed to a time series were decreasing.
    NonMonotonicTimestamps {
        /// Index of the first out-of-order sample.
        index: usize,
    },
    /// A value handed to a time series was NaN or infinite. Series are
    /// NaN-free by construction; untrusted readings go through
    /// [`crate::quality::Sanitizer`] instead.
    NonFiniteValue {
        /// Index of the first non-finite sample.
        index: usize,
    },
    /// A sample failed a data-quality check whose policy is
    /// [`crate::quality::Policy::Reject`].
    DataQuality {
        /// The defect class that was rejected (e.g. `"non_finite"`).
        defect: &'static str,
        /// Index of the first offending sample.
        index: usize,
    },
    /// [`crate::ingest::FleetIngest`] refused to create a gateway for a new
    /// meter because [`max_meters`](crate::ingest::IngestConfig::max_meters)
    /// gateways already exist.
    TooManyMeters {
        /// The configured cap.
        max: usize,
    },
    /// [`crate::ingest::FleetIngest`] refused a chunk because accepting it
    /// could push the fleet's buffered backlog past
    /// [`max_buffered_bytes`](crate::ingest::IngestConfig::max_buffered_bytes).
    BacklogExceeded {
        /// Bytes currently buffered across every meter.
        buffered: usize,
        /// Size of the rejected chunk.
        incoming: usize,
        /// The configured cap.
        max: usize,
    },
    /// A parameter was outside its documented domain.
    InvalidParameter {
        /// The parameter's name.
        name: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// A symbol string failed to parse (only '0'/'1' are valid characters).
    SymbolParse(String),
    /// Wire-format decoding failed.
    WireFormat(String),
    /// A frame header announced a payload larger than the decoder's
    /// configured [`max_frame_len`](crate::wire::FrameDecoder::max_frame_len).
    /// Returned instead of buffering indefinitely for a frame that may never
    /// complete (an adversarial header can announce up to 4 GiB).
    FrameTooLarge {
        /// Payload length announced by the frame header.
        len: usize,
        /// The decoder's configured maximum.
        max: usize,
    },
    /// A gateway connection was throttled by its token-bucket rate limiter:
    /// the session's bucket is empty and reads are paused until it refills.
    /// Counted in [`crate::gateway::GatewayStats::rate_limit_hits`], never
    /// dropped silently.
    RateLimited {
        /// Meter id of the throttled session.
        meter: u64,
    },
    /// A gateway connection exceeded its per-connection byte quota and was
    /// closed. Counted in
    /// [`crate::gateway::GatewayStats::quota_closed`], never dropped
    /// silently.
    QuotaExceeded {
        /// Meter id of the closed session.
        meter: u64,
        /// Bytes the connection had already sent.
        received: u64,
        /// The configured per-connection quota.
        max: u64,
    },
    /// (De)serialization of a lookup table failed.
    Serde(String),
    /// The parallel fleet engine failed (worker or channel breakdown).
    Engine(String),
    /// A [`crate::segstore::SegmentStore`] operation failed: an irregular
    /// series that cannot be packed as `(start, interval, count)`, a query
    /// outside a segment's resolution, or a persisted image whose announced
    /// lengths do not reconcile with the buffer (validated **before** any
    /// allocation, like the wire decoder's
    /// [`FrameTooLarge`](Self::FrameTooLarge) path).
    Store(String),
    /// A durable-storage backend operation ([`crate::durable::Storage`])
    /// failed. The operation may have partially applied — the backend's
    /// on-disk state must be treated as torn until recovery re-opens it.
    /// Carried as a message because `std::io::Error` is neither `Clone`
    /// nor `PartialEq`. The shard layer treats this variant (and only
    /// this variant) as grounds to mark a shard dead and fail its houses
    /// over to successor vnodes.
    Io(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyInput(what) => write!(f, "empty input: {what}"),
            Error::InvalidAlphabetSize(k) => {
                write!(f, "invalid alphabet size {k}: must be a power of two in [2, 65536]")
            }
            Error::InvalidResolution(bits) => {
                write!(f, "invalid symbol resolution {bits} bits: must be in 1..=16")
            }
            Error::NonMonotonicSeparators { index } => {
                write!(f, "separators must be non-decreasing (violated at index {index})")
            }
            Error::SeparatorCount { expected, got } => {
                write!(f, "expected {expected} separators, got {got}")
            }
            Error::ResolutionMismatch { left, right } => {
                write!(f, "symbol resolution mismatch: {left} bits vs {right} bits")
            }
            Error::NonMonotonicTimestamps { index } => {
                write!(f, "timestamps must be non-decreasing (violated at index {index})")
            }
            Error::NonFiniteValue { index } => {
                write!(f, "values must be finite (NaN/inf at index {index})")
            }
            Error::DataQuality { defect, index } => {
                write!(f, "data-quality check `{defect}` rejected sample {index}")
            }
            Error::TooManyMeters { max } => {
                write!(f, "meter limit reached: {max} gateways already exist")
            }
            Error::BacklogExceeded { buffered, incoming, max } => {
                write!(
                    f,
                    "ingest backlog limit: {buffered} bytes buffered + {incoming} incoming \
                     exceeds the {max}-byte cap"
                )
            }
            Error::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            Error::SymbolParse(s) => write!(f, "cannot parse symbol from {s:?}"),
            Error::WireFormat(msg) => write!(f, "wire format error: {msg}"),
            Error::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the decoder limit of {max} bytes")
            }
            Error::RateLimited { meter } => {
                write!(f, "meter {meter} rate-limited: token bucket empty, reads paused")
            }
            Error::QuotaExceeded { meter, received, max } => {
                write!(
                    f,
                    "meter {meter} exceeded its per-connection quota: {received} bytes \
                     received, cap {max}"
                )
            }
            Error::Serde(msg) => write!(f, "serde error: {msg}"),
            Error::Engine(msg) => write!(f, "fleet engine error: {msg}"),
            Error::Store(msg) => write!(f, "segment store error: {msg}"),
            Error::Io(msg) => write!(f, "storage i/o error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::InvalidAlphabetSize(3);
        assert!(e.to_string().contains("power of two"));
        let e = Error::SeparatorCount { expected: 15, got: 3 };
        assert!(e.to_string().contains("15"));
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
