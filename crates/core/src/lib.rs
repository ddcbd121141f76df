//! # sms-core — Symbolic Representation of Smart Meter Data
//!
//! A from-scratch implementation of the symbolic time-series encoding of
//! *Wijaya, Eberle, Aberer — "Symbolic Representation of Smart Meter Data",
//! EDBT 2013*, plus the SAX/iSAX baselines it compares against and the §4
//! extensions (adaptive tables, privacy measures).
//!
//! The encoding replaces a large real-valued time series with a short
//! sequence of variable-length **binary symbols**:
//!
//! 1. **Vertical segmentation** ([`vertical`]) aggregates `n` consecutive
//!    samples (the paper uses 15-minute and 1-hour means), reducing
//!    numerosity.
//! 2. **Horizontal segmentation** ([`horizontal`], [`lookup`]) quantizes each
//!    aggregate into a symbol via a lookup table whose separators are learned
//!    from historical data with one of three methods ([`separators`]):
//!    `uniform`, `median`, or `distinctmedian`.
//! 3. Symbols are binary strings built by recursive range halving
//!    ([`symbol`]), so resolutions nest: truncating a symbol's bits coarsens
//!    it, and a coarse lookup table is the restriction of a fine one
//!    ([`lookup::LookupTable::coarsen`]).
//!
//! ## Quick start
//!
//! ```
//! use sms_core::prelude::*;
//!
//! // A day of fake 1 Hz readings.
//! let watts: Vec<f64> = (0..86_400).map(|i| 80.0 + 40.0 * ((i / 3600) % 8) as f64).collect();
//! let history = TimeSeries::from_regular(0, 1, &watts).unwrap();
//!
//! // Learn a 16-symbol median table; encode at 15-minute resolution.
//! let codec = CodecBuilder::new()
//!     .method(SeparatorMethod::Median)
//!     .alphabet_size(16).unwrap()
//!     .window_secs(900)
//!     .train(&history)
//!     .unwrap();
//! let symbols = codec.encode(&history).unwrap();
//! assert_eq!(symbols.len(), 96);                       // 96 quarter-hours
//! assert_eq!(symbols.payload_bits(), 384);             // the paper's §2.3 figure
//! let approx = codec.decode(&symbols, SymbolSemantics::RangeMean).unwrap();
//! assert_eq!(approx.len(), 96);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod adaptive;
pub mod alphabet;
pub mod compression;
pub mod distance;
pub mod durable;
pub mod encoder;
pub mod engine;
pub mod error;
pub mod gateway;
pub mod horizontal;
pub mod ingest;
pub mod isax;
pub mod json;
pub mod lookup;
pub mod pipeline;
pub mod pool;
pub mod privacy;
pub mod quality;
pub mod sax;
pub mod segstore;
pub mod separators;
pub mod shard;
pub mod stats;
pub mod symbol;
pub mod telemetry;
pub mod timeseries;
pub mod utility;
pub mod vertical;
pub mod wire;

/// Convenient glob import of the main types.
pub mod prelude {
    pub use crate::alphabet::Alphabet;
    pub use crate::compression::CompressionReport;
    pub use crate::durable::{
        DurableConfig, DurableFleet, DurableStats, DurableStore, FaultPlan, FaultStorage,
        FsStorage, RecoveryReport, Storage,
    };
    pub use crate::encoder::{EncodedWindow, OnlineEncoder, SensorMessage, SensorPipeline};
    pub use crate::error::{Error, Result};
    pub use crate::gateway::{Gateway, GatewayConfig, GatewayReport, GatewayStats};
    pub use crate::horizontal::{horizontal_segmentation, reconstruct, SymbolicSeries};
    pub use crate::ingest::{FleetIngest, IngestConfig, IngestStats, MeterIngest};
    pub use crate::lookup::{LookupTable, SymbolSemantics};
    pub use crate::pipeline::{CodecBuilder, SymbolicCodec, VerticalPolicy};
    pub use crate::quality::{Policy, QualityReport, Sanitizer, SanitizerConfig};
    pub use crate::segstore::{SegmentStore, StoreStats};
    pub use crate::separators::SeparatorMethod;
    pub use crate::shard::{ShardRouter, ShardStats, ShardedFleetEngine};
    pub use crate::symbol::Symbol;
    pub use crate::timeseries::{Sample, TimeSeries, Timestamp};
    pub use crate::vertical::{aggregate_by_window, vertical_segmentation, Aggregation};
}
