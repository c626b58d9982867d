//! # secflow-obs — observability for the analysis pipeline
//!
//! The paper's analysis is a saturation procedure whose cost is dominated
//! by rule firings over an `O(N³)` term universe; the engine side serves
//! sessions of capability-checked queries. This crate is the measurement
//! layer both sides report into:
//!
//! * [`time`] — [`Stopwatch`] and [`Phases`] for wall-clock phase timing
//!   (parse → typecheck → unfold → closure → report; session → query);
//! * [`sink`] — the [`MetricsSink`] trait decoupling producers from
//!   consumers, and a [`Recorder`] that materialises a [`MetricsReport`];
//! * [`report`] — [`MetricsReport`]: a human-readable summary table and a
//!   machine-readable JSON export;
//! * [`json`] — a dependency-free JSON value type, writer and parser (the
//!   build environment is offline, so no serde);
//! * [`trace`] — structured span/instant trace events with monotonic
//!   timestamps, encoded as JSON Lines or Chrome `trace_event` JSON
//!   (Perfetto-loadable).
//!
//! Everything here is plain `std`; the hot closure loop reports through a
//! monomorphised observer in `secflow::closure`, so the disabled
//! configuration compiles to the uninstrumented code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod report;
pub mod sink;
pub mod time;
pub mod trace;

pub use json::Json;
pub use report::MetricsReport;
pub use sink::{MetricsSink, Recorder};
pub use time::{Phases, Stopwatch};
pub use trace::{TraceBuffer, TraceEvent, TraceFormat};
