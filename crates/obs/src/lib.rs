//! Zero-dependency observability for MLOC.
//!
//! Two layers, mirroring how MLOC executes work:
//!
//! * [`Collector`] — a single-owner recorder for one rank (or one build
//!   pipeline). It holds a stack of open hierarchical timing spans plus
//!   flat counters and [`Histogram`]s. Every method is a no-op when the
//!   collector is disabled, so instrumentation stays compiled in and the
//!   cost of "profiling off" is one branch per call — no `Instant::now()`,
//!   no allocation.
//! * [`Profile`] — an immutable snapshot: a span tree with per-rank
//!   maxima, sorted counters, and sorted histograms. Per-rank profiles
//!   are merged deterministically (rank order, children matched by name
//!   in first-seen order), so the replay and threaded executors produce
//!   structurally identical profiles for the same query. A profile can
//!   render itself as a human-readable table or as JSON.
//!
//! The crate has no dependencies, matching the `mloc_runtime` convention:
//! everything downstream of `mloc-core` can use it without pulling
//! anything new into the build.

mod collector;
mod histogram;
mod profile;

pub use collector::Collector;
pub use histogram::{Histogram, NUM_BUCKETS};
pub use profile::{json_string, Counter, HistogramEntry, Label, Profile, Span};
