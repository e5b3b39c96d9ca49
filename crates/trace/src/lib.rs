//! `rlckit-trace` — zero-dependency solver/campaign telemetry.
//!
//! Every performance rung on the ROADMAP (hot-path profiling of the
//! two-pole delay solve, work-stealing for the planner's uneven
//! golden-section calls, a sharded campaign driver) needs to know where
//! iterations and wall-clock actually go. This crate is that
//! instrumentation layer: process-wide **counters** and **iteration
//! histograms** recorded into per-thread cells, lightweight RAII **span
//! timers**, and an opt-in end-of-run **sink** selected by the
//! `RLCKIT_TRACE` environment variable.
//!
//! # Cost model
//!
//! * Each thread owns a block of cells, allocated on its first
//!   recording and indexed by the metric's registration index. Only
//!   the owner writes its cells, with a relaxed load and store: a
//!   counter increment is one such pair, a histogram observation four
//!   (bucket, sum, min, max). No atomic read-modify-write, no branch on
//!   a global flag, and no cache line shared with another writer, so
//!   solver loops on different cores never contend. The only
//!   allocations are a metric's one-time registration and a thread's
//!   first chunk of cells.
//! * [`snapshot`] sums, under the registry lock, the cells of every
//!   live thread plus the totals of the threads that have exited. A
//!   thread folds its cells into those totals from its thread-local
//!   destructor, under the same lock, so every recording is counted
//!   exactly once, and a snapshot taken right after a scoped-thread
//!   join is exact even if the destructors have not run yet.
//! * Span timers *are* gated: when tracing is disabled
//!   ([`enabled`] returns `false`) [`SpanTimer::start`] returns an
//!   inert guard without reading the clock, so the disabled path costs
//!   one relaxed load and allocates nothing. The `trace_overhead`
//!   bench group quantifies both paths against a bare arithmetic op.
//!
//! # Determinism contract
//!
//! Counters and histograms record *algorithmic* quantities (iterations,
//! bracket doublings, fallback tallies): for every metric **except the
//! `par.*` family** they are a pure function of the computation's
//! inputs — re-running the same campaign yields bit-identical values,
//! regardless of thread count. The `par.*` metrics intentionally record
//! scheduling (tasks per worker, chunks claimed) and vary run to run.
//! Wall-clock quantities appear **only** under JSON keys ending in
//! `_ns` (and the derived `mean_ns`), so a determinism check can parse
//! the JSONL sink and ignore exactly the `*_ns` keys.
//!
//! # Sink selection
//!
//! | `RLCKIT_TRACE` | behaviour of [`flush`] |
//! |---|---|
//! | unset, empty, `0`, `off` | nothing (tracing disabled) |
//! | `summary` | aligned text summary to stderr |
//! | `jsonl` | JSON lines to stderr |
//! | `jsonl:<path>` | JSON lines written to `<path>` (truncate: last flush wins) |
//! | `jsonl+:<path>` | JSON lines **appended** to `<path>`, one marker-delimited snapshot per flush |
//!
//! Any other value behaves like `summary` (fail open: asking for
//! telemetry should never silence it).
//!
//! `jsonl:` truncation is the right semantics for one-shot campaign
//! bins — the final flush is the complete report. A long-running daemon
//! flushing periodically needs `jsonl+:`: every flush appends a
//! `{"type":"flush","value":<seq>}` marker line followed by the full
//! metric snapshot, so the file preserves the whole history instead of
//! only the last flush.
//!
//! # Examples
//!
//! ```
//! use rlckit_trace::{counter, histogram, span};
//!
//! rlckit_trace::set_enabled(true);
//! {
//!     let _guard = span!("example.work");
//!     counter!("example.calls").incr();
//!     histogram!("example.iterations").observe(3);
//! }
//! let snap = rlckit_trace::snapshot();
//! assert_eq!(snap.counter("example.calls"), 1);
//! assert!(snap.histograms["example.iterations"].mean() >= 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Number of exact histogram buckets: values `0..BUCKETS-1` count into
/// their own bucket, anything `>= BUCKETS-1` lands in the last
/// (overflow) bucket. Iteration counts in this workspace are single
/// digits, so the exact range is generous.
pub const BUCKETS: usize = 33;

// ---------------------------------------------------------------------------
// Per-thread cells
// ---------------------------------------------------------------------------

/// Cells per chunk of a thread's block. A chunk is 4 KiB and 128-byte
/// aligned, so it shares no cache line with any other allocation.
const CHUNK_CELLS: usize = 512;

/// `slot` value of a metric that has not registered yet.
const UNREGISTERED: usize = usize::MAX;

#[repr(align(128))]
struct Chunk([AtomicU64; CHUNK_CELLS]);

impl Chunk {
    fn new() -> Arc<Self> {
        Arc::new(Self(std::array::from_fn(|_| AtomicU64::new(0))))
    }
}

/// The three metric kinds and their cell layouts. Every cell combines
/// across threads either by sum or by max; a minimum is stored
/// bit-inverted (`!v`) so it combines by max too, and a zero cell is
/// the identity of both.
#[derive(Clone, Copy)]
enum Kind {
    /// `[value]`.
    Counter,
    /// `[bucket 0 .. bucket BUCKETS-1, sum, !min, max]`; the count is
    /// the sum of the buckets.
    Histogram,
    /// `[count, total_ns, !min_ns, max_ns]`.
    Span,
}

impl Kind {
    const fn width(self) -> usize {
        match self {
            Self::Counter => 1,
            Self::Histogram => BUCKETS + 3,
            Self::Span => 4,
        }
    }

    /// Combines cell `offset` of two threads: by max for the min/max
    /// cells, by sum for the rest.
    fn combine(self, offset: usize, a: u64, b: u64) -> u64 {
        let first_max = match self {
            Self::Counter => 1,
            Self::Histogram => BUCKETS + 1,
            Self::Span => 2,
        };
        if offset < first_max {
            a.wrapping_add(b)
        } else {
            a.max(b)
        }
    }
}

/// One registered metric: its name, kind and first cell.
struct Registered {
    name: &'static str,
    kind: Kind,
    base: usize,
}

/// A live thread's block, as the registry sees it: the same chunks the
/// thread writes, shared so a snapshot can read them.
struct Block {
    id: u64,
    chunks: Vec<Arc<Chunk>>,
}

/// The process-wide metric registry. Metrics self-register on first
/// touch (bounded by the number of metric *call sites*, not calls).
struct Registry {
    metrics: Vec<Registered>,
    next_cell: usize,
    live: Vec<Block>,
    next_block: u64,
    /// Folded totals of the threads that have exited, by cell.
    retired: Vec<u64>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    metrics: Vec::new(),
    next_cell: 0,
    live: Vec::new(),
    next_block: 1,
    retired: Vec::new(),
});

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// Assigns `kind`'s cells to a metric, never straddling two chunks.
    fn register(&mut self, name: &'static str, kind: Kind) -> usize {
        let width = kind.width();
        if self.next_cell % CHUNK_CELLS + width > CHUNK_CELLS {
            self.next_cell = self.next_cell.next_multiple_of(CHUNK_CELLS);
        }
        let base = self.next_cell;
        self.next_cell += width;
        self.retired.resize(self.next_cell, 0);
        self.metrics.push(Registered { name, kind, base });
        base
    }

    /// Folds chunk number `index` of an exiting thread into the
    /// retired totals.
    fn retire(&mut self, index: usize, chunk: &Chunk) {
        let range = index * CHUNK_CELLS..(index + 1) * CHUNK_CELLS;
        for m in self.metrics.iter().filter(|m| range.contains(&m.base)) {
            let cells = &chunk.0[m.base - range.start..][..m.kind.width()];
            for (offset, cell) in cells.iter().enumerate() {
                let total = &mut self.retired[m.base + offset];
                *total = m.kind.combine(offset, *total, cell.load(Ordering::Relaxed));
            }
        }
    }

    /// One metric's cells over the retired totals and every live block:
    /// each recorded value exactly once.
    fn combined(&self, base: usize, kind: Kind) -> Vec<u64> {
        let width = kind.width();
        let (index, offset) = (base / CHUNK_CELLS, base % CHUNK_CELLS);
        let mut totals = self.retired[base..base + width].to_vec();
        for chunk in self.live.iter().filter_map(|b| b.chunks.get(index)) {
            for (i, cell) in chunk.0[offset..offset + width].iter().enumerate() {
                totals[i] = kind.combine(i, totals[i], cell.load(Ordering::Relaxed));
            }
        }
        totals
    }
}

/// This thread's cells. Only the owning thread writes them; the
/// registry holds the same chunks for snapshots until the thread's
/// exit folds them into the retired totals.
struct Local {
    /// Registry block id, 0 until the first chunk is allocated.
    id: Cell<u64>,
    chunks: RefCell<Vec<Arc<Chunk>>>,
}

impl Local {
    /// Allocates chunks up to `index` and shares them with the registry.
    #[cold]
    #[inline(never)]
    fn grow(&self, index: usize) {
        let mut reg = registry();
        if self.id.get() == 0 {
            let id = reg.next_block;
            reg.next_block += 1;
            reg.live.push(Block { id, chunks: Vec::new() });
            self.id.set(id);
        }
        let id = self.id.get();
        let mut chunks = self.chunks.borrow_mut();
        let block = reg.live.iter_mut().find(|b| b.id == id).expect("live block");
        while chunks.len() <= index {
            let chunk = Chunk::new();
            block.chunks.push(Arc::clone(&chunk));
            chunks.push(chunk);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        let id = self.id.get();
        if id == 0 {
            return;
        }
        let mut reg = registry();
        if let Some(pos) = reg.live.iter().position(|b| b.id == id) {
            let block = reg.live.swap_remove(pos);
            for (index, chunk) in block.chunks.iter().enumerate() {
                reg.retire(index, chunk);
            }
        }
    }
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            id: Cell::new(0),
            chunks: RefCell::new(Vec::new()),
        }
    };
}

/// Runs `record` on this thread's cells of the metric at `base`.
#[inline]
fn with_cells(base: usize, record: impl Fn(&[AtomicU64])) {
    let (index, offset) = (base / CHUNK_CELLS, base % CHUNK_CELLS);
    let recorded = LOCAL.try_with(|local| {
        if let Some(chunk) = local.chunks.borrow().get(index) {
            record(&chunk.0[offset..]);
            return;
        }
        local.grow(index);
        record(&local.chunks.borrow()[index].0[offset..]);
    });
    if recorded.is_err() {
        record_after_teardown(index, offset, &record);
    }
}

/// A recording from a thread whose cells are already torn down (from
/// another thread-local's destructor): record into a scratch chunk and
/// fold it straight into the retired totals. Kept out of line so the
/// record path carries no 4 KiB stack frame.
#[cold]
#[inline(never)]
fn record_after_teardown(index: usize, offset: usize, record: &dyn Fn(&[AtomicU64])) {
    let chunk = Chunk::new();
    record(&chunk.0[offset..]);
    registry().retire(index, &chunk);
}

/// Adds `n` to a cell only this thread writes: a plain load and store.
#[inline]
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
}

/// Raises a single-writer cell to `value`.
#[inline]
fn raise(cell: &AtomicU64, value: u64) {
    if value > cell.load(Ordering::Relaxed) {
        cell.store(value, Ordering::Relaxed);
    }
}

/// A metric's registration state: its first cell, or [`UNREGISTERED`].
/// The index is stored under the registry lock and publishes nothing
/// else (registry state is only read under that lock), so relaxed
/// loads suffice.
struct Slot(AtomicUsize);

impl Slot {
    const fn new() -> Self {
        Self(AtomicUsize::new(UNREGISTERED))
    }

    /// The metric's first cell, registering it on first touch.
    #[inline]
    fn base(&self, name: &'static str, kind: Kind) -> usize {
        let base = self.0.load(Ordering::Relaxed);
        if base != UNREGISTERED {
            return base;
        }
        self.register(name, kind)
    }

    #[cold]
    #[inline(never)]
    fn register(&self, name: &'static str, kind: Kind) -> usize {
        let mut reg = registry();
        let base = self.0.load(Ordering::Relaxed);
        if base != UNREGISTERED {
            return base;
        }
        let base = reg.register(name, kind);
        self.0.store(base, Ordering::Relaxed);
        base
    }

    /// The metric's cells summed over every thread (zeros if it never
    /// registered).
    fn totals(&self, kind: Kind) -> Vec<u64> {
        let base = self.0.load(Ordering::Relaxed);
        if base == UNREGISTERED {
            return vec![0; kind.width()];
        }
        registry().combined(base, kind)
    }
}

/// A monotonically increasing event counter.
///
/// Declare one per call site with [`counter!`]; the `static` storage is
/// what makes increments allocation-free.
pub struct Counter {
    name: &'static str,
    slot: Slot,
}

impl Counter {
    /// Creates an unregistered counter (const: usable in `static`s).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            slot: Slot::new(),
        }
    }

    /// Adds `n` to the counter (this thread's cell; safe from any thread).
    pub fn add(&'static self, n: u64) {
        with_cells(self.slot.base(self.name, Kind::Counter), |c| bump(&c[0], n));
    }

    /// Increments the counter by one.
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value, summed over every thread.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.slot.totals(Kind::Counter)[0]
    }

    /// Metric name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A histogram of small non-negative integer observations (iteration
/// counts, tasks per worker, …) with exact buckets plus running
/// count/sum/min/max.
pub struct Histogram {
    name: &'static str,
    slot: Slot,
}

impl Histogram {
    /// Creates an unregistered histogram (const: usable in `static`s).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            slot: Slot::new(),
        }
    }

    /// Records one observation (this thread's cells; safe from any
    /// thread).
    pub fn observe(&'static self, value: u64) {
        let bucket = (value as usize).min(BUCKETS - 1);
        with_cells(self.slot.base(self.name, Kind::Histogram), |c| {
            bump(&c[bucket], 1);
            bump(&c[BUCKETS], value);
            raise(&c[BUCKETS + 1], !value);
            raise(&c[BUCKETS + 2], value);
        });
    }

    /// Number of observations so far, summed over every thread.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.slot.totals(Kind::Histogram)[..BUCKETS].iter().sum()
    }

    /// Metric name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Aggregated wall-clock timings for one span label: count, total,
/// min and max, all in nanoseconds.
pub struct SpanTimer {
    name: &'static str,
    slot: Slot,
}

impl SpanTimer {
    /// Creates an unregistered span timer (const: usable in `static`s).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            slot: Slot::new(),
        }
    }

    /// Starts a span. When tracing is disabled the returned guard is
    /// inert — no clock read, no allocation, nothing recorded on drop.
    #[must_use]
    pub fn start(&'static self) -> SpanGuard {
        if enabled() {
            SpanGuard(Some((self, Instant::now())))
        } else {
            SpanGuard(None)
        }
    }

    /// Records a completed span of `ns` nanoseconds directly.
    pub fn record_ns(&'static self, ns: u64) {
        with_cells(self.slot.base(self.name, Kind::Span), |c| {
            bump(&c[0], 1);
            bump(&c[1], ns);
            raise(&c[2], !ns);
            raise(&c[3], ns);
        });
    }

    /// Metric name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// RAII guard returned by [`SpanTimer::start`]; records the elapsed
/// time on drop (or nothing, if tracing was disabled at start).
pub struct SpanGuard(Option<(&'static SpanTimer, Instant)>);

impl SpanGuard {
    /// True if this guard is actually timing (tracing was enabled).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((timer, start)) = self.0.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            timer.record_ns(ns);
        }
    }
}

/// Declares a `static` [`Counter`] at the call site and yields a
/// `&'static Counter` handle.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __RLCKIT_TRACE_COUNTER: $crate::Counter = $crate::Counter::new($name);
        &__RLCKIT_TRACE_COUNTER
    }};
}

/// Declares a `static` [`Histogram`] at the call site and yields a
/// `&'static Histogram` handle.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __RLCKIT_TRACE_HISTOGRAM: $crate::Histogram = $crate::Histogram::new($name);
        &__RLCKIT_TRACE_HISTOGRAM
    }};
}

/// Declares a `static` [`SpanTimer`] at the call site and starts a
/// span, yielding the [`SpanGuard`]. Bind it (`let _guard = span!(…);`)
/// so it lives to the end of the scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __RLCKIT_TRACE_SPAN: $crate::SpanTimer = $crate::SpanTimer::new($name);
        __RLCKIT_TRACE_SPAN.start()
    }};
}

// ---------------------------------------------------------------------------
// Enablement and sink configuration
// ---------------------------------------------------------------------------

/// Where [`flush`] sends the end-of-run report.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Sink {
    Disabled,
    Summary,
    Jsonl(Option<PathBuf>),
    JsonlAppend(PathBuf),
}

impl Sink {
    /// Parses an `RLCKIT_TRACE` value. Unknown non-empty values fail
    /// open to `Summary`.
    fn parse(raw: &str) -> Self {
        let v = raw.trim();
        match v {
            "" | "0" | "off" => Self::Disabled,
            "summary" | "1" => Self::Summary,
            "jsonl" => Self::Jsonl(None),
            _ => {
                if let Some(path) = v.strip_prefix("jsonl+:") {
                    Self::JsonlAppend(PathBuf::from(path))
                } else if let Some(path) = v.strip_prefix("jsonl:") {
                    Self::Jsonl(Some(PathBuf::from(path)))
                } else {
                    Self::Summary
                }
            }
        }
    }
}

/// The parsed `RLCKIT_TRACE` value, read once per process.
fn env_sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| {
        Sink::parse(&std::env::var("RLCKIT_TRACE").unwrap_or_default())
    })
}

/// Programmatic enablement override: 0 = follow the environment,
/// 1 = forced on, 2 = forced off.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// True when tracing is on: either [`set_enabled`] forced it, or
/// `RLCKIT_TRACE` selects a sink. Counters and histograms record
/// regardless (they are effectively free); this flag gates the span
/// timers and is what makes the disabled path clock-free.
#[must_use]
pub fn enabled() -> bool {
    match FORCED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => *env_sink() != Sink::Disabled,
    }
}

/// Forces tracing on or off for this process, overriding `RLCKIT_TRACE`
/// (used by tests and the bench harness; campaigns normally rely on the
/// environment variable alone).
pub fn set_enabled(on: bool) {
    FORCED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Point-in-time value of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation (`None` when empty). After
    /// [`Snapshot::since`] this is the *process-lifetime* minimum, not
    /// the interval's — exact bucket/count/sum deltas are what interval
    /// arithmetic should use.
    pub min: Option<u64>,
    /// Largest observation (`None` when empty); same caveat as `min`.
    pub max: Option<u64>,
    /// Exact buckets: index = observed value, last bucket = overflow.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty). A pure function of count and
    /// sum, so deterministic whenever they are.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest bucket index with a nonzero count, capped at the
    /// overflow bucket (`None` when empty). Unlike `max` this *is*
    /// interval-exact after [`Snapshot::since`] (for values below the
    /// overflow bucket).
    #[must_use]
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// The `q`-quantile of the observations (`q` in `[0, 1]`), with
    /// linear interpolation *within* the containing bucket: bucket `i`
    /// holds observations of exact value `i`, modelled as uniformly
    /// spread over `[i, i+1)`, so e.g. the median of 100 observations
    /// of `3` is `3.5` rather than a bare bucket index. `None` when the
    /// histogram is empty or `q` is out of range / non-finite.
    ///
    /// The last bucket is the overflow bucket (observations `>=
    /// BUCKETS-1`): a quantile landing there interpolates between the
    /// bucket's lower bound and the recorded `max` instead of
    /// pretending the bucket is one unit wide — including the
    /// all-overflow case where *every* observation saturated. (After
    /// [`Snapshot::since`] the `max` is process-lifetime, not
    /// interval-exact — see [`HistogramSnapshot::min`] — so overflow
    /// interpolation on a delta is an upper-bound estimate.)
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !q.is_finite() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let last = self.buckets.len().checked_sub(1)?;
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            if bucket == 0 {
                continue;
            }
            let before = cumulative as f64;
            cumulative += bucket;
            if cumulative as f64 >= rank {
                let fraction = ((rank - before) / bucket as f64).clamp(0.0, 1.0);
                let (lo, hi) = if index == last {
                    let bound = self.max.map_or(last as f64, |m| m as f64).max(last as f64);
                    (last as f64, bound)
                } else {
                    (index as f64, index as f64 + 1.0)
                };
                return Some(lo + fraction * (hi - lo));
            }
        }
        // Floating-point slack consumed every bucket: the answer is the
        // top of the populated range.
        Some(self.max.map_or(last as f64, |m| m as f64))
    }
}

/// Point-in-time value of one span timer. All fields are wall-clock
/// derived and therefore non-deterministic; they serialize only under
/// `*_ns` keys.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanSnapshot {
    /// Number of completed spans.
    pub count: u64,
    /// Total nanoseconds across all spans.
    pub total_ns: u64,
    /// Shortest span (`u64::MAX` when empty).
    pub min_ns: u64,
    /// Longest span.
    pub max_ns: u64,
}

/// A consistent-enough copy of every registered metric (cells of
/// threads still recording are read with relaxed loads, so their
/// concurrent increments may straddle the walk, which telemetry
/// tolerates by design; exited and joined threads are counted exactly).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span timer states by name.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl Snapshot {
    /// A counter's value, 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of all counters whose name ends with `suffix` (e.g.
    /// `".no_convergence"` for the campaign failure tally).
    #[must_use]
    pub fn counters_ending_with(&self, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| name.ends_with(suffix))
            .map(|(_, &v)| v)
            .sum()
    }

    /// The change since an `earlier` snapshot: counters, histogram
    /// counts/sums/buckets and span counts/totals subtract
    /// (saturating); histogram and span min/max keep this snapshot's
    /// process-lifetime values (see [`HistogramSnapshot::min`]).
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        let counters = self
            .counters
            .iter()
            .map(|(name, &v)| (name.clone(), v.saturating_sub(earlier.counter(name))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let old = earlier.histograms.get(name);
                let mut d = h.clone();
                if let Some(old) = old {
                    d.count = d.count.saturating_sub(old.count);
                    d.sum = d.sum.saturating_sub(old.sum);
                    for (b, ob) in d.buckets.iter_mut().zip(&old.buckets) {
                        *b = b.saturating_sub(*ob);
                    }
                }
                (name.clone(), d)
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(name, s)| {
                let old = earlier.spans.get(name);
                let mut d = s.clone();
                if let Some(old) = old {
                    d.count = d.count.saturating_sub(old.count);
                    d.total_ns = d.total_ns.saturating_sub(old.total_ns);
                }
                (name.clone(), d)
            })
            .collect();
        Self {
            counters,
            histograms,
            spans,
        }
    }
}

/// Captures the current value of every registered metric: under the
/// registry lock, the totals of the threads that have exited plus the
/// cells of every live thread. A thread's cells stay live until its
/// exit folds them, so a snapshot taken right after a scoped-thread
/// join counts everything the joined threads recorded.
#[must_use]
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    let reg = registry();
    for m in &reg.metrics {
        let cells = reg.combined(m.base, m.kind);
        let name = m.name.to_string();
        match m.kind {
            Kind::Counter => *snap.counters.entry(name).or_insert(0) += cells[0],
            Kind::Histogram => {
                let entry = snap.histograms.entry(name).or_default();
                let buckets = &cells[..BUCKETS];
                let count: u64 = buckets.iter().sum();
                entry.count += count;
                entry.sum += cells[BUCKETS];
                if count > 0 {
                    let (min, max) = (!cells[BUCKETS + 1], cells[BUCKETS + 2]);
                    entry.min = Some(entry.min.map_or(min, |m| m.min(min)));
                    entry.max = Some(entry.max.map_or(max, |m| m.max(max)));
                }
                if entry.buckets.is_empty() {
                    entry.buckets = vec![0; BUCKETS];
                }
                for (dst, src) in entry.buckets.iter_mut().zip(buckets) {
                    *dst += src;
                }
            }
            Kind::Span => {
                let entry = snap.spans.entry(name).or_insert(SpanSnapshot {
                    min_ns: u64::MAX,
                    ..SpanSnapshot::default()
                });
                entry.count += cells[0];
                entry.total_ns += cells[1];
                // An empty span's inverted-min cell is 0, i.e. u64::MAX.
                entry.min_ns = entry.min_ns.min(!cells[2]);
                entry.max_ns = entry.max_ns.max(cells[3]);
            }
        }
    }
    snap
}

// ---------------------------------------------------------------------------
// Sinks: text summary and JSONL
// ---------------------------------------------------------------------------

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Renders the aligned text summary of a snapshot. Zero-valued metrics
/// are omitted — a grep for a counter name in the summary is therefore
/// a nonzero check (the tier-1 gate relies on this for
/// `*.no_convergence`).
#[must_use]
pub fn summary_of(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        if *value > 0 {
            out.push_str(&format!("  counter   {name:<48} {value}\n"));
        }
    }
    for (name, h) in &snap.histograms {
        if h.count > 0 {
            out.push_str(&format!(
                "  histogram {name:<48} count {}  mean {:.3}  min {}  max {}\n",
                h.count,
                h.mean(),
                h.min.unwrap_or(0),
                h.max.unwrap_or(0),
            ));
        }
    }
    for (name, s) in &snap.spans {
        if s.count > 0 {
            out.push_str(&format!(
                "  span      {name:<48} count {}  total {}  mean {}\n",
                s.count,
                format_ns(s.total_ns as f64),
                format_ns(s.total_ns as f64 / s.count as f64),
            ));
        }
    }
    if out.is_empty() {
        out.push_str("  (no metrics recorded)\n");
    }
    out
}

/// Renders the current metrics as an aligned text summary.
#[must_use]
pub fn summary_string() -> String {
    summary_of(&snapshot())
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a snapshot as JSON lines: one object per metric, sorted by
/// kind then name. Deterministic fields only, except values under keys
/// ending in `_ns` (span wall-clock) — the documented escape hatch the
/// JSONL guard test checks.
#[must_use]
pub fn jsonl_of(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        out.push_str(&format!(
            "{{\"type\":\"counter\",\"name\":{},\"value\":{value}}}\n",
            json_escape(name)
        ));
    }
    for (name, h) in &snap.histograms {
        let buckets: Vec<String> = {
            let last = h.max_bucket().map_or(0, |i| i + 1);
            h.buckets[..last].iter().map(u64::to_string).collect()
        };
        out.push_str(&format!(
            "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\
             \"min\":{},\"max\":{},\"buckets\":[{}]}}\n",
            json_escape(name),
            h.count,
            h.sum,
            h.min.unwrap_or(0),
            h.max.unwrap_or(0),
            buckets.join(","),
        ));
    }
    for (name, s) in &snap.spans {
        let min_ns = if s.count == 0 { 0 } else { s.min_ns };
        out.push_str(&format!(
            "{{\"type\":\"span\",\"name\":{},\"count\":{},\"total_ns\":{},\
             \"min_ns\":{min_ns},\"max_ns\":{}}}\n",
            json_escape(name),
            s.count,
            s.total_ns,
            s.max_ns,
        ));
    }
    out
}

/// Renders the current metrics as JSON lines.
#[must_use]
pub fn jsonl_string() -> String {
    jsonl_of(&snapshot())
}

/// Per-process sequence number stamped into `jsonl+:` flush markers.
static FLUSH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Serializes concurrent flushes so each appended block is one
/// contiguous byte range with an in-order marker (see
/// [`append_jsonl_snapshot`]).
static FLUSH_LOCK: Mutex<()> = Mutex::new(());

/// Appends one marker-delimited snapshot of the current metrics to
/// `path`: a `{"type":"flush","value":<seq>}` marker line (`seq` is a
/// per-process counter starting at 0) followed by the full
/// [`jsonl_string`] rendering. This is the `jsonl+:<path>` sink body —
/// the history-preserving flush a periodically-flushing daemon needs,
/// where the truncating `jsonl:<path>` sink would leave only the last
/// flush on disk. The file is created if absent.
///
/// Flushes are atomic with respect to each other: the marker's
/// sequence number is claimed and the whole block written as a single
/// `write_all` under one process-wide lock, so a reader never sees a
/// torn block and marker values appear in strictly increasing file
/// order even when a background flusher races an exit flush.
///
/// # Errors
///
/// Propagates the underlying open/write failure.
pub fn append_jsonl_snapshot(path: &std::path::Path) -> std::io::Result<()> {
    let _guard = FLUSH_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let seq = FLUSH_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut block = format!("{{\"type\":\"flush\",\"value\":{seq}}}\n");
    block.push_str(&jsonl_string());
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(block.as_bytes())
}

/// Writes the end-of-run report to the sink `RLCKIT_TRACE` selects
/// (nothing when tracing is disabled). One-shot campaign binaries and
/// the bench harness call it once at the end; with the truncating
/// `jsonl:<path>` sink a later flush overwrites an earlier one (last
/// flush wins — the final flush is the complete report). Long-running
/// processes that flush periodically should run under `jsonl+:<path>`,
/// where every flush appends a marker-delimited snapshot instead (see
/// [`append_jsonl_snapshot`]).
pub fn flush() {
    match env_sink() {
        Sink::Disabled => {}
        Sink::Summary => {
            let _ = writeln!(std::io::stderr(), "trace summary:\n{}", summary_string());
        }
        Sink::Jsonl(None) => {
            let _ = write!(std::io::stderr(), "{}", jsonl_string());
        }
        Sink::Jsonl(Some(path)) => {
            if let Err(e) = std::fs::write(path, jsonl_string()) {
                eprintln!("warning: could not write trace jsonl {}: {e}", path.display());
            }
        }
        Sink::JsonlAppend(path) => {
            if let Err(e) = append_jsonl_snapshot(path) {
                eprintln!("warning: could not append trace jsonl {}: {e}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = counter!("test.counters_accumulate");
        c.incr();
        c.add(4);
        assert_eq!(c.value(), 5);
        assert_eq!(snapshot().counter("test.counters_accumulate"), 5);
        assert_eq!(snapshot().counter("test.never_touched"), 0);
    }

    #[test]
    fn histograms_track_buckets_and_extremes() {
        let h = histogram!("test.histogram_buckets");
        for v in [2u64, 2, 7, 40] {
            h.observe(v);
        }
        let snap = snapshot();
        let hs = &snap.histograms["test.histogram_buckets"];
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 51);
        assert_eq!(hs.min, Some(2));
        assert_eq!(hs.max, Some(40));
        assert_eq!(hs.buckets[2], 2);
        assert_eq!(hs.buckets[7], 1);
        assert_eq!(hs.buckets[BUCKETS - 1], 1, "40 overflows the exact range");
        assert!((hs.mean() - 12.75).abs() < 1e-12);
        assert_eq!(hs.max_bucket(), Some(BUCKETS - 1));
    }

    /// What thread `t` records in one round: counter `+= t + 1` per
    /// observation, and histogram values spread over exact buckets plus
    /// one overflow value per round.
    fn round_values(t: u64, round: u64) -> Vec<u64> {
        let mut values: Vec<u64> = (0..20).map(|i| (t * 3 + i + round) % 9).collect();
        values.push(40 + t + round);
        values
    }

    /// Totals of `threads`' rounds, computed without the registry.
    fn expected(threads: std::ops::Range<u64>, rounds: &[u64]) -> (u64, HistogramSnapshot) {
        let mut counter = 0;
        let mut h = HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            ..HistogramSnapshot::default()
        };
        for t in threads {
            for &round in rounds {
                for v in round_values(t, round) {
                    counter += t + 1;
                    h.count += 1;
                    h.sum += v;
                    h.buckets[(v as usize).min(BUCKETS - 1)] += 1;
                    h.min = Some(h.min.map_or(v, |m| m.min(v)));
                    h.max = Some(h.max.map_or(v, |m| m.max(v)));
                }
            }
        }
        (counter, h)
    }

    /// One call site per metric, so `value()`/`count()` see every
    /// thread's recordings.
    fn cells_counter() -> &'static Counter {
        counter!("test.cells_counter")
    }

    fn cells_histogram() -> &'static Histogram {
        histogram!("test.cells_histogram")
    }

    fn record_round(t: u64, round: u64) {
        for v in round_values(t, round) {
            cells_counter().add(t + 1);
            cells_histogram().observe(v);
        }
    }

    /// Eight threads record into their own cells. Four exit before the
    /// snapshot (their cells are folded, or about to be); four are
    /// parked on a barrier while it is taken (their cells are live).
    /// Every total, bucket and extreme is exact either way, and so are
    /// the `since` deltas of what the parked threads record after it.
    #[test]
    fn per_thread_cells_sum_exactly_across_live_and_exited_threads() {
        let recorded = std::sync::Barrier::new(5);
        let release = std::sync::Barrier::new(5);
        let mut at_barrier = None;
        std::thread::scope(|scope| {
            let exiters: Vec<_> = (0..4u64)
                .map(|t| scope.spawn(move || record_round(t, 0)))
                .collect();
            for t in 4..8u64 {
                let (recorded, release) = (&recorded, &release);
                scope.spawn(move || {
                    record_round(t, 0);
                    recorded.wait();
                    release.wait();
                    record_round(t, 1);
                });
            }
            for handle in exiters {
                handle.join().expect("exiter");
            }
            recorded.wait();
            at_barrier = Some((
                snapshot(),
                cells_counter().value(),
                cells_histogram().count(),
            ));
            release.wait();
        });
        // No waiting for thread-local destructors: the scope has joined,
        // and every cell is counted whether or not it has been folded.
        let after = snapshot();
        let (snap, value, count) = at_barrier.expect("snapshot at the barrier");
        let (counter, h) = expected(0..8, &[0]);
        assert_eq!(snap.counter("test.cells_counter"), counter);
        assert_eq!(snap.histograms["test.cells_histogram"], h);
        assert_eq!(value, counter);
        assert_eq!(count, h.count);
        let (more, more_h) = expected(4..8, &[1]);
        assert_eq!(after.counter("test.cells_counter"), counter + more);
        let total = &after.histograms["test.cells_histogram"];
        assert_eq!(total.count, h.count + more_h.count);
        assert_eq!(total.sum, h.sum + more_h.sum);
        assert_eq!(total.min, h.min.min(more_h.min));
        assert_eq!(total.max, h.max.max(more_h.max));

        let delta = after.since(&snap);
        assert_eq!(delta.counter("test.cells_counter"), more);
        let hd = &delta.histograms["test.cells_histogram"];
        assert_eq!(hd.count, more_h.count);
        assert_eq!(hd.sum, more_h.sum);
        assert_eq!(hd.buckets, more_h.buckets);
    }

    /// A snapshot taken immediately after `thread::scope` returns counts
    /// everything the scoped threads recorded, round after round (the
    /// threads' exit-time folds race the snapshot and must never drop
    /// or double-count a cell).
    #[test]
    fn snapshot_right_after_a_scope_join_is_exact() {
        for round in 0..20u64 {
            let before = snapshot();
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    scope.spawn(move || {
                        counter!("test.scope_join_counter").add(t + 1);
                        histogram!("test.scope_join_histogram").observe(t + round);
                    });
                }
            });
            let delta = snapshot().since(&before);
            assert_eq!(delta.counter("test.scope_join_counter"), 36, "round {round}");
            let h = &delta.histograms["test.scope_join_histogram"];
            assert_eq!(h.count, 8, "round {round}");
            assert_eq!(h.sum, 28 + 8 * round, "round {round}");
        }
    }

    #[test]
    fn snapshot_delta_subtracts_counts_and_buckets() {
        let c = counter!("test.delta_counter");
        let h = histogram!("test.delta_histogram");
        c.add(2);
        h.observe(3);
        let before = snapshot();
        c.add(5);
        h.observe(3);
        h.observe(9);
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter("test.delta_counter"), 5);
        let hd = &delta.histograms["test.delta_histogram"];
        assert_eq!(hd.count, 2);
        assert_eq!(hd.sum, 12);
        assert_eq!(hd.buckets[3], 1);
        assert_eq!(hd.buckets[9], 1);
    }

    #[test]
    fn span_guards_record_only_when_enabled() {
        // One test owns both states: parallel tests must not fight over
        // the global flag mid-assertion.
        set_enabled(false);
        {
            let guard = span!("test.span_disabled");
            assert!(!guard.is_active(), "disabled tracing must yield inert guards");
        }
        assert_eq!(snapshot().spans.get("test.span_disabled").map_or(0, |s| s.count), 0);

        set_enabled(true);
        {
            let guard = span!("test.span_enabled");
            assert!(guard.is_active());
            std::hint::black_box(3u64.pow(7));
        }
        let snap = snapshot();
        let s = &snap.spans["test.span_enabled"];
        assert_eq!(s.count, 1);
        assert!(s.min_ns <= s.max_ns);
        assert!(s.total_ns >= s.max_ns);
        set_enabled(true);
    }

    #[test]
    fn sink_parsing_covers_the_documented_grammar() {
        assert_eq!(Sink::parse(""), Sink::Disabled);
        assert_eq!(Sink::parse("0"), Sink::Disabled);
        assert_eq!(Sink::parse("off"), Sink::Disabled);
        assert_eq!(Sink::parse("summary"), Sink::Summary);
        assert_eq!(Sink::parse("1"), Sink::Summary);
        assert_eq!(Sink::parse("jsonl"), Sink::Jsonl(None));
        assert_eq!(
            Sink::parse("jsonl:/tmp/trace.jsonl"),
            Sink::Jsonl(Some(PathBuf::from("/tmp/trace.jsonl")))
        );
        // Pre-fix regression: `jsonl+:` used to fall through to the
        // summary sink, so a daemon asking for append-mode history got
        // no file at all.
        assert_eq!(
            Sink::parse("jsonl+:/tmp/trace.jsonl"),
            Sink::JsonlAppend(PathBuf::from("/tmp/trace.jsonl"))
        );
        // Unknown values fail open to summary.
        assert_eq!(Sink::parse("weird"), Sink::Summary);
    }

    /// Pre-fix regression for the truncate-on-flush sink: periodic
    /// flushes through the append sink must *accumulate* — two flushes
    /// yield two marker-delimited snapshots, not one surviving "last
    /// flush wins" image.
    #[test]
    fn two_append_flushes_preserve_two_snapshots() {
        let path = std::env::temp_dir().join(format!(
            "rlckit_trace_append_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        counter!("test.append_flush_counter").incr();
        append_jsonl_snapshot(&path).expect("first append");
        counter!("test.append_flush_counter").incr();
        append_jsonl_snapshot(&path).expect("second append");

        let text = std::fs::read_to_string(&path).expect("read back");
        let markers: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"flush\""))
            .collect();
        assert_eq!(markers.len(), 2, "each flush must leave its marker: {text}");
        // Marker sequence numbers are distinct and increasing.
        assert_ne!(markers[0], markers[1]);
        let counter_lines = text
            .lines()
            .filter(|l| l.contains("\"name\":\"test.append_flush_counter\""))
            .count();
        assert_eq!(counter_lines, 2, "both snapshots must carry the counter");
        // Every line is still a standalone JSON object.
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Pre-fix regression for flush atomicity: the marker's sequence
    /// number used to be claimed outside any lock and the block written
    /// through `write!` (multiple underlying writes), so two racing
    /// flushes could interleave their bytes — torn lines — or land
    /// their markers out of order. Post-fix each flush is one
    /// `write_all` under a lock that also claims the sequence number.
    #[test]
    fn interleaved_append_flushes_never_tear_blocks() {
        let path = std::env::temp_dir().join(format!(
            "rlckit_trace_interleave_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        const THREADS: u64 = 8;
        const FLUSHES: u64 = 5;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let path = &path;
                scope.spawn(move || {
                    for i in 0..FLUSHES {
                        // Grow the snapshot between flushes so blocks are
                        // big enough that an unserialized writer would
                        // interleave.
                        histogram!("test.interleave_flush_load").observe(t * FLUSHES + i);
                        append_jsonl_snapshot(path).expect("append");
                    }
                });
            }
        });

        let text = std::fs::read_to_string(&path).expect("read back");
        let mut markers = Vec::new();
        for line in text.lines() {
            // No torn lines: every line is a standalone JSON object.
            assert!(line.starts_with('{') && line.ends_with('}'), "torn line: {line:?}");
            if let Some(rest) = line.strip_prefix("{\"type\":\"flush\",\"value\":") {
                let seq: u64 = rest.trim_end_matches('}').parse().expect(line);
                markers.push(seq);
            }
        }
        assert_eq!(markers.len() as u64, THREADS * FLUSHES);
        // Markers appear in strictly increasing file order: the claim
        // and the write happened under one lock.
        for pair in markers.windows(2) {
            assert!(pair[0] < pair[1], "markers out of order: {markers:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        // 100 observations uniformly over values 0..10: the exact
        // distribution's quantile function is q -> 10q.
        let mut h = HistogramSnapshot {
            count: 100,
            sum: 450,
            min: Some(0),
            max: Some(9),
            buckets: vec![0; BUCKETS],
        };
        for b in 0..10 {
            h.buckets[b] = 10;
        }
        assert!((h.percentile(0.5).unwrap() - 5.0).abs() < 1e-12);
        assert!((h.percentile(0.95).unwrap() - 9.5).abs() < 1e-12);
        assert!((h.percentile(1.0).unwrap() - 10.0).abs() < 1e-12);
        assert!((h.percentile(0.0).unwrap() - 0.0).abs() < 1e-12);

        // A point mass at 3 spreads over [3, 4): the median is 3.5, not
        // the bare bucket index.
        let point = HistogramSnapshot {
            count: 100,
            sum: 300,
            min: Some(3),
            max: Some(3),
            buckets: {
                let mut b = vec![0; BUCKETS];
                b[3] = 100;
                b
            },
        };
        assert!((point.percentile(0.5).unwrap() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_handles_overflow_and_degenerate_inputs() {
        // All-overflow: every observation saturated into the last
        // bucket. Interpolation runs between the bucket's lower bound
        // and the recorded max instead of a fictitious +1 width.
        let mut all_over = HistogramSnapshot {
            count: 10,
            sum: 400,
            min: Some(40),
            max: Some(40),
            buckets: vec![0; BUCKETS],
        };
        all_over.buckets[BUCKETS - 1] = 10;
        let lo = (BUCKETS - 1) as f64;
        let p50 = all_over.percentile(0.5).unwrap();
        assert!((p50 - (lo + 0.5 * (40.0 - lo))).abs() < 1e-12, "{p50}");
        assert!((all_over.percentile(1.0).unwrap() - 40.0).abs() < 1e-12);

        // Mixed: half exact, half overflow — p25 is exact-range, p75
        // overflow-range.
        let mut mixed = all_over.clone();
        mixed.count = 20;
        mixed.buckets[2] = 10;
        mixed.min = Some(2);
        assert!(mixed.percentile(0.25).unwrap() < 3.0);
        assert!(mixed.percentile(0.75).unwrap() > lo);

        // Empty and out-of-range inputs answer None, never panic.
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.percentile(0.5), None);
        assert_eq!(all_over.percentile(-0.1), None);
        assert_eq!(all_over.percentile(1.5), None);
        assert_eq!(all_over.percentile(f64::NAN), None);
    }

    #[test]
    fn summary_omits_zero_valued_metrics() {
        let mut snap = Snapshot::default();
        snap.counters.insert("zeros.are.hidden".into(), 0);
        snap.counters.insert("ones.are.shown".into(), 1);
        let text = summary_of(&snap);
        assert!(!text.contains("zeros.are.hidden"));
        assert!(text.contains("ones.are.shown"));
    }

    #[test]
    fn jsonl_lines_are_wellformed_objects() {
        let c = counter!("test.jsonl_counter");
        c.incr();
        let h = histogram!("test.jsonl_histogram");
        h.observe(4);
        let text = jsonl_string();
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"type\":\"counter\""));
        assert!(text.contains("\"type\":\"histogram\""));
        assert!(text.contains("\"name\":\"test.jsonl_counter\""));
    }

    #[test]
    fn counters_ending_with_sums_the_family() {
        let mut snap = Snapshot::default();
        snap.counters.insert("a.no_convergence".into(), 2);
        snap.counters.insert("b.c.no_convergence".into(), 3);
        snap.counters.insert("b.converged".into(), 100);
        assert_eq!(snap.counters_ending_with(".no_convergence"), 5);
    }
}
