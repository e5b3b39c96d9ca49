//! `rlckit-par` — a hermetic, std-only parallel campaign engine.
//!
//! The paper's entire §3 analysis (Figs. 4–12) is one embarrassingly
//! parallel outer loop: an inductance sweep that re-runs the Eq. 5–8
//! Newton optimizer and the Eq. 3 delay solve at every point. This crate
//! provides the execution substrate for that loop — and for the §3.2
//! Monte-Carlo and the route-planner sweep — without pulling in any
//! registry dependency: scoped threads from `std::thread::scope`, work
//! distribution by an atomic chunk counter, and results collected **in
//! input order** regardless of scheduling.
//!
//! # Determinism contract
//!
//! [`par_map_chunked`] guarantees that its output vector is element-wise
//! identical — bit-for-bit for floating-point payloads — to the serial
//! `items.iter().map(f)` evaluation, for every thread count and chunk
//! size. Two ingredients make this true:
//!
//! 1. the mapped function receives the item *and its input index*, never
//!    any shared mutable state, so each element's value is a pure
//!    function of the input; and
//! 2. every chunk writes its results into a dedicated slot keyed by
//!    chunk index, so collection order is input order, not completion
//!    order.
//!
//! Stochastic callers (the §3.2 Monte-Carlo) keep the contract by
//! deriving one child generator per item up front via
//! [`rlckit_numeric::rng::Rng::split`] and handing workers the child
//! streams — never a shared generator.
//!
//! # Panic policy
//!
//! A panic inside a worker must not poison a lock or wedge the join: the
//! worker catches it, the remaining chunks are still processed, and the
//! whole map returns [`NumericError::InvalidInput`] naming the panic
//! message. Callers therefore see an `Err`, never a hang and never an
//! abort of the calling thread.
//!
//! # Worker count
//!
//! [`Parallelism::Auto`] resolves to the `RLCKIT_THREADS` environment
//! variable when set to a positive integer, otherwise to
//! [`std::thread::available_parallelism`]. `RLCKIT_THREADS=1` forces the
//! serial path — useful to bisect any suspected parallelism issue.
//!
//! `RLCKIT_THREADS` is read **once per process** (the same pattern
//! `rlckit-trace` uses for `RLCKIT_TRACE`): a campaign resolves the same
//! worker count at every stage, and the hot path never pays a per-call
//! env lookup. Tests and embedders that need a different count
//! mid-process use [`set_threads`], which takes precedence over the
//! cached environment value.
//!
//! # Scheduling
//!
//! A map over `n` workers spawns `n − 1` scoped threads and runs the
//! last worker on the calling thread, which would otherwise sit idle
//! in the join. A freshly spawned thread starts cold (stack, allocator
//! arena, caches), so on a short map the spawn costs more than the
//! work: an 8-point sweep of each Table 1 node took 0.60 ms serially,
//! 1.15 ms on two spawned workers and 0.49–0.65 ms on one spawned
//! worker plus the caller (2-vCPU Xeon). Which thread runs an item
//! never changes its value: `f` sees only the item and its index.
//!
//! [`par_map_chunked`] distributes fixed-size chunks (~4 per worker by
//! default) off an atomic counter. [`par_map_guided`] is the adaptive
//! alternative for workloads with large per-item cost variance (the
//! route planner's trade-off sweep spans ~3× between its cheapest and
//! dearest points): workers claim `remaining / (2·workers)` items at a
//! time, so claims start large and halve toward the tail, bounding the
//! straggler tail by the cost of one small claim while keeping the
//! claim count — and therefore counter contention — logarithmic. Both
//! modes collect results by input index and are bit-identical to the
//! serial evaluation.
//!
//! # Examples
//!
//! ```
//! use rlckit_par::{par_map_chunked, Parallelism};
//!
//! # fn main() -> Result<(), rlckit_numeric::NumericError> {
//! let xs: Vec<f64> = (0..1000).map(f64::from).collect();
//! let squares = par_map_chunked(&xs, Parallelism::Auto, 0, |_, &x| Ok(x * x))?;
//! assert_eq!(squares[7], 49.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

pub use pool::{PoolClosed, ShardedPool};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use rlckit_numeric::{NumericError, Result};
use rlckit_trace::{counter, histogram};

/// How a parallel map distributes its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run on the calling thread; spawns nothing. The reference
    /// semantics every parallel mode must reproduce exactly.
    Serial,
    /// Resolve the worker count from `RLCKIT_THREADS`, falling back to
    /// [`std::thread::available_parallelism`].
    #[default]
    Auto,
    /// Exactly this many workers (clamped to ≥ 1; `1` is [`Self::Serial`]).
    Threads(usize),
}

impl Parallelism {
    /// The worker count this policy resolves to (always ≥ 1).
    #[must_use]
    pub fn resolve(self) -> usize {
        match self {
            Self::Serial => 1,
            Self::Auto => available_threads(),
            Self::Threads(n) => n.max(1),
        }
    }
}

/// The `Auto` worker count: a [`set_threads`] override when active,
/// else `RLCKIT_THREADS` when it parses as a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 if even that is
/// unavailable). The environment variable is read and parsed exactly
/// once per process; later mutations of the process environment do not
/// change the resolved count.
#[must_use]
pub fn available_threads() -> usize {
    let forced = FORCED_THREADS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = *ENV_THREADS.get_or_init(env_threads) {
        return n;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Programmatically overrides the [`Parallelism::Auto`] worker count,
/// taking precedence over the cached `RLCKIT_THREADS` value. Pass
/// `Some(n)` to force `n` workers (clamped to ≥ 1) or `None` to restore
/// the environment/auto-detected count. Intended for tests and
/// embedders that must change the count mid-process now that the
/// environment variable is read only once.
pub fn set_threads(n: Option<usize>) {
    FORCED_THREADS.store(n.map_or(0, |v| v.max(1)), Ordering::Relaxed);
}

/// Once-per-process cache of the parsed `RLCKIT_THREADS` value
/// (`None` = unset or unparseable, so auto-detection applies).
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// Programmatic [`set_threads`] override; 0 means "no override".
static FORCED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Reads and parses `RLCKIT_THREADS` (called at most once per process).
fn env_threads() -> Option<usize> {
    parse_threads(&std::env::var("RLCKIT_THREADS").ok()?)
}

/// Parses an `RLCKIT_THREADS` value; empty, non-numeric or zero values
/// are ignored (auto-detection applies).
fn parse_threads(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// What one worker records for one chunk.
enum ChunkOutcome<U> {
    Done(Vec<U>),
    Failed(NumericError),
    Panicked(String),
}

/// Maps `f` over `items` with `parallelism` workers, collecting results
/// in input order.
///
/// `f` receives `(input_index, &item)` and may fail; the map returns the
/// error of the **earliest** failing input, matching what the serial
/// loop would report first. `chunk_size` is the number of consecutive
/// items a worker claims at a time; pass `0` to let the engine pick
/// (targets ~4 chunks per worker so stragglers rebalance).
///
/// The output is bit-identical to the serial evaluation for every
/// worker count and chunk size — see the crate-level determinism
/// contract.
///
/// # Errors
///
/// Propagates the earliest `Err` returned by `f`, or
/// [`NumericError::InvalidInput`] if a worker panicked.
pub fn par_map_chunked<T, U, F>(
    items: &[T],
    parallelism: Parallelism,
    chunk_size: usize,
    f: F,
) -> Result<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> Result<U> + Sync,
{
    let threads = parallelism.resolve();
    if threads <= 1 || items.len() <= 1 {
        return serial_map(items, &f);
    }
    let chunk = effective_chunk_size(items.len(), threads, chunk_size);
    if chunk >= items.len() {
        return serial_map(items, &f);
    }

    let n_chunks = items.len().div_ceil(chunk);
    let next_chunk = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<ChunkOutcome<U>>>> = {
        let mut v = Vec::with_capacity(n_chunks);
        v.resize_with(n_chunks, || None);
        Mutex::new(v)
    };

    let worker = || {
        // Scheduling telemetry for the ROADMAP's work-stealing rung:
        // how many tasks and chunks this worker ended up claiming.
        // These are the one `par.*` metric family that is *not*
        // deterministic run-to-run (totals are; the per-worker split is
        // whatever the race produced).
        let mut my_tasks = 0u64;
        let mut my_chunks = 0u64;
        loop {
            let ci = next_chunk.fetch_add(1, Ordering::Relaxed);
            if ci >= n_chunks {
                break;
            }
            let start = ci * chunk;
            let end = (start + chunk).min(items.len());
            my_tasks += (end - start) as u64;
            my_chunks += 1;
            // Catch panics *outside* the slot lock: a panicking `f` can
            // then never poison the mutex, so sibling workers keep
            // draining chunks and the scope join always completes.
            let outcome = match catch_unwind(AssertUnwindSafe(|| {
                let mut out = Vec::with_capacity(end - start);
                for (i, item) in items[start..end].iter().enumerate() {
                    out.push(f(start + i, item)?);
                }
                Ok(out)
            })) {
                Ok(Ok(values)) => ChunkOutcome::Done(values),
                Ok(Err(e)) => ChunkOutcome::Failed(e),
                Err(payload) => ChunkOutcome::Panicked(panic_message(payload.as_ref())),
            };
            let mut guard = slots.lock().expect("outcome slots never poisoned");
            guard[ci] = Some(outcome);
        }
        histogram!("par.tasks_per_worker").observe(my_tasks);
        histogram!("par.chunks_per_worker").observe(my_chunks);
    };

    counter!("par.maps").incr();
    counter!("par.tasks").add(items.len() as u64);
    std::thread::scope(|scope| {
        for _ in 1..threads.min(n_chunks) {
            scope.spawn(worker);
        }
        worker();
    });

    let slots = slots.into_inner().expect("outcome slots never poisoned");
    let mut results = Vec::with_capacity(items.len());
    for (ci, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(ChunkOutcome::Done(values)) => results.extend(values),
            Some(ChunkOutcome::Failed(e)) => return Err(e),
            Some(ChunkOutcome::Panicked(msg)) => {
                return Err(NumericError::InvalidInput(format!(
                    "parallel worker panicked while mapping chunk {ci}: {msg}"
                )))
            }
            None => {
                // Unreachable: every chunk index below n_chunks is
                // claimed by exactly one worker before the scope joins.
                return Err(NumericError::InvalidInput(format!(
                    "parallel chunk {ci} was never processed"
                )));
            }
        }
    }
    Ok(results)
}

/// Maps `f` over `items` with guided self-scheduling: each worker
/// CAS-claims `remaining / (2·workers)` consecutive items at a time, so
/// claims start large and halve toward the tail.
///
/// Prefer this over [`par_map_chunked`] when per-item cost varies a lot
/// (the route planner's trade-off sweep spans ~3× between points): a
/// fixed chunk sized for the mean either leaves the tail imbalanced or
/// pays counter traffic on every item, while guided claims bound the
/// straggler tail by one small claim and keep the total claim count
/// logarithmic in the input length.
///
/// The output is bit-identical to the serial evaluation for every
/// worker count: each element is a pure function of `(input_index,
/// item)` and results are collected sorted by claim start, so the
/// claim-boundary race affects scheduling only, never values. On
/// failure the error of the **earliest** failing input is returned,
/// exactly as the serial loop would report it.
///
/// # Errors
///
/// Propagates the earliest `Err` returned by `f`, or
/// [`NumericError::InvalidInput`] if a worker panicked (the message
/// names the start of the claim being processed, which may vary with
/// scheduling; result values never do).
pub fn par_map_guided<T, U, F>(items: &[T], parallelism: Parallelism, f: F) -> Result<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> Result<U> + Sync,
{
    let threads = parallelism.resolve();
    let len = items.len();
    if threads <= 1 || len <= 1 {
        return serial_map(items, &f);
    }

    let next = AtomicUsize::new(0);
    let claims: Mutex<Vec<(usize, ChunkOutcome<U>)>> = Mutex::new(Vec::new());

    let worker = || {
        let mut my_tasks = 0u64;
        let mut my_claims = 0u64;
        let mut start = next.load(Ordering::Relaxed);
        'claims: loop {
            // CAS-claim [start, end): the claim size is recomputed from
            // the *observed* remaining count, so a failed exchange
            // retries against the freshest counter value.
            let end = loop {
                if start >= len {
                    break 'claims;
                }
                let end = start + guided_claim(len - start, threads);
                match next.compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => break end,
                    Err(observed) => start = observed,
                }
            };
            my_tasks += (end - start) as u64;
            my_claims += 1;
            // Same panic policy as the fixed-chunk engine: catch outside
            // the lock so a panicking `f` can never poison the mutex.
            let outcome = match catch_unwind(AssertUnwindSafe(|| {
                let mut out = Vec::with_capacity(end - start);
                for (i, item) in items[start..end].iter().enumerate() {
                    out.push(f(start + i, item)?);
                }
                Ok(out)
            })) {
                Ok(Ok(values)) => ChunkOutcome::Done(values),
                Ok(Err(e)) => ChunkOutcome::Failed(e),
                Err(payload) => ChunkOutcome::Panicked(panic_message(payload.as_ref())),
            };
            claims
                .lock()
                .expect("claim slots never poisoned")
                .push((start, outcome));
            start = next.load(Ordering::Relaxed);
        }
        histogram!("par.tasks_per_worker").observe(my_tasks);
        histogram!("par.claims_per_worker").observe(my_claims);
    };

    counter!("par.guided_maps").incr();
    counter!("par.tasks").add(len as u64);
    std::thread::scope(|scope| {
        for _ in 1..threads.min(len) {
            scope.spawn(worker);
        }
        worker();
    });

    // The claims partition [0, len); sorted by start they reproduce the
    // input order, and the first non-`Done` claim in that order contains
    // the earliest failing input (each claim short-circuits in-order).
    let mut claims = claims.into_inner().expect("claim slots never poisoned");
    claims.sort_unstable_by_key(|&(start, _)| start);
    let mut results = Vec::with_capacity(len);
    for (start, outcome) in claims {
        match outcome {
            ChunkOutcome::Done(values) => results.extend(values),
            ChunkOutcome::Failed(e) => return Err(e),
            ChunkOutcome::Panicked(msg) => {
                return Err(NumericError::InvalidInput(format!(
                    "parallel worker panicked while mapping items from {start}: {msg}"
                )))
            }
        }
    }
    debug_assert_eq!(results.len(), len, "claims must partition the input");
    Ok(results)
}

/// The guided self-scheduling claim size: `remaining / (2·workers)`, at
/// least 1. Early claims grab long contiguous runs (minimal counter
/// traffic, cache-friendly); late claims shrink geometrically so the
/// slowest worker finishes at most one small claim after its siblings.
fn guided_claim(remaining: usize, threads: usize) -> usize {
    (remaining / (threads * 2)).max(1)
}

/// Maps an infallible `f` over `items`; a convenience wrapper around
/// [`par_map_chunked`] for pure per-item computations.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] only if a worker panicked.
pub fn par_map<T, U, F>(items: &[T], parallelism: Parallelism, f: F) -> Result<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_chunked(items, parallelism, 0, |i, item| Ok(f(i, item)))
}

/// The serial reference path: a plain in-order loop on the caller's
/// thread, short-circuiting on the first error exactly like `collect`
/// over `Result`s.
fn serial_map<T, U>(items: &[T], f: &(impl Fn(usize, &T) -> Result<U> + Sync)) -> Result<Vec<U>> {
    counter!("par.serial_maps").incr();
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        out.push(f(i, item)?);
    }
    Ok(out)
}

/// Picks the chunk size: the caller's when positive, otherwise sized for
/// ~4 chunks per worker so a slow chunk (a hard optimization point) can
/// be rebalanced around.
fn effective_chunk_size(len: usize, threads: usize, requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    len.div_ceil(threads * 4).max(1)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_on_squares() {
        let xs: Vec<f64> = (0..257).map(|i| f64::from(i) * 0.37).collect();
        let serial = par_map_chunked(&xs, Parallelism::Serial, 0, |i, &x| Ok(x * x + i as f64))
            .unwrap();
        for threads in [2, 3, 8] {
            for chunk in [0, 1, 7, 64, 1000] {
                let par = par_map_chunked(&xs, Parallelism::Threads(threads), chunk, |i, &x| {
                    Ok(x * x + i as f64)
                })
                .unwrap();
                assert_eq!(serial.len(), par.len());
                for (a, b) in serial.iter().zip(&par) {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads={threads} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    fn indices_arrive_in_input_order() {
        let xs: Vec<u32> = (0..100).collect();
        let out = par_map_chunked(&xs, Parallelism::Threads(4), 3, |i, &x| {
            assert_eq!(i as u32, x, "index must match the input position");
            Ok(i)
        })
        .unwrap();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn earliest_error_wins() {
        let xs: Vec<usize> = (0..64).collect();
        let run = |parallelism| {
            par_map_chunked(&xs, parallelism, 2, |i, _| {
                if i >= 10 {
                    Err(NumericError::InvalidInput(format!("boom at {i}")))
                } else {
                    Ok(i)
                }
            })
        };
        for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
            match run(parallelism) {
                Err(NumericError::InvalidInput(msg)) => {
                    assert!(msg.contains("boom at 10"), "{parallelism:?}: {msg}")
                }
                other => panic!("{parallelism:?}: expected earliest error, got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_panic_becomes_an_error_not_a_hang() {
        let xs: Vec<usize> = (0..32).collect();
        let out = par_map_chunked(&xs, Parallelism::Threads(4), 1, |i, _| {
            assert!(i != 13, "unlucky index");
            Ok(i)
        });
        match out {
            Err(NumericError::InvalidInput(msg)) => {
                assert!(msg.contains("panicked"), "{msg}");
                assert!(msg.contains("unlucky index"), "{msg}");
            }
            other => panic!("expected surfaced panic, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_single_inputs_stay_on_the_calling_thread() {
        let empty: [f64; 0] = [];
        assert_eq!(
            par_map_chunked(&empty, Parallelism::Threads(8), 0, |_, &x: &f64| Ok(x)).unwrap(),
            Vec::<f64>::new()
        );
        let one = [42.0f64];
        assert_eq!(
            par_map_chunked(&one, Parallelism::Threads(8), 0, |_, &x| Ok(x * 2.0)).unwrap(),
            vec![84.0]
        );
    }

    #[test]
    fn infallible_wrapper_matches_serial_map() {
        let xs: Vec<i64> = (0..500).collect();
        let expected: Vec<i64> = xs.iter().map(|&x| x * 3 - 1).collect();
        let got = par_map(&xs, Parallelism::Threads(5), |_, &x| x * 3 - 1).unwrap();
        assert_eq!(expected, got);
    }

    #[test]
    fn parallelism_resolution_is_at_least_one() {
        assert_eq!(Parallelism::Serial.resolve(), 1);
        assert_eq!(Parallelism::Threads(0).resolve(), 1);
        assert_eq!(Parallelism::Threads(6).resolve(), 6);
        assert!(Parallelism::Auto.resolve() >= 1);
    }

    #[test]
    fn auto_chunking_gives_multiple_chunks_per_worker() {
        assert_eq!(effective_chunk_size(1000, 4, 0), 63);
        assert_eq!(effective_chunk_size(1000, 4, 17), 17);
        assert_eq!(effective_chunk_size(3, 8, 0), 1);
        assert_eq!(effective_chunk_size(0, 8, 0), 1);
    }

    #[test]
    fn threads_value_parsing_ignores_garbage_and_zero() {
        assert_eq!(parse_threads("3"), Some(3));
        assert_eq!(parse_threads(" 12 "), Some(12));
        for bad in ["0", "", "  ", "many", "-4", "1.5"] {
            assert_eq!(parse_threads(bad), None, "RLCKIT_THREADS={bad:?}");
        }
    }

    #[test]
    fn guided_claims_start_large_and_halve_toward_the_tail() {
        assert_eq!(guided_claim(1000, 4), 125);
        assert_eq!(guided_claim(100, 4), 12);
        assert_eq!(guided_claim(8, 4), 1);
        assert_eq!(guided_claim(1, 4), 1);
    }

    #[test]
    fn guided_matches_serial_bit_for_bit() {
        let xs: Vec<f64> = (0..511).map(|i| f64::from(i) * 0.73 - 4.0).collect();
        let f = |i: usize, &x: &f64| Ok((x * x).sin() + i as f64 * 1e-3);
        let serial = par_map_chunked(&xs, Parallelism::Serial, 0, f).unwrap();
        for threads in [2, 3, 8] {
            let guided = par_map_guided(&xs, Parallelism::Threads(threads), f).unwrap();
            assert_eq!(serial.len(), guided.len());
            for (a, b) in serial.iter().zip(&guided) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn guided_earliest_error_wins() {
        let xs: Vec<usize> = (0..96).collect();
        for threads in [2, 4] {
            match par_map_guided(&xs, Parallelism::Threads(threads), |i, _| {
                if i >= 23 {
                    Err(NumericError::InvalidInput(format!("boom at {i}")))
                } else {
                    Ok(i)
                }
            }) {
                Err(NumericError::InvalidInput(msg)) => {
                    assert!(msg.contains("boom at 23"), "threads={threads}: {msg}")
                }
                other => panic!("threads={threads}: expected earliest error, got {other:?}"),
            }
        }
    }

    #[test]
    fn guided_worker_panic_becomes_an_error_not_a_hang() {
        let xs: Vec<usize> = (0..48).collect();
        match par_map_guided(&xs, Parallelism::Threads(4), |i, _| {
            assert!(i != 29, "unlucky index");
            Ok(i)
        }) {
            Err(NumericError::InvalidInput(msg)) => {
                assert!(msg.contains("panicked"), "{msg}");
                assert!(msg.contains("unlucky index"), "{msg}");
            }
            other => panic!("expected surfaced panic, got {other:?}"),
        }
    }

    #[test]
    fn guided_empty_and_single_inputs_stay_on_the_calling_thread() {
        let empty: [f64; 0] = [];
        assert_eq!(
            par_map_guided(&empty, Parallelism::Threads(8), |_, &x: &f64| Ok(x)).unwrap(),
            Vec::<f64>::new()
        );
        let one = [42.0f64];
        assert_eq!(
            par_map_guided(&one, Parallelism::Threads(8), |_, &x| Ok(x * 2.0)).unwrap(),
            vec![84.0]
        );
    }
}
