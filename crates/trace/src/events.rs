//! The flight recorder: bounded, lock-free, per-request structured
//! events.
//!
//! The metric layer in the crate root answers "how much, in aggregate"
//! — counters and histograms have no notion of *which* request paid a
//! cost. This module records the per-request story: fixed-size
//! structured events `{trace_id, scope, kind, value, t_ns}` written
//! into **per-thread ring buffers** and drained into one
//! causally-ordered JSONL stream on flush.
//!
//! # Design
//!
//! * **Always available, always bounded.** Every thread that records
//!   owns one fixed-capacity ring ([`RING_CAPACITY`] slots); when it
//!   wraps, the oldest events are overwritten — a flight recorder keeps
//!   the recent past, it never grows without bound and never blocks the
//!   hot path on a full buffer.
//! * **Lock-free to record.** A slot is four relaxed atomic stores plus
//!   one release bump of the ring head, all on thread-local storage.
//!   The only lock is taken once per `(thread, process)` (ring
//!   registration) and once per scope *call site* (name interning).
//!   When tracing is disabled ([`crate::enabled`] is false) recording
//!   is a single relaxed load and an early return — the
//!   `trace_overhead` bench guards this path's budget in tier-1.
//! * **Causally ordered on drain.** [`EventKind`] discriminants follow
//!   the serving pipeline (parse → route → dequeue → probe → solve →
//!   write → outcome), and [`collect`] sorts by
//!   `(trace_id, kind, scope, value)` — *not* by timestamp — so the
//!   drained stream is a pure function of the workload: two seeded runs
//!   produce byte-identical event streams once the `t_ns` values are
//!   stripped. That is the determinism contract the tier-1 serve smoke
//!   `cmp`s.
//!
//! # Determinism contract
//!
//! In an event line every field except `t_ns` — `trace_id`, `scope`,
//! `kind`, `value`, and the line order itself — is seed-deterministic.
//! Wall clock appears only under the `t_ns` key, honouring the crate's
//! `*_ns`-only wall-clock rule.
//!
//! # Example
//!
//! ```
//! use rlckit_trace::events::{self, EventKind};
//!
//! rlckit_trace::set_enabled(true);
//! rlckit_trace::event!(17, "doc.example", EventKind::Solve, 3);
//! let drained = events::collect();
//! let mine: Vec<_> = drained
//!     .events
//!     .iter()
//!     .filter(|e| e.scope == "doc.example")
//!     .collect();
//! assert_eq!(mine.len(), 1);
//! assert_eq!(mine[0].trace_id, 17);
//! assert_eq!(mine[0].value, 3);
//! ```

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Events retained per recording thread before the oldest are
/// overwritten. 4096 × 32 bytes = 128 KiB per thread — large enough to
/// hold several thousand requests' worth of pipeline events, small
/// enough to forget about.
pub const RING_CAPACITY: usize = 4096;

/// What pipeline stage an event marks. The discriminants are ordered
/// along the serving pipeline so that sorting a request's events by
/// kind reconstructs its span tree without consulting wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Request line parsed (router thread). Value: protocol op code.
    Parse = 0,
    /// Request routed to a pool shard (router thread). Value: shard.
    Route = 1,
    /// Request picked up by its shard's worker. Value: shard — the
    /// worker attribution, since workers are pinned to shards.
    Dequeue = 2,
    /// Memo probed (worker thread). Value: 1 = hit, 0 = miss.
    Probe = 3,
    /// Answer computed (worker thread). Value: 0 = served, 1 = error.
    Solve = 4,
    /// Response written in order (writer thread). Value: response
    /// bytes.
    Write = 5,
    /// Campaign point outcome. Value: attempts spent.
    Outcome = 6,
}

impl EventKind {
    /// The wire name of this kind in the JSONL stream.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Parse => "parse",
            Self::Route => "route",
            Self::Dequeue => "dequeue",
            Self::Probe => "probe",
            Self::Solve => "solve",
            Self::Write => "write",
            Self::Outcome => "outcome",
        }
    }

    fn from_u8(byte: u8) -> Option<Self> {
        Some(match byte {
            0 => Self::Parse,
            1 => Self::Route,
            2 => Self::Dequeue,
            3 => Self::Probe,
            4 => Self::Solve,
            5 => Self::Write,
            6 => Self::Outcome,
            _ => return None,
        })
    }
}

/// Interned scope names, indexed by the id packed into ring slots.
static SCOPES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn scope_name(id: u32) -> &'static str {
    SCOPES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(id as usize)
        .copied()
        .unwrap_or("?")
}

/// A per-call-site scope handle: interns its name once and caches the
/// id in a static, so the steady-state record path never touches the
/// intern table. Declared for you by [`crate::event!`].
pub struct EventScope {
    name: &'static str,
    /// Cached interned id + 1; 0 means "not yet interned".
    cached: AtomicU32,
}

impl EventScope {
    /// Creates an uninterned scope (const: usable in `static`s).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cached: AtomicU32::new(0),
        }
    }

    fn id(&self) -> u32 {
        let cached = self.cached.load(Ordering::Relaxed);
        if cached != 0 {
            return cached - 1;
        }
        let mut scopes = SCOPES.lock().unwrap_or_else(PoisonError::into_inner);
        let id = scopes
            .iter()
            .position(|n| *n == self.name)
            .unwrap_or_else(|| {
                scopes.push(self.name);
                scopes.len() - 1
            });
        let id = u32::try_from(id).expect("fewer than 2^32 scope call sites");
        self.cached.store(id + 1, Ordering::Relaxed);
        id
    }
}

/// One ring slot. `meta` packs `scope_id << 32 | kind << 1 | occupied`;
/// the occupied bit distinguishes never-written slots from real events.
struct Slot {
    trace_id: AtomicU64,
    meta: AtomicU64,
    value: AtomicU64,
    t_ns: AtomicU64,
}

impl Slot {
    const fn empty() -> Self {
        Self {
            trace_id: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            value: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
        }
    }
}

/// One thread's flight-recorder ring. Only the owning thread stores;
/// any thread may read (a drain racing a wrapping writer can observe a
/// torn slot, which [`collect`] tolerates — serving drains after the
/// pipeline quiesces, where no race exists).
struct Ring {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl Ring {
    fn new() -> Self {
        Self {
            slots: (0..RING_CAPACITY).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, trace_id: u64, scope_id: u32, kind: EventKind, value: u64, t_ns: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head % self.slots.len() as u64) as usize];
        slot.trace_id.store(trace_id, Ordering::Relaxed);
        slot.meta.store(
            (u64::from(scope_id) << 32) | (kind as u64) << 1 | 1,
            Ordering::Relaxed,
        );
        slot.value.store(value, Ordering::Relaxed);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Release);
    }

    fn read_into(&self, out: &mut Vec<EventRecord>, dropped: &mut u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let kept = head.min(cap);
        *dropped += head - kept;
        for i in (head - kept)..head {
            let slot = &self.slots[(i % cap) as usize];
            let meta = slot.meta.load(Ordering::Relaxed);
            if meta & 1 == 0 {
                continue;
            }
            let Some(kind) = EventKind::from_u8(((meta >> 1) & 0xff) as u8) else {
                continue;
            };
            out.push(EventRecord {
                trace_id: slot.trace_id.load(Ordering::Relaxed),
                scope: scope_name((meta >> 32) as u32),
                kind,
                value: slot.value.load(Ordering::Relaxed),
                t_ns: slot.t_ns.load(Ordering::Relaxed),
            });
        }
    }
}

/// Every ring ever registered (threads never unregister; a ring is
/// ~128 KiB and thread counts here are single digits).
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

thread_local! {
    static RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
}

/// Nanoseconds since the first event of the process — a monotonic
/// epoch, so `t_ns` values within one run are comparable.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Records one event into the calling thread's ring. Gated on
/// [`crate::enabled`]: the disabled path is one relaxed load. Use
/// through [`crate::event!`], which owns the per-call-site
/// [`EventScope`].
///
/// A disabled recorder records nothing:
///
/// ```
/// use rlckit_trace::events::{self, EventKind};
///
/// rlckit_trace::set_enabled(false);
/// rlckit_trace::event!(1, "doc.disabled", EventKind::Parse, 0);
/// assert!(events::collect().events.iter().all(|e| e.scope != "doc.disabled"));
/// ```
pub fn record(scope: &'static EventScope, trace_id: u64, kind: EventKind, value: u64) {
    if !crate::enabled() {
        return;
    }
    let t_ns = now_ns();
    let scope_id = scope.id();
    RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(Ring::new());
            RINGS
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Arc::clone(&ring));
            ring
        });
        ring.push(trace_id, scope_id, kind, value, t_ns);
    });
}

/// One drained event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// The request / campaign-point this event belongs to.
    pub trace_id: u64,
    /// The interned call-site scope name.
    pub scope: &'static str,
    /// Pipeline stage.
    pub kind: EventKind,
    /// Stage-specific deterministic payload (see [`EventKind`]).
    pub value: u64,
    /// Nanoseconds since the process's first event — the only
    /// non-deterministic field.
    pub t_ns: u64,
}

/// The result of draining every ring.
#[derive(Debug, Clone, Default)]
pub struct DrainedEvents {
    /// All retained events, causally ordered (see [`collect`]).
    pub events: Vec<EventRecord>,
    /// Events overwritten before this drain (ring wrap).
    pub dropped: u64,
}

/// Drains every thread's ring into one causally-ordered stream: sorted
/// by `(trace_id, kind, scope, value)` so the order — like every field
/// but `t_ns` — is deterministic. Rings are *not* cleared: a flight
/// recorder's contents survive until overwritten, so a later drain
/// re-reads retained events.
#[must_use]
pub fn collect() -> DrainedEvents {
    let rings: Vec<Arc<Ring>> = RINGS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let mut drained = DrainedEvents::default();
    for ring in rings {
        ring.read_into(&mut drained.events, &mut drained.dropped);
    }
    drained
        .events
        .sort_by(|a, b| {
            (a.trace_id, a.kind, a.scope, a.value).cmp(&(b.trace_id, b.kind, b.scope, b.value))
        });
    drained
}

/// Renders drained events as JSON lines, one
/// `{"type":"event","trace_id":…,"scope":…,"kind":…,"value":…,"t_ns":…}`
/// object per event, with a final `{"type":"events_dropped",…}` marker
/// when the rings wrapped. Scope names come from `&'static str`
/// call-site literals, so they never need escaping beyond
/// [`crate::jsonl_of`]'s rules — but they get the same escaping anyway.
#[must_use]
pub fn jsonl_of(drained: &DrainedEvents) -> String {
    let mut out = String::with_capacity(drained.events.len() * 96);
    for e in &drained.events {
        out.push_str(&format!(
            "{{\"type\":\"event\",\"trace_id\":{},\"scope\":{},\"kind\":\"{}\",\
             \"value\":{},\"t_ns\":{}}}\n",
            e.trace_id,
            crate::json_escape(e.scope),
            e.kind.label(),
            e.value,
            e.t_ns,
        ));
    }
    if drained.dropped > 0 {
        out.push_str(&format!(
            "{{\"type\":\"events_dropped\",\"value\":{}}}\n",
            drained.dropped
        ));
    }
    out
}

/// Drains every ring and writes the JSONL stream to `path`
/// (truncating). Returns the number of events written.
///
/// # Errors
///
/// Propagates the underlying write failure.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<usize> {
    let drained = collect();
    std::fs::write(path, jsonl_of(&drained))?;
    Ok(drained.events.len())
}

/// Declares a `static` [`EventScope`] at the call site and records one
/// flight-recorder event: `event!(trace_id, "scope.name", kind, value)`.
/// The scope must be a `&'static str` literal; interning happens once
/// per call site.
#[macro_export]
macro_rules! event {
    ($trace_id:expr, $scope:expr, $kind:expr, $value:expr) => {{
        static __RLCKIT_TRACE_EVENT_SCOPE: $crate::events::EventScope =
            $crate::events::EventScope::new($scope);
        $crate::events::record(&__RLCKIT_TRACE_EVENT_SCOPE, $trace_id, $kind, $value)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mine(scope: &str) -> Vec<EventRecord> {
        collect()
            .events
            .into_iter()
            .filter(|e| e.scope == scope)
            .collect()
    }

    #[test]
    fn recorded_events_come_back_with_all_fields() {
        crate::set_enabled(true);
        crate::event!(7, "test.events.fields", EventKind::Probe, 1);
        crate::event!(7, "test.events.fields", EventKind::Solve, 0);
        let got = mine("test.events.fields");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].trace_id, 7);
        assert_eq!(got[0].kind, EventKind::Probe);
        assert_eq!(got[0].value, 1);
        assert_eq!(got[1].kind, EventKind::Solve);
        // Probe precedes Solve causally *and* temporally on one thread.
        assert!(got[0].t_ns <= got[1].t_ns);
    }

    #[test]
    fn drain_order_is_trace_then_pipeline_not_timestamp() {
        crate::set_enabled(true);
        // Record out of pipeline order, across two traces, interleaved.
        crate::event!(22, "test.events.order", EventKind::Write, 0);
        crate::event!(21, "test.events.order", EventKind::Solve, 0);
        crate::event!(22, "test.events.order", EventKind::Parse, 0);
        crate::event!(21, "test.events.order", EventKind::Parse, 0);
        let got = mine("test.events.order");
        let keys: Vec<(u64, EventKind)> = got.iter().map(|e| (e.trace_id, e.kind)).collect();
        assert_eq!(
            keys,
            vec![
                (21, EventKind::Parse),
                (21, EventKind::Solve),
                (22, EventKind::Parse),
                (22, EventKind::Write),
            ]
        );
    }

    #[test]
    fn ring_wrap_keeps_the_newest_events_and_counts_drops() {
        crate::set_enabled(true);
        // A dedicated thread owns a fresh ring, so the wrap arithmetic
        // is exact rather than entangled with sibling tests' events.
        std::thread::spawn(|| {
            for i in 0..(RING_CAPACITY as u64 + 10) {
                crate::event!(i, "test.events.wrap", EventKind::Outcome, i);
            }
        })
        .join()
        .unwrap();
        let drained = collect();
        let wrap: Vec<&EventRecord> = drained
            .events
            .iter()
            .filter(|e| e.scope == "test.events.wrap")
            .collect();
        assert_eq!(wrap.len(), RING_CAPACITY);
        assert!(drained.dropped >= 10, "wrapping must count drops");
        // The oldest 10 were overwritten: the retained set starts at 10.
        assert_eq!(wrap[0].trace_id, 10);
        assert_eq!(wrap.last().unwrap().trace_id, RING_CAPACITY as u64 + 9);
    }

    #[test]
    fn events_from_multiple_threads_merge_into_one_stream() {
        crate::set_enabled(true);
        std::thread::scope(|s| {
            for t in 0..3u64 {
                s.spawn(move || {
                    crate::event!(100 + t, "test.events.merge", EventKind::Dequeue, t);
                });
            }
        });
        let got = mine("test.events.merge");
        let ids: Vec<u64> = got.iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![100, 101, 102], "sorted across rings");
    }

    #[test]
    fn jsonl_confines_wall_clock_to_t_ns() {
        let drained = DrainedEvents {
            events: vec![EventRecord {
                trace_id: 3,
                scope: "a.b",
                kind: EventKind::Route,
                value: 2,
                t_ns: 55,
            }],
            dropped: 1,
        };
        let text = jsonl_of(&drained);
        assert_eq!(
            text,
            "{\"type\":\"event\",\"trace_id\":3,\"scope\":\"a.b\",\"kind\":\"route\",\
             \"value\":2,\"t_ns\":55}\n{\"type\":\"events_dropped\",\"value\":1}\n"
        );
    }

    #[test]
    fn kind_labels_round_trip_the_discriminants() {
        for k in [
            EventKind::Parse,
            EventKind::Route,
            EventKind::Dequeue,
            EventKind::Probe,
            EventKind::Solve,
            EventKind::Write,
            EventKind::Outcome,
        ] {
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
            assert!(!k.label().is_empty());
        }
        assert_eq!(EventKind::from_u8(200), None);
    }
}
