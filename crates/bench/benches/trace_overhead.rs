//! Quantifies the cost of the `rlckit-trace` instrumentation itself —
//! the "zero-cost-when-disabled" claim that justifies leaving counters
//! in the hottest solver loops.
//!
//! Two rungs are measured against a bare arithmetic baseline:
//!
//! * a counter increment (a plain relaxed load and store on the
//!   thread's own cell, no atomic read-modify-write) and a histogram
//!   observation (four such cell updates: bucket, sum, min, max); both
//!   record whether or not tracing is enabled;
//! * a flight-recorder `event!` with tracing disabled (one relaxed
//!   load — `scripts/tier1.sh` measures this rung fresh and holds it
//!   to 25 ns) and enabled (one clock read plus four relaxed ring
//!   stores).
//!
//! The smoke pass exercises all paths; the measured run writes the
//! comparison into `BENCH_trace_overhead.json` in the results
//! directory. The cost of tracing on a whole solve is perfbench's
//! `trace.overhead_ratio`.

use std::hint::black_box;

use rlckit_bench::timer::Harness;
use rlckit_trace::events::EventKind;
use rlckit_trace::{counter, event, histogram};

fn bench_primitives(h: &mut Harness) {
    let mut x = 0u64;
    h.bench("baseline_arith", move || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        black_box(x)
    });
    h.bench("counter_incr", || counter!("bench.overhead.counter").incr());
    h.bench("histogram_observe", || {
        histogram!("bench.overhead.histogram").observe(3);
    });

    // Flight-recorder rungs: disabled is the claim that matters (one
    // relaxed load — tier1 holds it to 25 ns);
    // enabled is one clock read plus four relaxed stores into the
    // thread's ring.
    rlckit_trace::set_enabled(false);
    let mut id = 0u64;
    h.bench("event_record_disabled", move || {
        id = id.wrapping_add(1);
        event!(id, "bench.overhead.event_off", EventKind::Solve, 1);
        black_box(id)
    });
    rlckit_trace::set_enabled(true);
    let mut id = 0u64;
    h.bench("event_record_enabled", move || {
        id = id.wrapping_add(1);
        event!(id, "bench.overhead.event_on", EventKind::Solve, 1);
        black_box(id)
    });
    rlckit_trace::set_enabled(false);
}

fn main() {
    let mut h = Harness::from_args("trace_overhead");
    bench_primitives(&mut h);
    h.finish();
}
