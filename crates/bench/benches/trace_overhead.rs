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
//!   load — the tier-1 `trace_overhead` guard pins this budget) and
//!   enabled (one clock read plus four relaxed ring stores).
//!
//! The smoke pass exercises all paths; the measured run writes the
//! comparison into `results/BENCH_trace_overhead.json`. A real-world
//! check rides along: the full delay solve is timed with tracing off
//! and on, and the enabled/disabled ratio is recorded — it should be
//! indistinguishable from 1 since the solver's counters record either
//! way and the delay solve emits no events.

use std::hint::black_box;

use rlckit::optimizer::segment_structure;
use rlckit_bench::timer::Harness;
use rlckit_tech::TechNode;
use rlckit_tline::{LineRlc, TwoPole};
use rlckit_trace::events::EventKind;
use rlckit_trace::{counter, event, histogram};
use rlckit_units::{HenriesPerMeter, Meters};

fn two_pole() -> TwoPole {
    let node = TechNode::nm100();
    let line = LineRlc::new(
        node.line().resistance,
        HenriesPerMeter::from_nano_per_milli(1.0),
        node.line().capacitance,
    );
    segment_structure(&line, &node.driver(), Meters::from_milli(11.1), 528.0).two_pole()
}

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
    // relaxed load — the tier-1 `trace_overhead` guard pins it);
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

fn bench_solver_with_tracing_toggled(h: &mut Harness) {
    let tp = two_pole();
    rlckit_trace::set_enabled(false);
    h.bench("delay_solve_trace_off", || {
        black_box(tp.delay(black_box(0.5)).expect("delay"))
    });
    rlckit_trace::set_enabled(true);
    h.bench("delay_solve_trace_on", || {
        black_box(tp.delay(black_box(0.5)).expect("delay"))
    });
    rlckit_trace::set_enabled(false);
    // ~1.0x: the solver's counters record in both states and the
    // delay path emits no events.
    h.record_speedup(
        "delay_solve_trace_ratio",
        "delay_solve_trace_off",
        "delay_solve_trace_on",
        &[],
    );
}

fn main() {
    let mut h = Harness::from_args("trace_overhead");
    bench_primitives(&mut h);
    bench_solver_with_tracing_toggled(&mut h);
    h.finish();
}
