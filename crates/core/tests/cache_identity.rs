//! Bit identity at campaign scale: the guided self-scheduler must not
//! change a single bit of campaign output — serial, at multiple thread
//! counts, and under armed fault injection.
//!
//! Fault arming and trace counters are process-global, so every test
//! takes `FAULT_LOCK` for its whole body and sets the armed state
//! explicitly.

use std::sync::{Mutex, MutexGuard, PoisonError};

use rlckit::optimizer::OptimizerOptions;
use rlckit::report::Table;
use rlckit::sweeps::{inductance_sweep_with, SweepPoint};
use rlckit_par::Parallelism;
use rlckit_tech::TechNode;
use rlckit_units::HenriesPerMeter;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Seed that demonstrably injects into this grid at a 10 % rate
/// (asserted in `crates/core/tests/fault_tolerance.rs`).
const FAULT_SEED: u64 = 2001;

fn grid() -> Vec<HenriesPerMeter> {
    rlckit_numeric::grid::linspace(0.0, 4.95, 17)
        .into_iter()
        .map(HenriesPerMeter::from_nano_per_milli)
        .collect()
}

fn sweep(parallelism: Parallelism) -> Vec<SweepPoint> {
    let node = TechNode::nm100();
    inductance_sweep_with(
        &node.line(),
        &node.driver(),
        grid(),
        OptimizerOptions::default(),
        parallelism,
    )
    .expect("sweep must converge")
}

/// The same shape the fig bins emit: fixed-precision formatted rows.
/// Byte-equality of this string is the CSV contract the tier-1 gate
/// checks with `cmp` on the real result files.
fn campaign_csv(points: &[SweepPoint]) -> String {
    let mut table = Table::new(&["l (nH/mm)", "h_ratio", "k_ratio", "delay (s/m)"]);
    for p in points {
        table.row_values(
            &[
                p.inductance.to_nano_per_milli(),
                p.h_ratio,
                p.k_ratio,
                p.delay_per_length,
            ],
            6,
        );
    }
    table.to_csv()
}

/// Every `SweepPoint` field as raw bits (plus the damping regime), for
/// exact comparison beyond what the CSV rounds off.
fn full_bits(p: &SweepPoint) -> ([u64; 8], rlckit_tline::Damping) {
    (
        [
            p.inductance.get().to_bits(),
            p.h_opt.to_bits(),
            p.k_opt.to_bits(),
            p.delay_per_length.to_bits(),
            p.h_ratio.to_bits(),
            p.k_ratio.to_bits(),
            p.l_crit.to_bits(),
            p.rc_design_delay_per_length.to_bits(),
        ],
        p.damping,
    )
}

#[test]
fn campaign_csv_is_byte_identical_across_schedulers_and_thread_counts() {
    let _guard = locked();
    rlckit_fault::disarm();
    let serial = sweep(Parallelism::Serial);
    let reference_csv = campaign_csv(&serial);
    for threads in [2, 5] {
        let guided = sweep(Parallelism::Threads(threads));
        for (i, (s, g)) in serial.iter().zip(&guided).enumerate() {
            assert_eq!(
                full_bits(s),
                full_bits(g),
                "point {i} drifted at {threads} threads"
            );
        }
        assert_eq!(
            reference_csv,
            campaign_csv(&guided),
            "campaign CSV drifted at {threads} threads"
        );
    }
}

#[test]
fn campaign_csv_is_byte_identical_under_armed_faults() {
    let _guard = locked();
    rlckit_fault::disarm();
    let clean_csv = campaign_csv(&sweep(Parallelism::Serial));

    rlckit_fault::arm(FAULT_SEED, 0.10);
    let before = rlckit_trace::snapshot();
    let armed = [
        ("serial", campaign_csv(&sweep(Parallelism::Serial))),
        ("2 threads", campaign_csv(&sweep(Parallelism::Threads(2)))),
        ("5 threads", campaign_csv(&sweep(Parallelism::Threads(5)))),
    ];
    let delta = rlckit_trace::snapshot().since(&before);
    rlckit_fault::disarm();

    assert!(
        delta.counters_ending_with(".injected_faults") > 0,
        "seed {FAULT_SEED} at 10 % must inject into this grid"
    );
    for (label, csv) in &armed {
        assert_eq!(
            &clean_csv, csv,
            "campaign CSV drifted under fault injection ({label})"
        );
    }
}
