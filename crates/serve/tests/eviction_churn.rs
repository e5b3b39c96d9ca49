//! The memo's serving claims, counted exactly on seeded mixes:
//!
//! * a warm daemon answers loadgen's 64/30/6 hot/noisy/cold mix almost
//!   entirely from the memo (hit rate > 0.9 on the first replay, whose
//!   noisy neighbours hit through key rounding, and on the next; no
//!   errors);
//! * under hot + one-shot-cold churn against a deliberately small memo,
//!   promote-on-hit LRU holds the warm grid (warm-grid hit rate > 0.9)
//!   while FIFO, whose oldest-first victims are exactly the preloaded
//!   warm entries, does worse on the byte-identical workload.
//!
//! Sessions replay one after another, never concurrently: within one
//! session every key is pinned to one shard worker, so the memo's
//! evolution, and with it every count below, repeats exactly.

use rlckit::memo::{Eviction, QUANT_BITS};
use rlckit_numeric::rng::Rng;
use rlckit_serve::{ServeConfig, ServeSummary, Server};

const NODES: [&str; 3] = ["250nm", "100nm", "100nm_eps33"];
const OPS: [&str; 3] = ["optimum", "route_delay", "lcrit"];

/// Grid points per node of the server's warm grid and the hot key set.
const WARM_POINTS: usize = 5;

fn grid_l(index: usize) -> f64 {
    4.95 * index as f64 / (WARM_POINTS - 1) as f64
}

fn query_line(id: usize, node: &str, l_nh_mm: f64) -> String {
    let op = OPS[id % OPS.len()];
    let length = if op == "route_delay" {
        ",\"length_mm\":20"
    } else {
        ""
    };
    format!("{{\"id\":{id},\"op\":\"{op}\",\"node\":\"{node}\",\"l_nh_mm\":{l_nh_mm}{length}}}\n")
}

/// `loadgen --emit=240` without the stats barrier: ~64 % exact hot
/// repeats, ~30 % noisy neighbours (a hot key moved by up to a quarter
/// of a quantization bucket) and ~6 % cold full-precision keys.
fn hot_mix() -> String {
    let mut rng = Rng::new(0x4c4f_4144_4745_4e21);
    let mut out = String::new();
    for id in 1..=240 {
        let node = NODES[rng.index(NODES.len())];
        let draw = rng.next_f64();
        let l = if draw < 0.64 {
            grid_l(rng.index(WARM_POINTS))
        } else if draw < 0.94 {
            let l = grid_l(rng.index(WARM_POINTS));
            if l == 0.0 {
                0.0
            } else {
                f64::from_bits(l.to_bits() + rng.next_u64() % (1u64 << (QUANT_BITS - 2)))
            }
        } else {
            rng.uniform(0.01, 4.9)
        };
        out.push_str(&query_line(id, node, l));
    }
    out
}

/// ~60 % hot on-grid repeats and ~40 % unique cold keys, each asked
/// once. Returns the mix and its hot-request count: every hit in this
/// mix is a warm-grid hit.
fn churn_mix(seed: u64) -> (String, u64) {
    let mut rng = Rng::new(seed);
    let mut out = String::new();
    let mut hot = 0;
    for id in 1..=240 {
        let node = NODES[rng.index(NODES.len())];
        let l = if rng.next_f64() < 0.6 {
            hot += 1;
            grid_l(rng.index(WARM_POINTS))
        } else {
            rng.uniform(0.01, 4.9)
        };
        out.push_str(&query_line(id, node, l));
    }
    (out, hot)
}

fn replay(server: &Server, input: &str) -> ServeSummary {
    let mut out = Vec::new();
    server
        .serve(input.as_bytes(), &mut out)
        .expect("in-memory replay cannot fail on I/O")
}

/// Warm-grid hits and hot requests over 3 churn sessions, replayed in
/// sequence against a 4 × 12-entry memo under `eviction`.
fn churn_counts(eviction: Eviction) -> (u64, u64) {
    let server = Server::new(ServeConfig {
        workers: 4,
        queue_depth: 64,
        shard_capacity: 12,
        eviction,
    });
    server.warm_grid(WARM_POINTS);
    let (mut hits, mut hot) = (0, 0);
    for i in 0..3 {
        let (mix, session_hot) = churn_mix(0xE71C_7104 + i);
        hits += replay(&server, &mix).hits;
        hot += session_hot;
    }
    (hits, hot)
}

#[test]
fn warm_memo_serves_the_hot_mix() {
    let server = Server::new(ServeConfig::default());
    server.warm_grid(WARM_POINTS);
    let mix = hot_mix();
    // The priming replay pays the mix's cold solves, as a long-running
    // daemon already has. Its noisy neighbours are first asks, so they
    // hit only if key rounding maps them onto the warm grid; after it,
    // every key of the mix is in the memo whatever the rounding does.
    let p = replay(&server, &mix);
    let rate = p.hits as f64 / p.requests as f64;
    assert!(rate > 0.9, "priming hit rate {rate:.3} <= 0.9: {p:?}");
    let s = replay(&server, &mix);
    assert_eq!(s.requests, 240);
    assert_eq!(s.errors, 0, "{s:?}");
    let rate = s.hits as f64 / s.requests as f64;
    assert!(rate > 0.9, "hot-mix hit rate {rate:.3} <= 0.9: {s:?}");
}

#[test]
fn lru_holds_the_warm_grid_under_churn_and_fifo_does_not() {
    let lru = churn_counts(Eviction::Lru);
    let fifo = churn_counts(Eviction::Fifo);
    assert_eq!(lru, churn_counts(Eviction::Lru), "LRU counts did not repeat");
    assert_eq!(fifo, churn_counts(Eviction::Fifo), "FIFO counts did not repeat");
    let rate = |(hits, hot): (u64, u64)| hits as f64 / hot as f64;
    assert!(
        rate(lru) > 0.9,
        "LRU warm-grid hit rate {:.3} <= 0.9 ({lru:?})",
        rate(lru)
    );
    assert!(
        rate(fifo) < rate(lru),
        "FIFO ({fifo:?}) did not fall below LRU ({lru:?})"
    );
}
