//! Seeded load generator for `rlckit-serve`.
//!
//! Builds a deterministic query mix of the three shapes an interactive
//! serving workload exhibits:
//!
//! * **hot repeats** — exact re-asks of a small set of on-grid keys
//!   (always memo hits once warm);
//! * **noisy neighbours** — hot keys with the inductance perturbed by a
//!   few ulps, inside one `QUANT_BITS` quantization bucket (hits via
//!   key rounding — the case the round-to-nearest quantizer exists
//!   for);
//! * **cold misses** — full-precision random inductances that land in
//!   fresh buckets and pay a real solve.
//!
//! With `--emit=N` the mix (plus a trailing `stats` barrier) is printed
//! to stdout, for the tier-1 smoke that pipes the same seeded mix
//! through the daemon binary twice and `cmp`s the responses byte for
//! byte; `--hot-only` restricts the mix to strictly on-grid keys (pure
//! hits against a `--warm-grid 5` daemon — the parallel-clients cmp
//! smoke needs every session's response stream, stats lines included,
//! to be independent of its concurrent neighbours). With
//! `--connect=ADDR` the same mix is instead played as a **live TCP
//! client**: written to the daemon at `ADDR`, write half shut down,
//! responses streamed to stdout. The memo's hit rates on these mixes
//! are pinned by `rlckit-serve`'s `eviction_churn` test.
//!
//! ```text
//! loadgen (--emit=N | --connect=ADDR) [--seed=S] [--hot-only]
//! ```

#![forbid(unsafe_code)]

use rlckit::memo::QUANT_BITS;
use rlckit_numeric::rng::Rng;

/// One hot key: a named node and an on-grid inductance.
const NODES: [&str; 3] = ["250nm", "100nm", "100nm_eps33"];

/// Number of grid points per node the hot set (and the server warm-up)
/// uses.
const WARM_POINTS: usize = 5;

fn grid_l(index: usize) -> f64 {
    4.95 * index as f64 / (WARM_POINTS - 1) as f64
}

/// Perturbs `l` by up to a quarter of a quantization bucket — the
/// "measurement noise" a noisy neighbour carries. Round-to-nearest
/// keying collapses it onto the hot key's bucket (up to the rare
/// boundary straddle, which just becomes one extra cold solve).
fn noisy(l: f64, rng: &mut Rng) -> f64 {
    if l == 0.0 {
        return 0.0;
    }
    let quarter_bucket = 1u64 << (QUANT_BITS - 2);
    let offset = rng.next_u64() % quarter_bucket;
    f64::from_bits(l.to_bits() + offset)
}

fn query_line(id: usize, op: &str, node: &str, l_nh_mm: f64) -> String {
    let length = if op == "route_delay" {
        ",\"length_mm\":20"
    } else {
        ""
    };
    format!("{{\"id\":{id},\"op\":\"{op}\",\"node\":\"{node}\",\"l_nh_mm\":{l_nh_mm}{length}}}")
}

/// The seeded mix: ~64 % hot repeats, ~30 % noisy neighbours, ~6 % cold
/// misses, ops rotating through `optimum` / `route_delay` / `lcrit`.
/// With `hot_only`, every draw is an exact on-grid hot repeat.
fn build_mix(seed: u64, requests: usize, hot_only: bool) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let ops = ["optimum", "route_delay", "lcrit"];
    let mut out = Vec::with_capacity(requests);
    for id in 1..=requests {
        let op = ops[id % ops.len()];
        let node = NODES[rng.index(NODES.len())];
        let draw = rng.next_f64();
        let l = if hot_only || draw < 0.64 {
            grid_l(rng.index(WARM_POINTS))
        } else if draw < 0.94 {
            noisy(grid_l(rng.index(WARM_POINTS)), &mut rng)
        } else {
            rng.uniform(0.01, 4.9)
        };
        out.push(query_line(id, op, node, l));
    }
    out
}

/// Emit-shaped payload: the mix plus the trailing `stats` barrier the
/// daemon answers only after every mix response is on the wire.
fn payload(seed: u64, requests: usize, hot_only: bool) -> String {
    let mut text = build_mix(seed, requests, hot_only).join("\n");
    text.push('\n');
    text.push_str(&format!("{{\"id\":{},\"op\":\"stats\"}}\n", requests + 1));
    text
}

/// Plays `text` against a live daemon at `addr` as one TCP session:
/// write everything, shut the write half down, stream the response
/// bytes to stdout.
fn connect_and_replay(addr: &str, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(text.as_bytes())?;
    stream.flush()?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut stdout = std::io::stdout().lock();
    std::io::copy(&mut stream, &mut stdout)?;
    Ok(())
}

const USAGE: &str = "usage: loadgen (--emit=N | --connect=ADDR) [--seed=S] [--hot-only]";

fn main() {
    let mut emit: Option<usize> = None;
    let mut seed = 0x4c4f_4144_4745_4e21; // "LOADGEN!"
    let mut hot_only = false;
    let mut connect: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if let Some(n) = arg.strip_prefix("--emit=") {
            emit = Some(n.parse().expect("--emit=N needs an integer"));
        } else if let Some(s) = arg.strip_prefix("--seed=") {
            seed = s.parse().expect("--seed=S needs an integer");
        } else if arg == "--hot-only" {
            hot_only = true;
        } else if let Some(addr) = arg.strip_prefix("--connect=") {
            connect = Some(addr.to_string());
        } else {
            eprintln!("loadgen: unknown argument {arg}\n{USAGE}");
            std::process::exit(2);
        }
    }

    if let Some(addr) = connect {
        let requests = emit.unwrap_or(60);
        if let Err(e) = connect_and_replay(&addr, &payload(seed, requests, hot_only)) {
            eprintln!("loadgen: client session against {addr} failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    let Some(requests) = emit else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    print!("{}", payload(seed, requests, hot_only));
}
