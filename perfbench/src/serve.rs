//! The serving layers' load: a seeded request mix and an open-loop load
//! generator against a spawned `rlckit-serve` daemon over one TCP
//! connection. The traced run drives the daemon with it on every
//! workload.
//!
//! The generator is one process with two threads: a writer that sends
//! every request whose due time has passed and then sleeps until the
//! next one is due (it never spins), and a reader that times each
//! response from its request's due time. Lateness — how long after its
//! due time the writer got a request out — is recorded per request, and
//! a step whose lateness or backlog breaks the bound is flagged, never
//! counted silently.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rlckit::memo::Served;
use rlckit::optimizer::{optimize_rlc, OptimizerOptions, RlcOptimum};
use rlckit_serve::engine::standard_grid;
use rlckit_serve::protocol::{response_lcrit, response_optimum, response_route_delay};
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_units::{HenriesPerMeter, Meters};

use crate::sweep::nodes;
use crate::util::{json_field, median, quantile, Report, Rng};
use crate::Ctx;

/// Warm-grid points per node the daemon pre-solves (`--warm-grid`).
pub const WARM_GRID: usize = 5;
/// Every `SAMPLE`-th response is checked byte for byte against a cold
/// `optimize_rlc` of the same key.
const SAMPLE: u64 = 37;
/// The generator holds its schedule when its median lateness stays
/// below this (µs)…
pub const LATENESS_P50_BOUND_US: f64 = 1000.0;
/// …and its p99 lateness below this (µs). Sleeping threads on small
/// virtual machines overshoot by a few milliseconds at p99, so the
/// bound catches a generator that fell behind, not a slow wake-up.
pub const LATENESS_P99_BOUND_US: f64 = 20_000.0;
/// Backlog grows when the median latency of a step's last quarter
/// exceeds that of its first quarter by more than this (µs).
pub const BACKLOG_GROWTH_US: f64 = 5000.0;
/// How long the reader waits for one response before declaring the rest
/// of the step missing.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// The ladder of offered rates: 16 rungs per doubling from 1000/s.
pub fn rung_rate(rung: u32) -> f64 {
    1000.0 * 2f64.powf(f64::from(rung) / 16.0)
}

/// The light fixed rate (requests/s).
pub const LIGHT_RATE: f64 = 2000.0;
/// The heavy fixed rate (requests/s), where the ladder search starts.
pub const HEAVY_RATE: f64 = 10_000.0;
/// Share of requests that are one-shot cold keys.
pub const COLD_SHARE: f64 = 0.4;
/// The daemon's `--shard-capacity`: small enough that one-shot cold keys
/// evict, large enough that LRU keeps the 15 hot keys.
pub const SHARD_CAPACITY: usize = 24;
/// The latency limit (p99, µs) a ladder rung must meet. It sits above
/// the multi-millisecond scheduling stalls of small virtual machines, so
/// saturation (a backlog) is what fails a rung.
pub const P99_LIMIT_US: f64 = 50_000.0;

/// One question: a node and an inductance.
#[derive(Clone, Copy, Debug)]
pub struct Key {
    pub node: usize,
    pub l_h_per_m: f64,
    /// Whether the daemon's warm grid holds this key.
    pub warm: bool,
}

impl Key {
    fn tech(&self) -> TechNode {
        nodes()
            .into_iter()
            .nth(self.node)
            .expect("a Table 1 node")
            .1
    }

    pub fn line(&self) -> LineRlc {
        let tech = self.tech();
        LineRlc::new(
            tech.line().resistance,
            HenriesPerMeter::new(self.l_h_per_m),
            tech.line().capacitance,
        )
    }

    /// The cold solve the daemon's answer must equal bit for bit.
    pub fn cold_optimum(&self) -> RlcOptimum {
        optimize_rlc(
            &self.line(),
            &self.tech().driver(),
            OptimizerOptions::default(),
        )
        .expect("benchmark keys solve")
    }
}

/// The warm-grid keys, built exactly as the daemon's `--warm-grid` does.
pub fn warm_keys() -> Vec<Key> {
    (0..3)
        .flat_map(|node| {
            standard_grid(WARM_GRID).into_iter().map(move |nh_mm| Key {
                node,
                l_h_per_m: HenriesPerMeter::from_nano_per_milli(nh_mm).get(),
                warm: true,
            })
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Optimum,
    RouteDelay,
    Lcrit,
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Request {
    pub key: Key,
    pub op: Op,
    pub length_mm: f64,
}

impl Request {
    pub fn line(&self, id: u64) -> String {
        let node = nodes()[self.key.node].0;
        let l = self.key.l_h_per_m;
        match self.op {
            Op::Optimum => {
                format!(r#"{{"id":{id},"op":"optimum","node":"{node}","l_h_per_m":{l:?}}}"#)
            }
            Op::Lcrit => format!(r#"{{"id":{id},"op":"lcrit","node":"{node}","l_h_per_m":{l:?}}}"#),
            Op::RouteDelay => format!(
                r#"{{"id":{id},"op":"route_delay","node":"{node}","l_h_per_m":{l:?},"length_mm":{:?}}}"#,
                self.length_mm
            ),
        }
    }

    /// The exact response line the daemon must send for this request,
    /// rendered with the protocol's own formatter from a cold solve.
    pub fn expected(&self, id: u64, opt: &RlcOptimum, served: Served) -> String {
        match self.op {
            Op::Optimum => response_optimum(id, opt, served),
            Op::Lcrit => response_lcrit(id, opt.critical_inductance, served),
            Op::RouteDelay => {
                let length = Meters::new(self.length_mm * 1e-3);
                response_route_delay(id, length, opt.total_delay(length), served)
            }
        }
    }
}

/// A seeded request stream: hot keys chosen uniformly, one-shot cold
/// keys drawn from a lattice that never repeats within a run and stays
/// clear of the warm grid, ops rotating `optimum`/`route_delay`/`lcrit`.
pub struct Mix {
    hot: Vec<Key>,
    cold_share: f64,
    rng: Rng,
    next: u64,
    cold_next: u64,
    cold_offset: u64,
}

/// Cold-key lattice size; the lattice spacing keeps distinct cold keys
/// in distinct memo quantization classes.
const COLD_LATTICE: u64 = 100_003;

impl Mix {
    pub fn new(seed: u64, hot: Vec<Key>, cold_share: f64) -> Self {
        let mut rng = Rng::new(seed, 300);
        let cold_offset = rng.next_u64() % COLD_LATTICE;
        Self {
            hot,
            cold_share,
            rng,
            next: 0,
            cold_next: 0,
            cold_offset,
        }
    }

    fn cold_key(&mut self) -> Key {
        let grid: Vec<f64> = standard_grid(WARM_GRID);
        loop {
            // A stride coprime to the lattice size visits every cell once.
            let cell = (self.cold_offset + self.cold_next * 7919) % COLD_LATTICE;
            self.cold_next += 1;
            let nh_mm = 0.5 + 4.4 * (cell as f64 + 0.5) / COLD_LATTICE as f64;
            if grid.iter().all(|g| (nh_mm - g).abs() > 1e-4 * g.max(1.0)) {
                return Key {
                    node: self.rng.below(3),
                    l_h_per_m: nh_mm * 1e-6,
                    warm: false,
                };
            }
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Request> {
        (0..n)
            .map(|_| {
                let key = if self.hot.is_empty() || self.rng.unit() < self.cold_share {
                    self.cold_key()
                } else {
                    self.hot[self.rng.below(self.hot.len())]
                };
                let op = [Op::Optimum, Op::RouteDelay, Op::Lcrit][(self.next % 3) as usize];
                self.next += 1;
                Request {
                    key,
                    op,
                    length_mm: 1.0 + (self.rng.unit() * 49_000.0).round() / 1000.0,
                }
            })
            .collect()
    }
}

/// A spawned `rlckit-serve --tcp` daemon, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon and waits until it listens.
    pub fn boot(ctx: &Ctx) -> Self {
        let mut child = Command::new(&ctx.bins.serve)
            .args(["--tcp", "127.0.0.1:0"])
            .args(["--workers", &ctx.nproc.to_string()])
            .args(["--warm-grid", &WARM_GRID.to_string()])
            .args(["--shard-capacity", &SHARD_CAPACITY.to_string()])
            .env_remove("RLCKIT_TRACE")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("rlckit-serve starts");
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        // Keep draining stderr for the daemon's lifetime so its
        // per-connection log lines can never fill the pipe.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("rlckit-serve: listening on ") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("rlckit-serve reports its listening address");
        Self {
            child,
            addr: addr.parse().expect("a socket address"),
            drain: Some(drain),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// What one paced step observed.
#[derive(Default)]
pub struct Step {
    pub rate: f64,
    pub sent: usize,
    /// Latency from due time of every answered request, µs, in id order.
    pub latency_us: Vec<f64>,
    /// Writer lateness per request, µs.
    pub lateness_us: Vec<f64>,
    pub not_ok: usize,
    pub missing: usize,
    pub out_of_order: usize,
    pub hits: usize,
    pub warm_asks: usize,
    pub warm_hits: usize,
    /// The daemon's `stats` answer for this session.
    pub stats: String,
    pub mismatches: Vec<String>,
}

impl Step {
    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_us, q)
    }

    pub fn lateness_p99(&self) -> f64 {
        quantile(&self.lateness_us, 0.99)
    }

    pub fn backlog_growing(&self) -> bool {
        let n = self.latency_us.len();
        if n < 8 {
            return false;
        }
        let first = median(&self.latency_us[..n / 4]);
        let last = median(&self.latency_us[n - n / 4..]);
        last > first + BACKLOG_GROWTH_US
    }

    /// The generator did not hold its schedule.
    pub fn late(&self) -> bool {
        quantile(&self.lateness_us, 0.5) > LATENESS_P50_BOUND_US
            || self.lateness_p99() > LATENESS_P99_BOUND_US
    }

    pub fn flagged(&self) -> bool {
        self.late() || self.backlog_growing()
    }

    pub fn failed(&self) -> usize {
        self.not_ok + self.missing
    }

    pub fn stat(&self, key: &str) -> f64 {
        json_field(&self.stats, key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    }
}

/// Offers `requests` at `rate` per second over one fresh connection,
/// then asks for the session's `stats`.
pub fn step(addr: SocketAddr, requests: &[Request], rate: f64) -> Step {
    let lines: Vec<String> = requests
        .iter()
        .enumerate()
        .map(|(id, r)| r.line(id as u64))
        .collect();
    let n = lines.len();
    let stream = TcpStream::connect(addr).expect("connect to rlckit-serve");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone socket");
    let due = |id: usize| Duration::from_secs_f64(id as f64 / rate);
    let mut out = Step {
        rate,
        sent: n,
        latency_us: Vec::with_capacity(n),
        ..Step::default()
    };
    let mut sampled: Vec<(u64, String)> = Vec::new();
    let start = Instant::now();

    out.lateness_us = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut lateness = Vec::with_capacity(n);
            let mut next = 0usize;
            let mut buf = String::new();
            while next < n {
                let elapsed = start.elapsed();
                let upto = ((elapsed.as_secs_f64() * rate) as usize)
                    .saturating_add(1)
                    .min(n);
                if upto > next {
                    buf.clear();
                    for (id, line) in lines.iter().enumerate().take(upto).skip(next) {
                        buf.push_str(line);
                        buf.push('\n');
                        lateness.push((elapsed.saturating_sub(due(id))).as_secs_f64() * 1e6);
                    }
                    if writer.write_all(buf.as_bytes()).is_err() {
                        break;
                    }
                    next = upto;
                } else {
                    std::thread::sleep(due(next).saturating_sub(elapsed));
                }
            }
            let _ = writeln!(writer, r#"{{"id":{n},"op":"stats"}}"#);
            lateness
        });

        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        for want in 0..=n as u64 {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    out.missing = n + 1 - want as usize;
                    break;
                }
                Ok(_) => {}
            }
            let now = start.elapsed();
            let id = json_field(&line, "id").and_then(|v| v.parse::<u64>().ok());
            if id != Some(want) {
                out.out_of_order += 1;
            }
            if want == n as u64 {
                out.stats = line.trim_end().to_string();
                break;
            }
            let index = want as usize;
            out.latency_us
                .push(now.saturating_sub(due(index)).as_secs_f64() * 1e6);
            if json_field(&line, "ok") != Some("true") {
                out.not_ok += 1;
            }
            let hit = json_field(&line, "source") == Some("memo");
            out.hits += usize::from(hit);
            if requests[index].key.warm {
                out.warm_asks += 1;
                out.warm_hits += usize::from(hit);
            }
            if want % SAMPLE == 0 {
                sampled.push((want, line.trim_end().to_string()));
            }
        }
        sender.join().expect("sender thread")
    });

    let mut optima = HashMap::new();
    out.mismatches = sampled
        .iter()
        .filter_map(|(id, got)| verify(&requests[*id as usize], *id, got, &mut optima))
        .collect();
    out
}

/// Compares one response line byte for byte with the protocol's own
/// rendering of a cold `optimize_rlc` of the same key (with the memo
/// label the daemon reported); `Some` describes a mismatch.
pub fn verify(
    request: &Request,
    id: u64,
    got: &str,
    optima: &mut HashMap<(usize, u64), RlcOptimum>,
) -> Option<String> {
    let key = request.key;
    let opt = *optima
        .entry((key.node, key.l_h_per_m.to_bits()))
        .or_insert_with(|| key.cold_optimum());
    let served = if json_field(got, "source") == Some("memo") {
        Served::Hit
    } else {
        Served::Solved
    };
    let want = request.expected(id, &opt, served);
    (got != want).then(|| format!("id {id}: got {got}, want {want}"))
}

/// Checks one step's answers; returns its failed count.
pub fn gate_step(report: &mut Report, what: &str, s: &Step) -> u64 {
    report.gate(s.out_of_order == 0 && s.missing == 0, || {
        format!(
            "{what}: {} out of order, {} missing of {}",
            s.out_of_order, s.missing, s.sent
        )
    });
    report.gate(s.not_ok == 0, || {
        format!("{what}: {} answers not ok", s.not_ok)
    });
    report.gate(s.mismatches.is_empty(), || {
        format!(
            "{what}: {} sampled answers differ from a cold solve: {}",
            s.mismatches.len(),
            s.mismatches[0]
        )
    });
    report.attempted += s.sent as u64;
    report.failed += s.failed() as u64;
    s.failed() as u64
}

fn log_step(what: &str, s: &Step) {
    eprintln!(
        "perfbench: {what} at {:.0}/s: {} sent, p50 {:.0} us, p99 {:.0} us, lateness p50 {:.0} us p99 {:.0} us{}{}",
        s.rate,
        s.sent,
        s.p(0.5),
        s.p(0.99),
        quantile(&s.lateness_us, 0.5),
        s.lateness_p99(),
        if s.backlog_growing() { ", FLAGGED: backlog growing" } else { "" },
        if s.late() { ", FLAGGED: generator late" } else { "" },
    );
}

/// The load generator bound to one daemon and one request stream.
pub struct Load<'a> {
    pub daemon: &'a Daemon,
    pub mix: Mix,
    /// Fixed-rate steps flagged so far.
    pub flagged: u32,
}

impl Load<'_> {
    fn offer(&mut self, n: usize, rate: f64, what: &str, report: &mut Report) -> Step {
        let requests = self.mix.take(n);
        let s = step(self.daemon.addr, &requests, rate);
        log_step(what, &s);
        gate_step(report, what, &s);
        s
    }

    /// Offers `rate` for `seconds` as one step; a flagged step is counted
    /// in `flagged` and logged.
    pub fn fixed_rate(&mut self, rate: f64, seconds: f64, what: &str, report: &mut Report) -> Step {
        let s = self.offer((rate * seconds).ceil() as usize, rate, what, report);
        self.flagged += u32::from(s.flagged());
        s
    }

    /// The highest ladder rung whose p99 meets the limit with no growing
    /// backlog and an on-time generator. A failing rung is offered twice
    /// before it counts as failed, so one stray stall cannot end the
    /// search. A flagged rung fails; it is logged, not counted in
    /// `flagged`.
    pub fn sustained_rate(&mut self, step_seconds: f64, report: &mut Report) -> f64 {
        let mut passes = |rung: u32, report: &mut Report| {
            let rate = rung_rate(rung);
            (0..2).any(|_| {
                let s = self.offer(
                    (rate * step_seconds).ceil() as usize,
                    rate,
                    "ladder",
                    report,
                );
                s.failed() == 0 && !s.flagged() && s.p(0.99) <= P99_LIMIT_US
            })
        };
        let mut lo = (16.0 * (HEAVY_RATE / 1000.0).log2()).round() as u32;
        while lo > 0 && !passes(lo, report) {
            lo = lo.saturating_sub(8);
        }
        let mut hi = lo + 8;
        while passes(hi, report) {
            lo = hi;
            hi += 8;
        }
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if passes(mid, report) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        rung_rate(lo)
    }
}

/// The seeded request mix: the 15 warm-grid keys as hot repeats beside
/// `COLD_SHARE` one-shot cold keys.
pub fn churn_mix(seed: u64) -> Mix {
    Mix::new(seed, warm_keys(), COLD_SHARE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_keys_never_repeat_and_avoid_the_grid() {
        let mut mix = Mix::new(5, warm_keys(), 1.0);
        let requests = mix.take(5000);
        let mut seen = std::collections::HashSet::new();
        for r in &requests {
            assert!(!r.key.warm);
            assert!(seen.insert((r.key.node, rlckit::memo::quantize(r.key.l_h_per_m))));
        }
    }

    #[test]
    fn same_seed_same_requests() {
        let a: Vec<String> = Mix::new(9, warm_keys(), 0.4)
            .take(50)
            .iter()
            .enumerate()
            .map(|(i, r)| r.line(i as u64))
            .collect();
        let b: Vec<String> = Mix::new(9, warm_keys(), 0.4)
            .take(50)
            .iter()
            .enumerate()
            .map(|(i, r)| r.line(i as u64))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn a_corrupted_answer_trips_the_gate() {
        let mut optima = HashMap::new();
        for (id, request) in Mix::new(1, warm_keys(), 0.0).take(3).iter().enumerate() {
            let id = id as u64;
            let good = request.expected(id, &request.key.cold_optimum(), Served::Hit);
            assert_eq!(verify(request, id, &good, &mut optima), None);
            // Flip the last digit of the first float in the answer.
            let start = good.find("\":0.").expect("a float field") + 4;
            let at = start
                + good[start..]
                    .find(|c: char| !c.is_ascii_digit())
                    .expect("field ends")
                - 1;
            let mut bad = good.clone().into_bytes();
            bad[at] = if bad[at] == b'1' { b'2' } else { b'1' };
            let bad = String::from_utf8(bad).expect("ascii");
            let mismatch = verify(request, id, &bad, &mut optima);
            assert!(mismatch.is_some(), "{bad} passed");
            let s = Step {
                sent: 1,
                hits: 1,
                latency_us: vec![1.0],
                mismatches: mismatch.into_iter().collect(),
                ..Step::default()
            };
            let mut report = Report::default();
            gate_step(&mut report, "t", &s);
            assert!(!report.correct());
        }
    }
}
