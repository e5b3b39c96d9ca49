//! The traced run: per-layer metrics, each timed from outside around
//! calls into the layer's public functions, with counts read as
//! `rlckit_trace::snapshot()` deltas. The solver and campaign layers run
//! on the workload's own keys and campaign; the serving layers run on
//! the seeded churn mix of `serve::churn_mix`.
//!
//! Every layer is measured on every workload, so a later change can show
//! both where it moved a layer and where it left one flat. The self time
//! and share of the two layers on every workload's path, `tline` and
//! `optimizer`, are *computed*: per-call cost times calls per point, over
//! the end-to-end time of a point. See the README for the metric → layer
//! → end-to-end map.

use std::collections::BTreeSet;
use std::io::{BufReader, Read, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Instant;

use rlckit::batch::{optimize_batch, RlcPoint};
use rlckit::memo::{key_for, Eviction, OptimumMemo, Served};
use rlckit::optimizer::{optimize_rlc, segment_structure, OptimizerOptions, RetryPolicy};
use rlckit_campaign::grid::CampaignSpec;
use rlckit_campaign::merge::{merge_shards, render_csv};
use rlckit_campaign::shard::run_shard;
use rlckit_campaign::supervisor::{supervise, SupervisorConfig};
use rlckit_par::Parallelism;
use rlckit_serve::protocol::parse_request;
use rlckit_serve::{ServeConfig, Server};
use rlckit_tline::TwoPole;
use rlckit_trace::Snapshot;

use crate::serve::{self, Daemon, Key, Load, Request, WARM_GRID};
use crate::sweep::{self, NodeGrid};
use crate::util::{median, ns_per_call, quantile, secs, Report};
use crate::{campaign, Ctx};

/// Keys sampled from a workload's grid for the per-call timings.
const SAMPLED_KEYS: usize = 48;
/// Requests of one in-process engine session.
const ENGINE_REQUESTS: usize = 20_000;
const TINY_ENGINE_REQUESTS: usize = 300;
/// Lockstep column width of the batch timing (the sweep's own width).
const BATCH_COLUMN: usize = 8;

/// What a workload looks like to the layers.
struct Workload {
    name: &'static str,
    /// A sample of the questions the workload asks: its grid points.
    keys: Vec<Key>,
    /// The campaign the `campaign` layer runs.
    campaign: CampaignSpec,
}

fn sample(keys: Vec<Key>, n: usize) -> Vec<Key> {
    let stride = (keys.len() / n).max(1);
    keys.into_iter().step_by(stride).take(n).collect()
}

fn grid_keys(grids: &[NodeGrid]) -> Vec<Key> {
    grids
        .iter()
        .enumerate()
        .flat_map(|(node, g)| {
            g.inductances.iter().map(move |l| Key {
                node,
                l_h_per_m: l.get(),
                warm: false,
            })
        })
        .collect()
}

fn workload(ctx: &Ctx, name: &str) -> Workload {
    let spec = campaign::spec(ctx);
    let mut small = spec;
    small.points = small.points.min(if ctx.tiny { 40 } else { 3000 });
    match name {
        "paper_sweep" => Workload {
            name: "paper_sweep",
            keys: sample(
                grid_keys(&sweep::inputs(ctx.seed, sweep::points_per_node(ctx))),
                SAMPLED_KEYS,
            ),
            campaign: small,
        },
        _ => Workload {
            name: "sharded_campaign",
            keys: sample(
                spec.grid()
                    .into_iter()
                    .map(|l| Key {
                        node: 1,
                        l_h_per_m: l.get(),
                        warm: false,
                    })
                    .collect(),
                SAMPLED_KEYS,
            ),
            campaign: spec,
        },
    }
}

/// An in-process server configured like the daemon the traced run spawns.
fn server(ctx: &Ctx) -> Server {
    let server = Server::new(ServeConfig {
        workers: ctx.nproc,
        shard_capacity: serve::SHARD_CAPACITY,
        eviction: Eviction::Lru,
        ..ServeConfig::default()
    });
    server.warm_grid(WARM_GRID);
    server
}

/// Counter and histogram deltas of `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let before = rlckit_trace::snapshot();
    let out = f();
    (out, rlckit_trace::snapshot().since(&before))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A reader fed line by line from a channel, so one in-process
/// session can be driven one request at a time.
struct ChannelReader {
    rx: mpsc::Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A writer that reports the moment each response line is complete.
struct SignalWriter(mpsc::Sender<Instant>);

impl Write for SignalWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.contains(&b'\n') {
            let _ = self.0.send(Instant::now());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Median in-process latency (µs) of one request at a time through
/// `Server::serve`: parse, route, pool handoff, probe, render, write,
/// with no socket and no process boundary.
fn in_process_latency_us(server: &Server, lines: &[String]) -> f64 {
    let (line_tx, line_rx) = mpsc::channel::<String>();
    let (done_tx, done_rx) = mpsc::channel::<Instant>();
    std::thread::scope(|scope| {
        let session = scope.spawn(|| {
            let reader = BufReader::new(ChannelReader {
                rx: line_rx,
                buf: Vec::new(),
                pos: 0,
            });
            server
                .serve(reader, SignalWriter(done_tx))
                .expect("in-memory session")
        });
        let latencies: Vec<f64> = lines
            .iter()
            .map(|line| {
                let t = Instant::now();
                line_tx.send(format!("{line}\n")).expect("session alive");
                let done = done_rx.recv().expect("response");
                done.saturating_duration_since(t).as_secs_f64() * 1e6
            })
            .collect();
        drop(line_tx);
        session.join().expect("session thread");
        median(&latencies)
    })
}

/// Per-call costs of the solver layers on the workload's keys.
struct Solver {
    moments_ns: f64,
    delay_ns: f64,
    delay_iterations: f64,
    solve_ns: f64,
    delay_solves_per_optimum: f64,
    newton_iterations: f64,
    retries: u64,
    degraded: u64,
    batch_ns: f64,
}

fn solver(ctx: &Ctx, keys: &[Key]) -> Solver {
    let options = OptimizerOptions::default();
    let rounds = if ctx.tiny { 1 } else { 5 };
    let drivers: Vec<_> = keys.iter().map(|k| (k.line(), k.tech_driver())).collect();
    let (optima, counts) = counted(|| {
        drivers
            .iter()
            .map(|(line, driver)| optimize_rlc(line, driver, options).expect("keys solve"))
            .collect::<Vec<_>>()
    });
    let solves = counts.counter("optimizer.solves") as f64;
    let newton = counts
        .histograms
        .get("optimizer.newton.iterations")
        .map_or(0.0, |h| h.mean());

    // The moment pairs the workload visits: each key's optimum segment.
    let structures: Vec<_> = drivers
        .iter()
        .zip(&optima)
        .map(|((line, driver), opt)| {
            segment_structure(line, driver, opt.segment_length, opt.repeater_size)
        })
        .collect();
    let moments_ns = ns_per_call(&structures, rounds * 20, |s| {
        std::hint::black_box(s.try_two_pole().expect("moments"));
    });
    let poles: Vec<TwoPole> = structures
        .iter()
        .map(|s| s.try_two_pole().expect("moments"))
        .collect();
    let delay_iterations = poles
        .iter()
        .map(|p| p.delay_with_iterations(options.threshold).expect("delay").1 as f64)
        .sum::<f64>()
        / poles.len() as f64;
    let delay_ns = ns_per_call(&poles, rounds * 20, |p| {
        std::hint::black_box(p.delay_with_iterations(options.threshold).expect("delay"));
    });

    let solve_ns = ns_per_call(&drivers, rounds, |(line, driver)| {
        std::hint::black_box(optimize_rlc(line, driver, options).expect("keys solve"));
    });

    // The batch tier over the same keys, per node, in sweep-width columns.
    let policy = RetryPolicy::default();
    let columns: Vec<(Vec<RlcPoint>, _)> = (0..3)
        .flat_map(|node| {
            let points: Vec<RlcPoint> = keys
                .iter()
                .enumerate()
                .filter(|(_, k)| k.node == node)
                .map(|(i, k)| RlcPoint {
                    line: k.line(),
                    scope: i as u64,
                })
                .collect();
            let driver = keys.iter().find(|k| k.node == node).map(Key::tech_driver);
            points
                .chunks(BATCH_COLUMN)
                .map(|c| (c.to_vec(), driver.expect("column has a key")))
                .collect::<Vec<_>>()
        })
        .collect();
    let batch_total_ns = ns_per_call(&[()], rounds, |()| {
        for (points, driver) in &columns {
            std::hint::black_box(optimize_batch(points, driver, options, &policy));
        }
    });

    Solver {
        moments_ns,
        delay_ns,
        delay_iterations,
        solve_ns,
        delay_solves_per_optimum: ratio(counts.counter("twopole.delay.solves") as f64, solves),
        newton_iterations: newton,
        retries: counts.counter("optimizer.retries"),
        degraded: counts.counter("optimizer.degraded"),
        batch_ns: batch_total_ns / keys.len() as f64,
    }
}

impl Key {
    fn tech_driver(&self) -> rlckit_tech::DriverParams {
        sweep::nodes()
            .into_iter()
            .nth(self.node)
            .expect("a Table 1 node")
            .1
            .driver()
    }
}

/// Per-call costs of the serving layers on the churn mix's request lines.
struct Serving {
    parse_ns: f64,
    render_ns: f64,
    probe_ns: f64,
    engine_ns: f64,
    queue_depth_p50: f64,
    in_process_us: f64,
}

fn serving(ctx: &Ctx) -> Serving {
    let rounds = if ctx.tiny { 1 } else { 5 };
    let n = if ctx.tiny {
        TINY_ENGINE_REQUESTS
    } else {
        ENGINE_REQUESTS
    };
    let requests: Vec<Request> = serve::churn_mix(ctx.seed).take(n);
    let lines: Vec<String> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| r.line(i as u64))
        .collect();
    let sample: Vec<usize> = (0..lines.len())
        .step_by(lines.len().div_ceil(1000))
        .collect();

    let parse_ns = ns_per_call(&sample, rounds, |&i| {
        std::hint::black_box(parse_request(&lines[i]).expect("valid request"));
    });
    let mut optima = std::collections::HashMap::new();
    for &i in &sample {
        let k = requests[i].key;
        optima
            .entry((k.node, k.l_h_per_m.to_bits()))
            .or_insert_with(|| k.cold_optimum());
    }
    let render_ns = ns_per_call(&sample, rounds, |&i| {
        let k = requests[i].key;
        let opt = &optima[&(k.node, k.l_h_per_m.to_bits())];
        std::hint::black_box(requests[i].expected(i as u64, opt, Served::Hit));
    });

    // Probe: a memo sharded like the daemon's and large enough to hold
    // every sampled key, so every probe is a hit.
    let memo = OptimumMemo::sharded_with_eviction(ctx.nproc, 1 << 12, Eviction::Lru);
    let probe_keys: Vec<_> = sample
        .iter()
        .map(|&i| {
            let k = requests[i].key;
            let key = key_for(&k.line(), &k.tech_driver(), OptimizerOptions::default());
            memo.preload(key, optima[&(k.node, k.l_h_per_m.to_bits())]);
            key
        })
        .collect();
    let probe_ns = ns_per_call(&probe_keys, rounds, |key| {
        std::hint::black_box(memo.probe(key));
    });

    // Server::serve over an in-memory reader with the same mix.
    let mut engine = Vec::new();
    let mut depth = Vec::new();
    let input = lines.join("\n");
    for _ in 0..rounds.min(3) {
        let server = server(ctx);
        let (seconds, counts) = counted(|| {
            let t = Instant::now();
            server
                .serve(input.as_bytes(), std::io::sink())
                .expect("in-memory session");
            secs(t.elapsed())
        });
        engine.push(seconds * 1e9 / n as f64);
        depth.push(
            counts
                .histograms
                .get("par.pool.queue_depth")
                .and_then(|h| h.percentile(0.5))
                .unwrap_or(0.0),
        );
    }
    let single: Vec<String> = lines
        .iter()
        .take(if ctx.tiny { 50 } else { 1000 })
        .cloned()
        .collect();
    let in_process_us = in_process_latency_us(&server(ctx), &single);
    Serving {
        parse_ns,
        render_ns,
        probe_ns,
        engine_ns: median(&engine),
        queue_depth_p50: median(&depth),
        in_process_us,
    }
}

/// The daemon seen through the load generator: a light and a heavy step
/// of the churn mix, then the ladder search.
struct DaemonView {
    sustained_qps: f64,
    p50_light_us: f64,
    p99_heavy_us: f64,
    lateness_p50_us: f64,
    lateness_p99_us: f64,
    flagged: u32,
    hit_rate: f64,
    warm_hit_rate: f64,
    evictions_per_request: f64,
}

fn daemon(ctx: &Ctx, report: &mut Report) -> DaemonView {
    let daemon = Daemon::boot(ctx);
    let mut load = Load {
        daemon: &daemon,
        mix: serve::churn_mix(ctx.seed),
        flagged: 0,
    };
    let seconds = if ctx.tiny { 0.05 } else { 1.0 };
    let light = load.fixed_rate(serve::LIGHT_RATE, seconds, "light", report);
    let heavy = load.fixed_rate(serve::HEAVY_RATE, seconds, "heavy", report);
    let ladder_step = if ctx.tiny { 0.02 } else { 0.5 };
    let sustained = load.sustained_rate(ladder_step, report);
    let steps = [&light, &heavy];
    let sum = |f: &dyn Fn(&serve::Step) -> f64| steps.iter().map(|s| f(s)).sum::<f64>();
    let lateness: Vec<f64> = steps
        .iter()
        .flat_map(|s| s.lateness_us.iter().copied())
        .collect();
    DaemonView {
        sustained_qps: sustained,
        p50_light_us: light.p(0.5),
        p99_heavy_us: heavy.p(0.99),
        lateness_p50_us: quantile(&lateness, 0.5),
        lateness_p99_us: quantile(&lateness, 0.99),
        flagged: load.flagged,
        hit_rate: sum(&|s| s.hits as f64) / sum(&|s| s.sent as f64),
        warm_hit_rate: ratio(sum(&|s| s.warm_hits as f64), sum(&|s| s.warm_asks as f64)),
        evictions_per_request: sum(&|s| s.stat("evictions")) / sum(&|s| s.sent as f64),
    }
}

/// The campaign layers: shard, merge and supervisor, on `spec`.
struct CampaignView {
    shard_ns: f64,
    bytes: f64,
    merge_ns: f64,
    /// `supervise` wall time over the slowest shard process plus merge.
    supervisor_ratio: f64,
    supervise_s: f64,
}

fn campaign_layers(ctx: &Ctx, spec: &CampaignSpec, report: &mut Report) -> CampaignView {
    let dir = ctx.work.join("layers-campaign");
    let _ = std::fs::remove_dir_all(&dir);
    let points = spec.points as f64;

    let t = Instant::now();
    let summary = run_shard(spec, 0, 1, &dir, 0).expect("shard runs");
    let shard_s = secs(t.elapsed());
    report.gate(summary.failed == 0, || {
        format!("{} campaign points failed", summary.failed)
    });
    let bytes = std::fs::read_dir(&dir)
        .expect("campaign dir")
        .flatten()
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum::<u64>() as f64;

    let merge: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let merged = merge_shards(spec, &dir, 1, &BTreeSet::new()).expect("merge");
            std::hint::black_box(render_csv(spec, &merged));
            secs(t.elapsed())
        })
        .collect();
    let merge_s = median(&merge);

    // The slowest of nproc shard processes launched together, as the
    // supervisor launches them, against the supervised run itself;
    // medians of alternating rounds.
    let solo = render_csv(
        spec,
        &merge_shards(spec, &dir, 1, &BTreeSet::new()).expect("merge"),
    );
    let rounds = if ctx.tiny { 1 } else { 3 };
    let mut slowest = Vec::new();
    let mut supervised = Vec::new();
    for _ in 0..rounds {
        let shards_dir = ctx.work.join("layers-shards");
        let _ = std::fs::remove_dir_all(&shards_dir);
        let t = Instant::now();
        let mut children: Vec<_> = (0..ctx.nproc)
            .map(|i| {
                Command::new(&ctx.bins.campaign)
                    .arg("shard")
                    .args(["--node", spec.node.name()])
                    .args(["--points", &spec.points.to_string()])
                    .args(["--index", &i.to_string(), "--of", &ctx.nproc.to_string()])
                    .arg("--dir")
                    .arg(&shards_dir)
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .expect("shard process starts")
            })
            .collect();
        let mut last = 0.0f64;
        for child in &mut children {
            let status = child.wait().expect("shard process");
            report.gate(status.success(), || "a shard process failed".into());
            last = last.max(secs(t.elapsed()));
        }
        slowest.push(last);
        let _ = std::fs::remove_dir_all(&shards_dir);

        let run_dir = ctx.work.join("layers-run");
        let _ = std::fs::remove_dir_all(&run_dir);
        let config = SupervisorConfig::new(ctx.nproc);
        let t = Instant::now();
        let run = supervise(&ctx.bins.campaign, spec, &run_dir, &config).expect("supervised run");
        supervised.push(secs(t.elapsed()));
        report.gate(run.csv == solo, || {
            "supervised CSV differs from the in-process shard".into()
        });
        let relaunches = run.shards.iter().map(|s| s.relaunches).sum::<u32>();
        report.gate(relaunches == 0, || {
            format!("the supervised run relaunched {relaunches} shards")
        });
        let _ = std::fs::remove_dir_all(&run_dir);
    }
    let supervise_s = median(&supervised);
    let _ = std::fs::remove_dir_all(&dir);
    report.attempted += (1 + 2 * rounds as u64) * spec.points as u64;

    CampaignView {
        shard_ns: shard_s * 1e9 / points,
        bytes: bytes / points,
        merge_ns: merge_s * 1e9 / points,
        supervisor_ratio: supervise_s / (median(&slowest) + merge_s),
        supervise_s,
    }
}

/// The workload's in-process core path, for the tracing overhead.
fn core_seconds(ctx: &Ctx, w: &Workload) -> f64 {
    let t = Instant::now();
    if w.name == "paper_sweep" {
        let n = if ctx.tiny { 8 } else { 2000 };
        sweep::sweep_all(&sweep::inputs(ctx.seed, n), Parallelism::Threads(ctx.nproc));
    } else {
        let dir = ctx.work.join("layers-core");
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = w.campaign;
        spec.points = spec.points.min(3000);
        run_shard(&spec, 0, 1, &dir, 0).expect("shard runs");
        let _ = std::fs::remove_dir_all(&dir);
    }
    secs(t.elapsed())
}

/// The core's time with tracing on over its time with tracing off.
fn trace_overhead(ctx: &Ctx, w: &Workload) -> f64 {
    let mut on = Vec::new();
    let mut off = Vec::new();
    for _ in 0..if ctx.tiny { 1 } else { 5 } {
        rlckit_trace::set_enabled(false);
        off.push(core_seconds(ctx, w));
        rlckit_trace::set_enabled(true);
        on.push(core_seconds(ctx, w));
    }
    rlckit_trace::set_enabled(false);
    median(&on) / median(&off)
}

/// The sweep stack (`rlckit-par` over the batch tier) on the workload's
/// grid: CPU time per point at `nproc` threads, the speedup over serial,
/// and the solver work per point counted over one pass.
struct SweepView {
    solves: f64,
    delay_solves: f64,
    /// Wall time per point at `nproc` threads times `nproc`: CPU-µs.
    parallel_cpu_us: f64,
    speedup: f64,
}

fn sweep_layer(ctx: &Ctx, w: &Workload) -> SweepView {
    let n = if ctx.tiny { 8 } else { 500 };
    let grids = if w.name == "sharded_campaign" {
        let grid = w.campaign.grid();
        let stride = (grid.len() / (3 * n)).max(1);
        vec![NodeGrid {
            name: "100nm",
            node: w.campaign.node.tech(),
            inductances: grid.into_iter().step_by(stride).collect(),
        }]
    } else {
        sweep::inputs(ctx.seed, n)
    };
    let p = grids.iter().map(|g| g.inductances.len()).sum::<usize>() as f64;
    let threads = Parallelism::Threads(ctx.nproc);
    let (_, counts) = counted(|| sweep::sweep_all(&grids, threads));
    let rounds = if ctx.tiny { 1 } else { 3 };
    let time = |parallelism| {
        let walls: Vec<f64> = (0..rounds)
            .map(|_| secs(sweep::sweep_all(&grids, parallelism).1))
            .collect();
        median(&walls)
    };
    let serial = time(Parallelism::Serial);
    let parallel = time(threads);
    SweepView {
        solves: counts.counter("optimizer.solves") as f64 / p,
        delay_solves: counts.counter("twopole.delay.solves") as f64 / p,
        parallel_cpu_us: parallel * ctx.nproc as f64 * 1e6 / p,
        speedup: serial / parallel,
    }
}

pub fn run(ctx: &Ctx, name: &str, report: &mut Report) {
    let w = workload(ctx, name);
    let sv = solver(ctx, &w.keys);
    report.attempted += w.keys.len() as u64;
    report.failed += sv.degraded;
    let sg = serving(ctx);
    let dv = daemon(ctx, report);
    let cv = campaign_layers(ctx, &w.campaign, report);
    let sw = sweep_layer(ctx, &w);
    let overhead = trace_overhead(ctx, &w);

    // The median one-at-a-time in-process latency (a memo hit: the mix is
    // mostly hits) less the work a hit contains: what is left is the
    // router → pool → writer handoffs and their thread wake-ups. (The
    // pipelined `engine.ns_per_request` overlaps requests on the workers,
    // so it cannot be split this way.)
    let handoff_ns = sg.in_process_us * 1e3 - sg.parse_ns - sg.probe_ns - sg.render_ns;

    // Computed attribution per point of the two layers on both workloads'
    // paths; the end-to-end unit is one point in CPU-µs at nproc workers.
    let tline_us = sw.delay_solves * (sv.moments_ns + sv.delay_ns) / 1e3;
    let optimizer_us = sw.solves * sv.solve_ns / 1e3 - tline_us;
    let unit_us = if w.name == "paper_sweep" {
        sw.parallel_cpu_us
    } else {
        cv.supervise_s * ctx.nproc as f64 * 1e6 / w.campaign.points as f64
    };

    // Counts that read 0 on a healthy tree are not metrics; they go on a
    // line of their own before the record.
    println!(
        r#"{{"workload":"{}","counts":{{"optimizer.retries":{},"optimizer.degraded":{},"daemon.flagged_steps":{}}}}}"#,
        w.name, sv.retries, sv.degraded, dv.flagged
    );

    let metrics = [
        ("tline.delay_solve_ns", sv.delay_ns, "ns"),
        (
            "tline.delay_iterations_per_solve",
            sv.delay_iterations,
            "count",
        ),
        ("tline.moments_ns", sv.moments_ns, "ns"),
        ("optimizer.solve_ns", sv.solve_ns, "ns"),
        (
            "optimizer.delay_solves_per_optimum",
            sv.delay_solves_per_optimum,
            "count",
        ),
        (
            "optimizer.newton_iterations_per_solve",
            sv.newton_iterations,
            "count",
        ),
        ("batch.ns_per_point", sv.batch_ns, "ns"),
        (
            "batch.speedup_vs_scalar",
            sv.solve_ns / sv.batch_ns,
            "ratio",
        ),
        ("par.speedup", sw.speedup, "ratio"),
        ("par.efficiency", sw.speedup / ctx.nproc as f64, "share"),
        ("memo.probe_ns", sg.probe_ns, "ns"),
        ("memo.hit_rate", dv.hit_rate, "share"),
        ("memo.warm_hit_rate", dv.warm_hit_rate, "share"),
        (
            "memo.evictions_per_request",
            dv.evictions_per_request,
            "count",
        ),
        ("protocol.parse_ns", sg.parse_ns, "ns"),
        ("protocol.render_ns", sg.render_ns, "ns"),
        ("engine.ns_per_request", sg.engine_ns, "ns"),
        ("engine.handoff_ns", handoff_ns, "ns"),
        ("engine.queue_depth_p50", sg.queue_depth_p50, "count"),
        ("engine.in_process_us", sg.in_process_us, "us"),
        (
            "daemon.overhead_us",
            dv.p50_light_us - sg.in_process_us,
            "us",
        ),
        ("daemon.sustained_qps", dv.sustained_qps, "1/s"),
        ("daemon.p99_us_heavy", dv.p99_heavy_us, "us"),
        ("daemon.lateness_us_p50", dv.lateness_p50_us, "us"),
        ("daemon.lateness_us_p99", dv.lateness_p99_us, "us"),
        ("campaign.shard_ns_per_point", cv.shard_ns, "ns"),
        ("campaign.checkpoint_bytes_per_point", cv.bytes, "B"),
        ("campaign.merge_ns_per_point", cv.merge_ns, "ns"),
        (
            "campaign.supervisor_overhead_ratio",
            cv.supervisor_ratio,
            "ratio",
        ),
        ("trace.overhead_ratio", overhead, "ratio"),
        ("e2e.unit_us", unit_us, "us"),
        ("tline.self_us", tline_us, "us"),
        ("tline.share", tline_us / unit_us, "share"),
        ("optimizer.self_us", optimizer_us, "us"),
        ("optimizer.share", optimizer_us / unit_us, "share"),
    ];
    for (name, value, unit) in metrics {
        report.metric(name, value, unit);
    }
}
