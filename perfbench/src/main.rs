//! The rlckit benchmark: one seeded command per workload that measures
//! the cold solve, the sharded campaign driver and the serving daemon
//! end to end (`--trace 0`) or layer by layer (`--trace 1`), checks the
//! outputs, and prints one JSON result record as its last line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_sweep|sharded_campaign|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! See `perfbench/README.md` for why each workload exists and which
//! layer metric should move which end-to-end metric.

mod campaign;
mod layers;
mod serve;
mod sweep;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use util::Report;

pub const WORKLOADS: [&str; 2] = ["paper_sweep", "sharded_campaign"];

/// Paths of the two binaries the benchmark drives.
pub struct Bins {
    pub serve: PathBuf,
    pub campaign: PathBuf,
}

/// Everything a workload run needs.
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    /// Tiny inputs for the self-test smoke run.
    pub tiny: bool,
    pub nproc: usize,
    /// How many times set-up is repeated; its median is reported.
    pub setup_reps: usize,
    pub bins: Bins,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is not 0 or 1")),
                }
            }
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

/// The repository root: this package lives in `<root>/perfbench`.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// Builds the daemon and campaign binaries from the checkout's sources
/// into the same target directory as this benchmark.
fn build_bins(root: &Path) -> Result<Bins, String> {
    // Cargo resolves a relative CARGO_TARGET_DIR against the directory it
    // was started in, which this process inherited.
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| format!("no current directory: {e}"))?
            .join(dir),
        None => root.join("perfbench").join("target"),
    };
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .current_dir(root)
        .args(["build", "--release", "--offline", "-q"])
        .args([
            "-p",
            "rlckit-serve",
            "-p",
            "rlckit-campaign",
            "--target-dir",
        ])
        .arg(&target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building rlckit-serve and rlckit-campaign failed".into());
    }
    let bin = |name: &str| target.join("release").join(name);
    Ok(Bins {
        serve: bin("rlckit-serve"),
        campaign: bin("rlckit-campaign"),
    })
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the workspace sources, for checkouts that are not git
/// repositories.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        for byte in std::fs::read(&file).unwrap_or_default() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// `nproc`, CPU model, rustc version and source revision of this run.
fn host_fingerprint(root: &Path, nproc: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"], root)
        .unwrap_or_else(|| format!("source-fnv64:{:016x}", source_hash(root)));
    let clean = |s: &str| s.replace(['"', '\\'], "");
    format!(
        r#"{{"host":{{"nproc":{nproc},"cpu":"{}","rustc":"{}","commit":"{}"}}}}"#,
        clean(&cpu),
        clean(&rustc),
        clean(&commit)
    )
}

fn run_workload(ctx: &Ctx, workload: &str, trace: bool) -> Report {
    let mut report = Report::default();
    if trace {
        layers::run(ctx, workload, &mut report);
        return report;
    }
    match workload {
        "paper_sweep" => sweep::run(ctx, &mut report),
        "sharded_campaign" => campaign::run(ctx, &mut report),
        other => unreachable!("workload {other} was validated"),
    }
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    let bins = match build_bins(&root) {
        Ok(bins) => bins,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        tiny: args.tiny,
        nproc,
        setup_reps: if args.tiny { 3 } else { 61 },
        bins,
        work: root
            .join("perfbench")
            .join("work")
            .join(std::process::id().to_string()),
    };
    println!("{}", host_fingerprint(&root, nproc));

    let report = if args.workload == "all" {
        // One line per workload, then the combined record.
        let mut all = Report::default();
        for workload in WORKLOADS {
            let r = run_workload(&ctx, workload, args.trace);
            println!(r#"{{"workload":"{workload}","result":{}}}"#, r.to_json());
            all.errors.extend(r.errors);
            all.attempted += r.attempted;
            all.failed += r.failed;
            for m in r.metrics {
                all.metric(&format!("{workload}.{}", m.name), m.value, m.unit);
            }
        }
        all
    } else {
        run_workload(&ctx, &args.workload, args.trace)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Some(parent) = ctx.work.parent() {
        // Removed only when no concurrent run still uses it.
        let _ = std::fs::remove_dir(parent);
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
