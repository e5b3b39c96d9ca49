//! `sharded_campaign`: the `rlckit-campaign` binary over one node's
//! seeded grid, `run --shards <nproc>` against `solo`. The only workload
//! that spawns processes, checkpoints every point and merges.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use rlckit_campaign::grid::{shard_points, CampaignNode, CampaignSpec};

use crate::util::{median, repeat_for, secs, Report, Rng};
use crate::Ctx;

/// Grid size: 8000 plus a seeded offset below 1000, so each seed is a
/// different grid of the same density. One sharded run takes a few
/// hundred milliseconds.
const BASE_POINTS: usize = 8_000;
const TINY_BASE_POINTS: usize = 40;

pub fn spec(ctx: &Ctx) -> CampaignSpec {
    let base = if ctx.tiny {
        TINY_BASE_POINTS
    } else {
        BASE_POINTS
    };
    CampaignSpec {
        node: CampaignNode::Nm100,
        points: base + Rng::new(ctx.seed, 200).below(1000.min(base)),
    }
}

/// Runs one `rlckit-campaign` subcommand to a CSV; returns the CSV, the
/// wall time and the child's stderr.
pub fn run_cli(ctx: &Ctx, spec: &CampaignSpec, mode: &str, dir: &Path) -> (Vec<u8>, f64, String) {
    let _ = std::fs::remove_dir_all(dir);
    let out = dir.with_extension("csv");
    let mut cmd = Command::new(&ctx.bins.campaign);
    cmd.arg(mode)
        .args([
            "--node",
            spec.node.name(),
            "--points",
            &spec.points.to_string(),
        ])
        .arg("--dir")
        .arg(dir)
        .arg("--out")
        .arg(&out);
    if mode == "run" {
        cmd.args(["--shards", &ctx.nproc.to_string()]);
    }
    let start = Instant::now();
    let output = cmd
        .stdin(Stdio::null())
        .output()
        .expect("rlckit-campaign starts");
    let wall = secs(start.elapsed());
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        output.status.success(),
        "rlckit-campaign {mode} failed: {stderr}"
    );
    let csv = std::fs::read(&out).expect("campaign CSV written");
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_file(&out);
    (csv, wall, stderr)
}

/// The relaunch count the supervisor prints (`…, N relaunches, …`).
pub fn relaunches(stderr: &str) -> Option<u64> {
    let end = stderr.find(" relaunches")?;
    stderr[..end].rsplit([' ', ',']).next()?.parse().ok()
}

/// Failed rows of a campaign CSV (the `outcome` column).
pub fn failed_rows(csv: &[u8]) -> u64 {
    String::from_utf8_lossy(csv)
        .lines()
        .skip(1)
        .filter(|row| {
            let outcome = row.rsplit(',').nth(1).unwrap_or("");
            outcome != "converged" && outcome != "retried"
        })
        .count() as u64
}

/// The byte-identity and clean-supervision gate of one rep.
pub fn gate(report: &mut Report, rep: usize, solo: &[u8], sharded: &[u8], stderr: &str) {
    report.gate(solo == sharded, || {
        format!("rep {rep}: the merged CSV differs from solo")
    });
    let relaunched = relaunches(stderr);
    report.gate(relaunched == Some(0), || {
        format!("rep {rep}: supervisor reported {relaunched:?} relaunches")
    });
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let work = ctx.work.join("campaign");
    // Set-up: generate the campaign and split it into its shards, the
    // planning every shard process repeats. Process start and the
    // checkpoint files are left out: on small virtual machines their
    // cost moves too much between minutes to be compared against a
    // bound. Every rep pays them, so they show in `points_per_s`.
    let setups: Vec<f64> = (0..ctx.setup_reps)
        .map(|_| {
            let t = Instant::now();
            let spec = spec(ctx);
            for shard in 0..ctx.nproc {
                std::hint::black_box(shard_points(&spec, shard, ctx.nproc));
            }
            secs(t.elapsed())
        })
        .collect();
    let spec = spec(ctx);

    let mut rep = 0;
    let reps = repeat_for(ctx.budget, 2, || {
        let (solo, t_solo, _) = run_cli(ctx, &spec, "solo", &work.join("solo"));
        let (sharded, t_run, stderr) = run_cli(ctx, &spec, "run", &work.join("run"));
        gate(report, rep, &solo, &sharded, &stderr);
        rep += 1;
        (failed_rows(&sharded), t_solo, t_run)
    });
    let _ = std::fs::remove_dir_all(&work);
    report.attempted = (reps.len() * spec.points) as u64;
    report.failed = reps.iter().map(|r| r.0).sum();

    let solo: Vec<f64> = reps.iter().map(|r| r.1).collect();
    let sharded: Vec<f64> = reps.iter().map(|r| r.2).collect();
    eprintln!(
        "perfbench: sharded_campaign {} x {} points x {} reps, solo {:.1} ms, {} shards {:.1} ms",
        spec.node.name(),
        spec.points,
        reps.len(),
        median(&solo) * 1e3,
        ctx.nproc,
        median(&sharded) * 1e3
    );
    report.metric("setup_s", median(&setups), "s");
    report.metric("points_per_s", spec.points as f64 / median(&sharded), "1/s");
    report.metric(
        "serial_points_per_s",
        spec.points as f64 / median(&solo),
        "1/s",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaunch_count_is_read_from_the_summary() {
        let line =
            "campaign 100nm x 25: 2 shards, 3 relaunches, 0 degraded, 0 unreached points -> x";
        assert_eq!(relaunches(line), Some(3));
        assert_eq!(relaunches("nothing"), None);
    }

    #[test]
    fn a_corrupted_merge_trips_the_gate() {
        let solo = b"index,x\n0,1.5\n".to_vec();
        let mut corrupted = solo.clone();
        corrupted[10] = b'6';
        let ok = "2 shards, 0 relaunches, 0 degraded";
        let mut clean = Report::default();
        gate(&mut clean, 0, &solo, &solo, ok);
        assert!(clean.correct());
        let mut bad = Report::default();
        gate(&mut bad, 0, &solo, &corrupted, ok);
        assert!(!bad.correct());
        let mut relaunched = Report::default();
        gate(
            &mut relaunched,
            0,
            &solo,
            &solo,
            "2 shards, 1 relaunches, 0 degraded",
        );
        assert!(!relaunched.correct());
    }

    #[test]
    fn failed_rows_read_the_outcome_column() {
        let csv = b"h\n0,a,converged,0\n1,a,failed,2\n2,a,degraded,1\n3,a,retried,1\n";
        assert_eq!(failed_rows(csv), 2);
    }
}
