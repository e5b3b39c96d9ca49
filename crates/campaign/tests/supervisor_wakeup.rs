//! The supervisor reacts to a shard's exit when it happens, not on its
//! next poll: with a 3 s `--poll-ms`, a 40-point two-shard campaign
//! (a few milliseconds of work per shard) must still finish well
//! inside one poll interval, and merge byte-identical to `solo`.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

fn fresh_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "rlckit-supervisor-wakeup-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn campaign(mode: &str, tag: &str, extra: &[&str]) -> (String, Duration) {
    let dir = fresh_dir(tag);
    let out = dir.with_extension("csv");
    let _ = std::fs::remove_file(&out);
    let start = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_rlckit-campaign"))
        .args([mode, "--node", "100nm", "--points", "40"])
        .args(extra)
        .arg("--dir")
        .arg(&dir)
        .arg("--out")
        .arg(&out)
        .env_remove("RLCKIT_SHARD_FAULTS")
        .env_remove("RLCKIT_TRACE")
        .output()
        .expect("spawn rlckit-campaign");
    let wall = start.elapsed();
    assert!(
        output.status.success(),
        "rlckit-campaign {mode} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let csv = std::fs::read_to_string(&out).expect("campaign CSV");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&out);
    (csv, wall)
}

#[test]
fn shard_exits_wake_the_supervisor_before_the_next_poll() {
    let (solo, _) = campaign("solo", "solo", &[]);
    let (run, wall) = campaign("run", "run", &["--shards", "2", "--poll-ms", "3000"]);
    assert_eq!(run, solo, "supervised CSV differs from solo");
    assert!(
        wall < Duration::from_millis(1500),
        "a 40-point run under --poll-ms 3000 took {wall:?}: the supervisor \
         waited for its poll instead of waking on the shard exits"
    );
}
