//! The multi-process campaign supervisor.
//!
//! `run --shards n` launches one `rlckit-campaign shard` child per
//! shard and babysits them to completion:
//!
//! * **Heartbeats are progress, not liveness.** A shard flushes its
//!   checkpoint after every point, so the supervisor watches the file
//!   for growth. A child that is alive but not appending (an injected
//!   hang, a wedged solve) trips the stall timeout and is killed — a
//!   responsive-looking PID is not evidence of work.
//! * **Crashes are relaunched with backoff.** Each death schedules a
//!   relaunch at `backoff_base × 2^(relaunches−1)` (capped), tracked
//!   per shard as a deadline so one shard's backoff never blocks
//!   watching the others. The relaunch generation is passed to the
//!   child, which keys the `RLCKIT_SHARD_FAULTS` schedule on it — so
//!   an injected crash loop converges instead of re-killing the same
//!   point forever.
//! * **The restart budget bounds the tantrum.** A shard that dies more
//!   than `restart_budget` times is *degraded*: its checkpoint is
//!   merged leniently and its unreached points become explicit
//!   `failed` rows, so the campaign always terminates with a complete
//!   (if honest about its holes) CSV.
//! * **Exits wake the supervisor.** Each child's stdout is a pipe that
//!   a reader thread drains to EOF — which comes exactly when the child
//!   exits, aborts or is killed — and then reports the shard on a
//!   channel. The supervisor blocks on that channel, so a finished
//!   shard is reaped (and a crashed one scheduled for relaunch) the
//!   moment it goes; `poll_interval` only paces the stall and backoff
//!   checks while nothing exits, and the wait also ends at the next
//!   relaunch deadline.
//!
//! Every lifecycle step lands in the flight recorder:
//! `campaign.shard.{launched,relaunched,stalled,completed,degraded}`
//! counters plus one [`EventKind::Outcome`] event per step with
//! `trace_id = shard` and `value = generation`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rlckit_trace::events::EventKind;
use rlckit_trace::{counter, event};

use crate::grid::{shard_file_name, CampaignSpec};
use crate::merge::{merge_shards, render_csv, MergeError};

/// Supervision knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Number of shard processes.
    pub shards: usize,
    /// Relaunches allowed per shard before it is degraded.
    pub restart_budget: u32,
    /// How long a live child may go without growing its checkpoint
    /// before it is declared hung and killed.
    pub stall_timeout: Duration,
    /// First relaunch delay; doubles per relaunch of the same shard.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Cadence of the stall and backoff checks while no shard exits
    /// (an exit wakes the supervisor at once).
    pub poll_interval: Duration,
}

impl SupervisorConfig {
    /// Defaults for `shards` shard processes.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            restart_budget: 5,
            stall_timeout: Duration::from_secs(30),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            poll_interval: Duration::from_millis(10),
        }
    }

    fn backoff(&self, relaunches: u32) -> Duration {
        let doublings = relaunches.saturating_sub(1).min(20);
        self.backoff_base
            .saturating_mul(1 << doublings)
            .min(self.backoff_cap)
    }
}

/// One shard's fate, as reported by [`supervise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Relaunches spent (0 = the first launch sufficed).
    pub relaunches: u32,
    /// Whether the shard exhausted its restart budget.
    pub degraded: bool,
}

/// A completed supervised campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    /// The merged canonical CSV.
    pub csv: String,
    /// Per-shard fates.
    pub shards: Vec<ShardStatus>,
    /// Grid points recorded as failed because a degraded shard never
    /// reached them.
    pub unreached: usize,
}

/// Why a supervised run failed outright (degradation is not failure).
#[derive(Debug)]
pub enum SuperviseError {
    /// A child could not be spawned at all (bad executable path).
    Spawn(String),
    /// The final merge refused the shard files.
    Merge(MergeError),
}

impl std::fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Spawn(detail) => write!(f, "cannot spawn shard process: {detail}"),
            Self::Merge(e) => write!(f, "merge after supervision failed: {e}"),
        }
    }
}

impl std::error::Error for SuperviseError {}

impl From<MergeError> for SuperviseError {
    fn from(e: MergeError) -> Self {
        Self::Merge(e)
    }
}

struct Slot {
    shard: usize,
    checkpoint: PathBuf,
    child: Option<Child>,
    /// The current child's stdout reached EOF: it has exited (or is
    /// exiting), so waiting on it cannot block for long.
    exited: bool,
    relaunches: u32,
    restart_at: Option<Instant>,
    last_len: u64,
    last_progress: Instant,
    done: bool,
    degraded: bool,
}

impl Slot {
    fn finished(&self) -> bool {
        self.done || self.degraded
    }
}

/// Exit notices from the children's stdout pipes: each spawned child
/// gets a reader thread that drains its stdout to EOF — which comes
/// when the child exits, aborts or is killed — and then posts
/// `(shard, generation)`.
struct ExitWatch {
    tx: Sender<(usize, u32)>,
    rx: Receiver<(usize, u32)>,
    readers: Vec<JoinHandle<()>>,
}

impl ExitWatch {
    fn new() -> Self {
        let (tx, rx) = channel();
        Self {
            tx,
            rx,
            readers: Vec::new(),
        }
    }

    fn watch(&mut self, child: &mut Child, shard: usize, generation: u32) {
        if let Some(mut stdout) = child.stdout.take() {
            let tx = self.tx.clone();
            self.readers.push(std::thread::spawn(move || {
                let _ = std::io::copy(&mut stdout, &mut std::io::sink());
                let _ = tx.send((shard, generation));
            }));
        }
    }

    /// Blocks until a child's stdout closes or `timeout` passes, then
    /// marks every exit posted so far on its slot. A notice from an
    /// earlier generation (a child the stall or error path already
    /// reaped) is ignored.
    fn wait(&self, timeout: Duration, slots: &mut [Slot]) {
        let Ok(first) = self.rx.recv_timeout(timeout) else {
            return;
        };
        for (shard, generation) in std::iter::once(first).chain(self.rx.try_iter()) {
            let slot = &mut slots[shard];
            if slot.child.is_some() && slot.relaunches == generation {
                slot.exited = true;
            }
        }
    }

    /// Joins the reader threads once every child has been reaped, so
    /// each has seen its EOF. A reader that panicked only cost its
    /// shard the early wake-up: the poll cadence still reaped it.
    fn join(self) {
        for reader in self.readers {
            let _ = reader.join();
        }
    }
}

fn spawn_shard(
    exe: &Path,
    spec: &CampaignSpec,
    dir: &Path,
    shard: usize,
    of: usize,
    generation: u32,
    exits: &mut ExitWatch,
) -> Result<Child, SuperviseError> {
    let mut child = Command::new(exe)
        .arg("shard")
        .args(["--node", spec.node.name()])
        .args(["--points", &spec.points.to_string()])
        .args(["--index", &shard.to_string()])
        .args(["--of", &of.to_string()])
        .args(["--generation", &generation.to_string()])
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| SuperviseError::Spawn(format!("{}: {e}", exe.display())))?;
    exits.watch(&mut child, shard, generation);
    Ok(child)
}

/// Supervises `cfg.shards` child processes of `exe` (the
/// `rlckit-campaign` binary itself) to a complete merged campaign.
///
/// # Errors
///
/// [`SuperviseError::Spawn`] if children cannot be started at all;
/// [`SuperviseError::Merge`] if a shard that claimed success left a
/// file the strict merge refuses.
pub fn supervise(
    exe: &Path,
    spec: &CampaignSpec,
    dir: &Path,
    cfg: &SupervisorConfig,
) -> Result<CampaignRun, SuperviseError> {
    assert!(cfg.shards > 0, "need at least one shard");
    std::fs::create_dir_all(dir)
        .map_err(|e| SuperviseError::Spawn(format!("campaign dir {}: {e}", dir.display())))?;
    let of = cfg.shards;
    let mut exits = ExitWatch::new();
    let mut slots: Vec<Slot> = (0..of)
        .map(|shard| Slot {
            shard,
            checkpoint: dir.join(shard_file_name(shard, of)),
            child: None,
            exited: false,
            relaunches: 0,
            restart_at: None,
            last_len: 0,
            last_progress: Instant::now(),
            done: false,
            degraded: false,
        })
        .collect();

    for slot in &mut slots {
        let child = spawn_shard(exe, spec, dir, slot.shard, of, 0, &mut exits)?;
        counter!("campaign.shard.launched").incr();
        event!(slot.shard as u64, "campaign.shard.launched", EventKind::Outcome, 0);
        slot.child = Some(child);
        slot.last_progress = Instant::now();
    }

    while slots.iter().any(|s| !s.finished()) {
        for slot in &mut slots {
            if slot.finished() {
                continue;
            }
            let generation = slot.relaunches;
            match &mut slot.child {
                Some(child) => match reap(child, slot.exited) {
                    Ok(Some(status)) => {
                        slot.child = None;
                        if status.success() {
                            slot.done = true;
                            counter!("campaign.shard.completed").incr();
                            event!(
                                slot.shard as u64,
                                "campaign.shard.completed",
                                EventKind::Outcome,
                                u64::from(generation)
                            );
                        } else {
                            on_death(slot, cfg);
                        }
                    }
                    Ok(None) => {
                        // Alive: require checkpoint movement within the
                        // stall window. Any size change counts — a
                        // relaunch rewrites (and briefly shrinks) the
                        // file before growing it again.
                        let len = std::fs::metadata(&slot.checkpoint)
                            .map(|m| m.len())
                            .unwrap_or(0);
                        if len != slot.last_len {
                            slot.last_len = len;
                            slot.last_progress = Instant::now();
                        } else if slot.last_progress.elapsed() > cfg.stall_timeout {
                            counter!("campaign.shard.stalled").incr();
                            event!(
                                slot.shard as u64,
                                "campaign.shard.stalled",
                                EventKind::Outcome,
                                u64::from(generation)
                            );
                            let _ = child.kill();
                            let _ = child.wait();
                            slot.child = None;
                            on_death(slot, cfg);
                        }
                    }
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        slot.child = None;
                        on_death(slot, cfg);
                    }
                },
                None => {
                    if slot.restart_at.is_some_and(|at| Instant::now() >= at) {
                        slot.restart_at = None;
                        match spawn_shard(exe, spec, dir, slot.shard, of, slot.relaunches, &mut exits)
                        {
                            Ok(child) => {
                                counter!("campaign.shard.relaunched").incr();
                                event!(
                                    slot.shard as u64,
                                    "campaign.shard.relaunched",
                                    EventKind::Outcome,
                                    u64::from(slot.relaunches)
                                );
                                slot.child = Some(child);
                                slot.exited = false;
                                slot.last_progress = Instant::now();
                            }
                            Err(_) => on_death(slot, cfg),
                        }
                    }
                }
            }
        }
        if slots.iter().any(|s| !s.finished()) {
            // Sleep until a child exits, the next relaunch is due, or
            // the stall-check cadence comes round, whichever is first.
            let now = Instant::now();
            let timeout = slots
                .iter()
                .filter_map(|s| s.restart_at)
                .map(|at| at.saturating_duration_since(now))
                .fold(cfg.poll_interval, Duration::min);
            exits.wait(timeout, &mut slots);
        }
    }
    exits.join();

    let degraded: BTreeSet<usize> = slots
        .iter()
        .filter(|s| s.degraded)
        .map(|s| s.shard)
        .collect();
    let merged = merge_shards(spec, dir, of, &degraded)?;
    Ok(CampaignRun {
        csv: render_csv(spec, &merged),
        unreached: merged.unreached,
        shards: slots
            .iter()
            .map(|s| ShardStatus {
                shard: s.shard,
                relaunches: s.relaunches,
                degraded: s.degraded,
            })
            .collect(),
    })
}

/// The child's exit status if it has exited. Once its stdout has closed
/// the child is exiting, so this waits for it rather than racing the
/// last instants of its exit.
fn reap(child: &mut Child, exited: bool) -> std::io::Result<Option<std::process::ExitStatus>> {
    if exited {
        child.wait().map(Some)
    } else {
        child.try_wait()
    }
}

fn on_death(slot: &mut Slot, cfg: &SupervisorConfig) {
    if slot.relaunches >= cfg.restart_budget {
        slot.degraded = true;
        counter!("campaign.shard.degraded").incr();
        event!(
            slot.shard as u64,
            "campaign.shard.degraded",
            EventKind::Outcome,
            u64::from(slot.relaunches)
        );
    } else {
        slot.relaunches += 1;
        slot.restart_at = Some(Instant::now() + cfg.backoff(slot.relaunches));
    }
}
