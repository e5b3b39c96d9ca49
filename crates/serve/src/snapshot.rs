//! Warm-start snapshot: persist and reload the memo across restarts.
//!
//! The daemon pre-solves a grid of NTRS technology optima at boot so
//! the first interactive ask is a memo hit, not a multi-second Newton
//! solve. That warm-up is itself worth persisting: `save` writes every
//! retained entry to a plain-text file of hex-encoded `f64` bit
//! patterns, and `load` replays it through
//! [`OptimumMemo::preload`] (counter-free, first-answer-wins) on the
//! next boot. A reloaded entry is **bit-identical** to the solve that
//! produced it — the snapshot stores raw bits, never decimal round
//! trips.
//!
//! # Format
//!
//! Line 1 is a header carrying a format fingerprint over
//! `(version, QUANT_BITS, key width)`; a snapshot written under a
//! different quantization, key layout or solver version reports
//! [`LoadOutcome::Incompatible`] and is ignored (the daemon then falls
//! back to a cold warm-up — never to silently wrong cache hits). Every
//! further line is one entry: 15 space-separated 16-digit hex words
//! (the 7 key words, then the 8 value words). A torn tail — a crash
//! mid-write — stops the load at the last complete entry.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use rlckit::checkpoint::fingerprint64;
use rlckit::memo::{MemoKey, OptimumMemo, QUANT_BITS};
use rlckit::optimizer::RlcOptimum;
use rlckit_tline::Damping;
use rlckit_units::{HenriesPerMeter, Meters, Seconds};

/// Version of the snapshot layout described in the module docs, and of
/// the solver that produced its optima.
///
/// Bump it when the layout changes **and** when solver output bits
/// change: a reloaded entry must be what a cold solve returns now
/// (served = cold solve), so optima persisted by an older solver have
/// to load as [`LoadOutcome::Incompatible`]. Version 2: the optimizer's
/// exact outer Jacobian moved the optimum bits.
pub const SNAPSHOT_VERSION: u64 = 2;

/// Number of hex words on one entry line (7 key + 8 value).
const ENTRY_WORDS: usize = 15;

/// The format fingerprint the header must carry: any change to the
/// snapshot version, the quantization granularity, or the key width
/// invalidates persisted entries.
#[must_use]
pub fn format_fingerprint() -> u64 {
    fingerprint64([SNAPSHOT_VERSION, u64::from(QUANT_BITS), 7])
}

/// Result of a [`load`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The snapshot was read; this many entries were preloaded.
    Loaded(usize),
    /// No snapshot file exists at the path.
    Missing,
    /// The file exists but was written under a different format
    /// fingerprint (version / quantization / key-width change); nothing
    /// was loaded.
    Incompatible,
}

fn encode_value(v: &RlcOptimum) -> [u64; 8] {
    let damping = match v.damping {
        Damping::Overdamped => 0,
        Damping::CriticallyDamped => 1,
        Damping::Underdamped => 2,
    };
    [
        v.segment_length.get().to_bits(),
        v.repeater_size.to_bits(),
        v.segment_delay.get().to_bits(),
        damping,
        v.critical_inductance.get().to_bits(),
        v.iterations as u64,
        u64::from(v.used_fallback),
        u64::from(v.restarts),
    ]
}

fn decode_value(words: &[u64]) -> Option<RlcOptimum> {
    let damping = match words[3] {
        0 => Damping::Overdamped,
        1 => Damping::CriticallyDamped,
        2 => Damping::Underdamped,
        _ => return None,
    };
    Some(RlcOptimum {
        segment_length: Meters::new(f64::from_bits(words[0])),
        repeater_size: f64::from_bits(words[1]),
        segment_delay: Seconds::new(f64::from_bits(words[2])),
        damping,
        critical_inductance: HenriesPerMeter::new(f64::from_bits(words[4])),
        iterations: usize::try_from(words[5]).ok()?,
        used_fallback: words[6] != 0,
        restarts: u32::try_from(words[7]).ok()?,
    })
}

/// Writes every retained memo entry to `path` (atomically enough for a
/// boot-time snapshot: full rewrite, torn tails are tolerated by
/// [`load`]). Returns the number of entries written.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn save(path: &Path, memo: &OptimumMemo) -> std::io::Result<usize> {
    let entries = memo.export();
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "rlckit-serve-snapshot version={SNAPSHOT_VERSION} quant_bits={QUANT_BITS} \
         fingerprint={:016x}",
        format_fingerprint()
    )?;
    for (key, value) in &entries {
        let words: Vec<String> = key
            .iter()
            .copied()
            .chain(encode_value(value))
            .map(|w| format!("{w:016x}"))
            .collect();
        writeln!(out, "{}", words.join(" "))?;
    }
    out.flush()?;
    Ok(entries.len())
}

/// Like [`save`], but **atomic**: writes to a `.tmp` sibling and
/// renames it over `path`, so a reader (another daemon booting, an
/// operator's `cp`) never observes a half-written snapshot. This is
/// the variant the background re-warmer uses — it refreshes the
/// snapshot while the daemon is live, where a torn rewrite window
/// would no longer be a boot-time-only risk.
///
/// # Errors
///
/// Propagates file-creation, write, and rename failures (the `.tmp`
/// sibling is left behind on failure for post-mortems).
pub fn save_atomic(path: &Path, memo: &OptimumMemo) -> std::io::Result<usize> {
    let tmp = path.with_extension("tmp");
    let written = save(&tmp, memo)?;
    std::fs::rename(&tmp, path)?;
    Ok(written)
}

/// Preloads `memo` from the snapshot at `path`. Entries re-route to
/// whatever shard layout `memo` has — the snapshot is layout-agnostic.
/// A torn tail stops the load at the last complete entry; already
/// present keys keep their first answer ([`OptimumMemo::preload`]).
///
/// # Errors
///
/// Propagates read failures other than the file not existing (which is
/// the normal first-boot case, reported as [`LoadOutcome::Missing`]).
pub fn load(path: &Path, memo: &OptimumMemo) -> std::io::Result<LoadOutcome> {
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LoadOutcome::Missing),
        Err(e) => return Err(e),
    };
    let mut lines = BufReader::new(file).lines();
    let header = match lines.next() {
        Some(h) => h?,
        None => return Ok(LoadOutcome::Incompatible),
    };
    let expected = format!("fingerprint={:016x}", format_fingerprint());
    if !header.starts_with("rlckit-serve-snapshot ") || !header.contains(&expected) {
        return Ok(LoadOutcome::Incompatible);
    }
    let mut loaded = 0usize;
    for line in lines {
        let line = line?;
        let words: Vec<u64> = line
            .split_ascii_whitespace()
            .map_while(|w| u64::from_str_radix(w, 16).ok())
            .collect();
        if words.len() != ENTRY_WORDS {
            break; // torn tail: keep what loaded cleanly
        }
        let mut key: MemoKey = [0; 7];
        key.copy_from_slice(&words[..7]);
        let Some(value) = decode_value(&words[7..]) else {
            break;
        };
        if memo.preload(key, value) {
            loaded += 1;
        }
    }
    Ok(LoadOutcome::Loaded(loaded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit::optimizer::OptimizerOptions;
    use rlckit_tech::TechNode;
    use rlckit_tline::LineRlc;

    fn solved_memo(entries: u32) -> OptimumMemo {
        let node = TechNode::nm100();
        let memo = OptimumMemo::sharded(3, 64);
        for i in 0..entries {
            let line = LineRlc::new(
                node.line().resistance,
                HenriesPerMeter::from_nano_per_milli(0.5 + 0.7 * f64::from(i)),
                node.line().capacitance,
            );
            memo.optimum(&line, &node.driver(), OptimizerOptions::default())
                .unwrap();
        }
        memo
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rlckit-serve-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let source = solved_memo(4);
        let path = temp_path("round-trip.snap");
        assert_eq!(save(&path, &source).unwrap(), 4);

        // Reload into a *differently sharded* memo: entries re-route.
        let target = OptimumMemo::sharded(5, 64);
        assert_eq!(load(&path, &target).unwrap(), LoadOutcome::Loaded(4));
        assert_eq!(target.len(), 4);
        for (key, value) in source.export() {
            let got = target.probe(&key).expect("entry survives the round trip");
            assert_eq!(
                got.segment_delay.get().to_bits(),
                value.segment_delay.get().to_bits()
            );
            assert_eq!(
                got.segment_length.get().to_bits(),
                value.segment_length.get().to_bits()
            );
            assert_eq!(got.damping, value.damping);
            assert_eq!(got.used_fallback, value.used_fallback);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_and_incompatible_snapshots_load_nothing() {
        let memo = OptimumMemo::default();
        let missing = temp_path("does-not-exist.snap");
        std::fs::remove_file(&missing).ok();
        assert_eq!(load(&missing, &memo).unwrap(), LoadOutcome::Missing);

        let stale = temp_path("stale.snap");
        std::fs::write(
            &stale,
            "rlckit-serve-snapshot version=0 quant_bits=13 fingerprint=dead\n",
        )
        .unwrap();
        assert_eq!(load(&stale, &memo).unwrap(), LoadOutcome::Incompatible);
        assert!(memo.is_empty());
        std::fs::remove_file(&stale).ok();
    }

    #[test]
    fn a_version_1_snapshot_is_incompatible() {
        // Version-1 optima came from the finite-difference outer
        // Jacobian; no cold solve reproduces their bits any more, so a
        // daemon must not serve them. Entry lines are well-formed: only
        // the header's version (and with it the fingerprint) is old.
        let source = solved_memo(2);
        let path = temp_path("version-1.snap");
        save(&path, &source).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let (_, entries) = text.split_once('\n').unwrap();
        let header = format!(
            "rlckit-serve-snapshot version=1 quant_bits={QUANT_BITS} fingerprint={:016x}",
            fingerprint64([1, u64::from(QUANT_BITS), 7])
        );
        std::fs::write(&path, format!("{header}\n{entries}")).unwrap();

        let memo = OptimumMemo::default();
        assert_eq!(load(&path, &memo).unwrap(), LoadOutcome::Incompatible);
        assert!(memo.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_torn_tail_keeps_the_complete_prefix() {
        let source = solved_memo(3);
        let path = temp_path("torn.snap");
        save(&path, &source).unwrap();
        // Chop the last line in half, as a crash mid-write would.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - 40;
        std::fs::write(&path, &text[..keep]).unwrap();

        let target = OptimumMemo::default();
        assert_eq!(load(&path, &target).unwrap(), LoadOutcome::Loaded(2));
        assert_eq!(target.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
