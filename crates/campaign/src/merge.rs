//! Checksummed shard records and the deterministic merge.
//!
//! Each shard checkpoint line carries one grid point's outcome as
//! `[tag, attempts, …payload…, checksum]` words. The checksum word
//! hashes the point index together with every other word, so a smudged
//! byte anywhere in a record — even one that still parses as valid hex
//! and decodes to a plausible value — is detected at merge time instead
//! of silently changing the merged CSV.
//!
//! The merge itself is strict by default: it refuses mismatched
//! fingerprints, mangled lines, duplicate, foreign or missing point
//! indices, each with a structured [`MergeError`]. Shards that the
//! supervisor gave up on (restart budget exhausted) are read
//! *leniently* — whatever well-formed records they managed to write
//! are kept, and their remaining points become explicit `failed` rows.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::path::Path;

use rlckit::checkpoint::{
    fingerprint64, parse_header_line, parse_point_line, split_lines, CHECKPOINT_VERSION,
};
use rlckit::sweeps::{decode_sweep_point, encode_sweep_point, SweepPoint};
use rlckit::PointOutcome;

use crate::grid::{shard_file_name, shard_fingerprint, shard_of_point, shard_points, CampaignSpec};

/// How a point's solve went, stripped of the value (mirrors the
/// variants of [`PointOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeTag {
    /// First attempt converged on the rigorous path.
    Converged,
    /// Converged after retries.
    Retried,
    /// Value came from the derivative-free fallback.
    Degraded,
    /// No value; the whole ladder failed.
    Failed,
}

impl OutcomeTag {
    /// The CSV spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Converged => "converged",
            Self::Retried => "retried",
            Self::Degraded => "degraded",
            Self::Failed => "failed",
        }
    }

    fn to_word(self) -> u64 {
        match self {
            Self::Converged => 0,
            Self::Retried => 1,
            Self::Degraded => 2,
            Self::Failed => 3,
        }
    }

    fn from_word(word: u64) -> Option<Self> {
        match word {
            0 => Some(Self::Converged),
            1 => Some(Self::Retried),
            2 => Some(Self::Degraded),
            3 => Some(Self::Failed),
            _ => None,
        }
    }
}

/// One grid point's recorded outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// How the solve went.
    pub tag: OutcomeTag,
    /// Retries spent (see [`PointOutcome`]).
    pub attempts: u32,
    /// The solved point; `None` iff `tag` is [`OutcomeTag::Failed`].
    pub point: Option<SweepPoint>,
}

impl PointRecord {
    /// Strips a [`PointOutcome`] into its record form.
    #[must_use]
    pub fn from_outcome(outcome: PointOutcome<SweepPoint>) -> Self {
        match outcome {
            PointOutcome::Converged(point) => Self {
                tag: OutcomeTag::Converged,
                attempts: 0,
                point: Some(point),
            },
            PointOutcome::Retried { value, attempts } => Self {
                tag: OutcomeTag::Retried,
                attempts,
                point: Some(value),
            },
            PointOutcome::Degraded { value, attempts } => Self {
                tag: OutcomeTag::Degraded,
                attempts,
                point: Some(value),
            },
            PointOutcome::Failed { attempts, .. } => Self {
                tag: OutcomeTag::Failed,
                attempts,
                point: None,
            },
        }
    }

    /// An explicit failed row for a point a degraded shard never
    /// reached.
    #[must_use]
    pub fn failed_unreached() -> Self {
        Self {
            tag: OutcomeTag::Failed,
            attempts: 0,
            point: None,
        }
    }
}

/// Encodes a record as checkpoint words: `[tag, attempts, …9 point
/// words…, checksum]` (failed points omit the payload). The checksum
/// hashes the grid `index` plus every preceding word.
#[must_use]
pub fn encode_record(index: usize, record: &PointRecord) -> Vec<u64> {
    let mut words = vec![record.tag.to_word(), u64::from(record.attempts)];
    if let Some(point) = &record.point {
        words.extend(encode_sweep_point(point));
    }
    let checksum = fingerprint64(std::iter::once(index as u64).chain(words.iter().copied()));
    words.push(checksum);
    words
}

/// Decodes the words written by [`encode_record`]; `None` for any word
/// count, tag, payload or checksum that the encoder could not have
/// produced for this `index`.
#[must_use]
pub fn decode_record(index: usize, words: &[u64]) -> Option<PointRecord> {
    let (&checksum, body) = words.split_last()?;
    if checksum != fingerprint64(std::iter::once(index as u64).chain(body.iter().copied())) {
        return None;
    }
    let tag = OutcomeTag::from_word(*body.first()?)?;
    let attempts = u32::try_from(*body.get(1)?).ok()?;
    let point = match tag {
        OutcomeTag::Failed => {
            if body.len() != 2 {
                return None;
            }
            None
        }
        _ => Some(decode_sweep_point(body.get(2..)?)?),
    };
    Some(PointRecord {
        tag,
        attempts,
        point,
    })
}

/// Why a merge refused a set of shard files.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// A shard file could not be opened or read.
    Io {
        /// Shard index.
        shard: usize,
        /// Underlying error text.
        detail: String,
    },
    /// The shard's first line is not a well-formed checkpoint header.
    MangledHeader {
        /// Shard index.
        shard: usize,
    },
    /// The shard's header fingerprint (or version) belongs to a
    /// different campaign, shard slot, or shard count.
    FingerprintMismatch {
        /// Shard index.
        shard: usize,
        /// What this campaign expects.
        expected: u64,
        /// What the file carries.
        found: u64,
    },
    /// A non-header line is not a well-formed point line.
    MangledLine {
        /// Shard index.
        shard: usize,
        /// 1-based line number in the file.
        line: usize,
    },
    /// A point line parsed, but its words fail the record checksum or
    /// decode (a smudged byte, truncated payload, bad tag, …).
    CorruptRecord {
        /// Shard index.
        shard: usize,
        /// Grid index of the offending record.
        index: usize,
    },
    /// The shard recorded the same grid point twice.
    DuplicatePoint {
        /// Shard index.
        shard: usize,
        /// Grid index recorded twice.
        index: usize,
    },
    /// The shard recorded a grid point the split does not assign to it.
    ForeignPoint {
        /// Shard index.
        shard: usize,
        /// Grid index that belongs elsewhere.
        index: usize,
    },
    /// The shard is missing one of its assigned grid points (it never
    /// ran to completion).
    MissingPoint {
        /// Shard index.
        shard: usize,
        /// Grid index never recorded.
        index: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { shard, detail } => write!(f, "shard {shard}: io error: {detail}"),
            Self::MangledHeader { shard } => {
                write!(f, "shard {shard}: first line is not a checkpoint header")
            }
            Self::FingerprintMismatch {
                shard,
                expected,
                found,
            } => write!(
                f,
                "shard {shard}: fingerprint {found:#018x} does not match expected {expected:#018x} \
                 (different campaign, shard slot, or shard count)"
            ),
            Self::MangledLine { shard, line } => {
                write!(f, "shard {shard}: line {line} is not a well-formed point line")
            }
            Self::CorruptRecord { shard, index } => write!(
                f,
                "shard {shard}: record for point {index} fails its checksum or decode"
            ),
            Self::DuplicatePoint { shard, index } => {
                write!(f, "shard {shard}: point {index} recorded twice")
            }
            Self::ForeignPoint { shard, index } => write!(
                f,
                "shard {shard}: point {index} is not assigned to this shard"
            ),
            Self::MissingPoint { shard, index } => write!(
                f,
                "shard {shard}: assigned point {index} missing (shard incomplete)"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Which grid indices the split assigns to `shard` of `of`, as a mask
/// over the whole grid.
fn assigned_mask(spec: &CampaignSpec, campaign_fp: u64, shard: usize, of: usize) -> Vec<bool> {
    (0..spec.points)
        .map(|index| shard_of_point(campaign_fp, index, of) == shard)
        .collect()
}

/// Reads one shard file strictly: every line must parse, every record
/// must checksum, the point set must be exactly the shard's assigned
/// slice. Returns the records keyed by grid index.
///
/// # Errors
///
/// Every way the file can deviate from what [`crate::shard::run_shard`]
/// writes maps to a distinct [`MergeError`] variant.
pub fn read_shard_strict(
    spec: &CampaignSpec,
    dir: &Path,
    shard: usize,
    of: usize,
) -> Result<BTreeMap<usize, PointRecord>, MergeError> {
    let campaign_fp = spec.fingerprint();
    let expected = shard_fingerprint(campaign_fp, shard, of);
    let path = dir.join(shard_file_name(shard, of));
    let bytes = std::fs::read(&path).map_err(|e| MergeError::Io {
        shard,
        detail: format!("{}: {e}", path.display()),
    })?;
    let mut lines = split_lines(&bytes);
    match lines.next().and_then(parse_header_line) {
        Some((CHECKPOINT_VERSION, found)) if found == expected => {}
        Some((_, found)) => {
            return Err(MergeError::FingerprintMismatch {
                shard,
                expected,
                found,
            })
        }
        None => return Err(MergeError::MangledHeader { shard }),
    }

    let assigned = assigned_mask(spec, campaign_fp, shard, of);
    let mut records = BTreeMap::new();
    for (n, line) in lines.enumerate() {
        let Some((index, words)) = parse_point_line(line) else {
            return Err(MergeError::MangledLine {
                shard,
                line: n + 2,
            });
        };
        if !assigned.get(index).copied().unwrap_or(false) {
            return Err(MergeError::ForeignPoint { shard, index });
        }
        let Some(record) = decode_record(index, &words) else {
            return Err(MergeError::CorruptRecord { shard, index });
        };
        if records.insert(index, record).is_some() {
            return Err(MergeError::DuplicatePoint { shard, index });
        }
    }
    if let Some(index) = (0..assigned.len()).find(|&i| assigned[i] && !records.contains_key(&i)) {
        return Err(MergeError::MissingPoint { shard, index });
    }
    Ok(records)
}

/// Reads one shard file leniently, for shards the supervisor degraded:
/// mangled lines, corrupt records, foreign and duplicate points are
/// dropped (last well-formed write wins), a missing or mismatched file
/// yields no records at all. Never fails.
#[must_use]
pub fn read_shard_lenient(
    spec: &CampaignSpec,
    dir: &Path,
    shard: usize,
    of: usize,
) -> BTreeMap<usize, PointRecord> {
    let campaign_fp = spec.fingerprint();
    let expected = shard_fingerprint(campaign_fp, shard, of);
    let Ok(bytes) = std::fs::read(dir.join(shard_file_name(shard, of))) else {
        return BTreeMap::new();
    };
    let mut lines = split_lines(&bytes);
    if lines.next().and_then(parse_header_line) != Some((CHECKPOINT_VERSION, expected)) {
        return BTreeMap::new();
    }
    let assigned = assigned_mask(spec, campaign_fp, shard, of);
    let mut records = BTreeMap::new();
    for line in lines {
        if let Some((index, words)) = parse_point_line(line) {
            if assigned.get(index).copied().unwrap_or(false) {
                if let Some(record) = decode_record(index, &words) {
                    records.insert(index, record);
                }
            }
        }
    }
    records
}

/// A merged campaign: one record per grid point, in index order.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedCampaign {
    /// Per-point records keyed by grid index; complete over the grid.
    pub records: BTreeMap<usize, PointRecord>,
    /// How many rows are `failed` placeholders for points that degraded
    /// shards never reached (0 for a fully healthy campaign).
    pub unreached: usize,
}

/// Merges `of` shard files from `dir` into one complete campaign.
///
/// Shards listed in `degraded` are read leniently and their unreached
/// points become explicit failed rows; every other shard must be
/// complete and pristine. The result is a pure function of the shard
/// file contents — merge order cannot affect it, so the merged CSV is
/// byte-identical to a single-process run of the same campaign.
///
/// # Errors
///
/// Any strict-read violation on a non-degraded shard.
pub fn merge_shards(
    spec: &CampaignSpec,
    dir: &Path,
    of: usize,
    degraded: &BTreeSet<usize>,
) -> Result<MergedCampaign, MergeError> {
    let mut records = BTreeMap::new();
    let mut unreached = 0usize;
    for shard in 0..of {
        if degraded.contains(&shard) {
            let mut partial = read_shard_lenient(spec, dir, shard, of);
            for (index, _) in shard_points(spec, shard, of) {
                let record = partial.remove(&index).unwrap_or_else(|| {
                    unreached += 1;
                    PointRecord::failed_unreached()
                });
                records.insert(index, record);
            }
        } else {
            records.append(&mut read_shard_strict(spec, dir, shard, of)?);
        }
    }
    Ok(MergedCampaign { records, unreached })
}

/// Renders a merged campaign as the canonical CSV.
///
/// Float cells use Rust's shortest-round-trip `Display`, so the bytes
/// are an exact function of the solved bits; failed rows leave the
/// value cells empty. This is the byte-identity surface the kill/merge
/// property tests compare.
#[must_use]
pub fn render_csv(spec: &CampaignSpec, merged: &MergedCampaign) -> String {
    const HEADER: &str = "index,l_nh_per_mm,h_opt_m,k_opt,delay_s_per_m,h_ratio,k_ratio,\
                          l_crit_h_per_m,damping,rc_design_delay_s_per_m,outcome,attempts\n";
    // A solved row is about 205 bytes; reserve enough that the string
    // never reallocates.
    const ROW_BYTES: usize = 224;
    let grid = spec.grid();
    let mut out = String::with_capacity(HEADER.len() + ROW_BYTES * grid.len());
    out.push_str(HEADER);
    for (index, l) in grid.iter().enumerate() {
        let record = merged
            .records
            .get(&index)
            .expect("merge produces a complete grid");
        let l_label = l.to_nano_per_milli();
        let written = match &record.point {
            Some(p) => {
                let damping = match p.damping {
                    rlckit_tline::Damping::Overdamped => "overdamped",
                    rlckit_tline::Damping::CriticallyDamped => "critical",
                    rlckit_tline::Damping::Underdamped => "underdamped",
                };
                writeln!(
                    out,
                    "{index},{l_label},{},{},{},{},{},{},{damping},{},{},{}",
                    p.h_opt,
                    p.k_opt,
                    p.delay_per_length,
                    p.h_ratio,
                    p.k_ratio,
                    p.l_crit,
                    p.rc_design_delay_per_length,
                    record.tag.label(),
                    record.attempts,
                )
            }
            None => writeln!(
                out,
                "{index},{l_label},,,,,,,,,{},{}",
                record.tag.label(),
                record.attempts,
            ),
        };
        written.expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_point() -> SweepPoint {
        SweepPoint {
            inductance: rlckit_units::HenriesPerMeter::from_nano_per_milli(1.8),
            h_opt: 1.25e-3,
            k_opt: 52.0,
            delay_per_length: 1.7e-5,
            h_ratio: 1.1,
            k_ratio: 0.9,
            l_crit: 2.1e-6,
            damping: rlckit_tline::Damping::Overdamped,
            rc_design_delay_per_length: 1.9e-5,
        }
    }

    /// A solo shard of `points` points with one byte of point 1's line
    /// replaced by a byte that is not valid UTF-8.
    fn shard_with_non_utf8_line(name: &str, points: usize) -> (CampaignSpec, std::path::PathBuf) {
        let spec = CampaignSpec {
            node: crate::grid::CampaignNode::Nm100,
            points,
        };
        let mut dir = std::env::temp_dir();
        dir.push(format!("rlckit-merge-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::shard::run_shard(&spec, 0, 1, &dir, 0).unwrap();
        let path = dir.join(shard_file_name(0, 1));
        let mut bytes = std::fs::read(&path).unwrap();
        // Lines are header, point 0, point 1, …: smudge inside line 3.
        let line_3 = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .nth(1)
            .unwrap()
            .0
            + 1;
        bytes[line_3 + 40] = 0xff;
        std::fs::write(&path, bytes).unwrap();
        (spec, dir)
    }

    #[test]
    fn strict_read_refuses_a_non_utf8_line_as_mangled() {
        let (spec, dir) = shard_with_non_utf8_line("strict-non-utf8", 4);
        assert_eq!(
            read_shard_strict(&spec, &dir, 0, 1),
            Err(MergeError::MangledLine { shard: 0, line: 3 })
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The lenient reader drops a line that is not valid UTF-8 on its
    /// own and keeps every later record; a line-iterator reader used to
    /// stop there and turn the rest of the shard into unreached rows.
    #[test]
    fn lenient_read_skips_a_non_utf8_line_and_keeps_reading() {
        let (spec, dir) = shard_with_non_utf8_line("lenient-non-utf8", 4);
        let records = read_shard_lenient(&spec, &dir, 0, 1);
        assert_eq!(records.keys().copied().collect::<Vec<_>>(), [0, 2, 3]);
        let merged = merge_shards(&spec, &dir, 1, &BTreeSet::from([0])).unwrap();
        assert_eq!(merged.unreached, 1);
        assert_eq!(merged.records[&1], PointRecord::failed_unreached());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_round_trips_all_tags() {
        for (tag, attempts, point) in [
            (OutcomeTag::Converged, 0, Some(sample_point())),
            (OutcomeTag::Retried, 2, Some(sample_point())),
            (OutcomeTag::Degraded, 5, Some(sample_point())),
            (OutcomeTag::Failed, 3, None),
        ] {
            let record = PointRecord {
                tag,
                attempts,
                point,
            };
            let words = encode_record(7, &record);
            assert_eq!(decode_record(7, &words), Some(record));
        }
    }

    #[test]
    fn record_checksum_binds_the_index() {
        let record = PointRecord {
            tag: OutcomeTag::Converged,
            attempts: 0,
            point: Some(sample_point()),
        };
        let words = encode_record(7, &record);
        assert_eq!(decode_record(8, &words), None);
    }

    #[test]
    fn record_rejects_any_flipped_word_bit() {
        let record = PointRecord {
            tag: OutcomeTag::Retried,
            attempts: 1,
            point: Some(sample_point()),
        };
        let words = encode_record(3, &record);
        for i in 0..words.len() {
            let mut mutated = words.clone();
            mutated[i] ^= 1 << (i % 64);
            assert_eq!(decode_record(3, &mutated), None, "word {i} flip accepted");
        }
    }

    #[test]
    fn record_rejects_truncated_payload() {
        let record = PointRecord {
            tag: OutcomeTag::Converged,
            attempts: 0,
            point: Some(sample_point()),
        };
        let words = encode_record(0, &record);
        assert_eq!(decode_record(0, &words[..words.len() - 1]), None);
        assert_eq!(decode_record(0, &[]), None);
    }
}
