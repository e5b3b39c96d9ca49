//! JSONL checkpoint/resume for long sweep campaigns.
//!
//! A checkpoint file records each completed campaign point as one JSON
//! line of exact `f64` bit patterns, preceded by a header that
//! fingerprints the campaign's inputs. On restart the file is parsed,
//! points whose fingerprint matches are skipped, and only the missing
//! points are recomputed — producing results bit-identical to an
//! uninterrupted run because each point's fault scope and arithmetic
//! depend only on its original grid index.
//!
//! The format is append-only and torn-write tolerant: a process killed
//! mid-write leaves at most one partial trailing line, which the parser
//! discards (that point is simply recomputed). [`CheckpointFile::open`]
//! always rewrites the file from its parsed contents, so the on-disk
//! state is well-formed again after every open.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::path::Path;
use std::sync::Mutex;

use rlckit_numeric::{NumericError, Result};

/// Version stamped into checkpoint headers.
///
/// Bump it on format changes **and** when solver output bits change: a
/// resumed campaign must equal an uninterrupted one, so points
/// persisted by an older solver have to be recomputed, not adopted.
/// Version 2: the optimizer's exact outer Jacobian moved the optimum
/// bits.
pub const CHECKPOINT_VERSION: u32 = 2;

/// FNV-1a over a stream of `u64` words (fed byte-wise, little-endian).
///
/// Used to fingerprint a campaign's inputs — line parameters, driver
/// parameters, options, and the sweep grid, all as exact bit patterns —
/// so a checkpoint file is never resumed against different inputs.
#[must_use]
pub fn fingerprint64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn io_err(op: &str, e: &std::io::Error) -> NumericError {
    NumericError::InvalidInput(format!("checkpoint {op}: {e}"))
}

/// Splits one JSON object line into its top-level `key: value` pairs.
///
/// Tracks string state (including `\` escapes) and container depth, so
/// a field-shaped substring inside a string value or a nested container
/// can never be mistaken for a real field. This replaces the original
/// raw-substring matching (`line.find("\"index\":")`), which resumed
/// spliced torn writes as valid points — adopting one point's index
/// with another point's words. Returns `None` for anything that is not
/// a single well-formed `{...}` object of string-keyed fields.
fn top_level_fields(line: &str) -> Option<Vec<(&str, &str)>> {
    let body = line.strip_prefix('{')?.strip_suffix('}')?;
    let bytes = body.as_bytes();
    let mut fields = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut item_start = 0usize;
    let mut colon: Option<usize> = None;
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.checked_sub(1)?,
            b':' if depth == 0 && colon.is_none() => colon = Some(i),
            b',' if depth == 0 => {
                fields.push(split_field(body, item_start, colon?, i)?);
                item_start = i + 1;
                colon = None;
            }
            _ => {}
        }
    }
    if in_string || depth != 0 {
        return None;
    }
    if item_start < bytes.len() || !fields.is_empty() || colon.is_some() {
        fields.push(split_field(body, item_start, colon?, bytes.len())?);
    }
    Some(fields)
}

/// One `"key": value` item from [`top_level_fields`]; the key must be a
/// plain quoted string (no escapes), the value is returned raw.
fn split_field(body: &str, start: usize, colon: usize, end: usize) -> Option<(&str, &str)> {
    let key = body[start..colon].trim();
    let key = key.strip_prefix('"')?.strip_suffix('"')?;
    if key.contains(['"', '\\']) {
        return None;
    }
    Some((key, body[colon + 1..end].trim()))
}

/// Parses a header line; returns `(version, fingerprint)`. Strict: the
/// line must carry exactly the `type`/`version`/`fingerprint` fields,
/// each once — unknown or duplicated fields reject the whole line.
///
/// Public for consumers that read checkpoint-format files *strictly*
/// (the `rlckit-campaign` merge refuses a shard file whose lines this
/// parser rejects, instead of silently dropping them the way resume
/// does).
#[must_use]
pub fn parse_header_line(line: &str) -> Option<(u32, u64)> {
    let mut ty = None;
    let mut version = None;
    let mut fingerprint = None;
    for (key, value) in top_level_fields(line.trim())? {
        let slot = match key {
            "type" => &mut ty,
            "version" => &mut version,
            "fingerprint" => &mut fingerprint,
            _ => return None,
        };
        if slot.replace(value).is_some() {
            return None;
        }
    }
    if ty? != "\"header\"" {
        return None;
    }
    let version: u32 = version?.parse().ok()?;
    let hex = fingerprint?.strip_prefix("\"0x")?.strip_suffix('"')?;
    Some((version, u64::from_str_radix(hex, 16).ok()?))
}

/// Parses a point line; returns `(index, words)`. Any malformed or
/// truncated line — e.g. a torn final write — yields `None`. Strict in
/// the same way as [`parse_header_line`]: exactly the
/// `type`/`index`/`words` fields, each once.
///
/// Public for the same strict readers as [`parse_header_line`].
#[must_use]
pub fn parse_point_line(line: &str) -> Option<(usize, Vec<u64>)> {
    let mut ty = None;
    let mut index = None;
    let mut words = None;
    for (key, value) in top_level_fields(line.trim())? {
        let slot = match key {
            "type" => &mut ty,
            "index" => &mut index,
            "words" => &mut words,
            _ => return None,
        };
        if slot.replace(value).is_some() {
            return None;
        }
    }
    if ty? != "\"point\"" {
        return None;
    }
    let index: usize = index?.parse().ok()?;
    let body = words?.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    if !body.trim().is_empty() {
        for token in body.split(',') {
            let hex = token.trim().strip_prefix("\"0x")?.strip_suffix('"')?;
            out.push(u64::from_str_radix(hex, 16).ok()?);
        }
    }
    Some((index, out))
}

/// An open campaign checkpoint: an append handle plus the set of
/// already-completed points parsed at open time.
pub struct CheckpointFile {
    writer: Mutex<BufWriter<File>>,
}

impl CheckpointFile {
    /// Opens (or creates) the checkpoint at `path` for a campaign with
    /// the given input `fingerprint`.
    ///
    /// Returns the handle and the completed points recovered from the
    /// file. A missing file, a header mismatch (different fingerprint
    /// or version), or an unparsable header all start fresh; malformed
    /// point lines are dropped individually. The file is rewritten
    /// from the parsed state so it is well-formed after open even if
    /// the previous writer was killed mid-line.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] on filesystem errors
    /// (unwritable path, etc.).
    pub fn open(path: &Path, fingerprint: u64) -> Result<(Self, BTreeMap<usize, Vec<u64>>)> {
        let mut completed = BTreeMap::new();
        if let Ok(file) = File::open(path) {
            let mut lines = BufReader::new(file).lines();
            if let Some(Ok(first)) = lines.next() {
                if parse_header_line(&first) == Some((CHECKPOINT_VERSION, fingerprint)) {
                    for line in lines.map_while(std::io::Result::ok) {
                        if let Some((index, words)) = parse_point_line(&line) {
                            completed.insert(index, words);
                        }
                    }
                }
            }
        }
        let file = File::create(path).map_err(|e| io_err("create", &e))?;
        let mut writer = BufWriter::new(file);
        writeln!(
            writer,
            "{{\"type\":\"header\",\"version\":{CHECKPOINT_VERSION},\"fingerprint\":\"{fingerprint:#018x}\"}}"
        )
        .map_err(|e| io_err("write header", &e))?;
        for (index, words) in &completed {
            write_point(&mut writer, *index, words)?;
        }
        writer.flush().map_err(|e| io_err("flush", &e))?;
        Ok((
            Self {
                writer: Mutex::new(writer),
            },
            completed,
        ))
    }

    /// Appends one completed point and flushes, so a kill immediately
    /// after a point completes loses at most the in-flight line.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] on write failures.
    pub fn append(&self, index: usize, words: &[u64]) -> Result<()> {
        let mut writer = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        write_point(&mut writer, index, words)?;
        writer.flush().map_err(|e| io_err("flush", &e))
    }
}

fn write_point(writer: &mut BufWriter<File>, index: usize, words: &[u64]) -> Result<()> {
    let mut line = format!("{{\"type\":\"point\",\"index\":{index},\"words\":[");
    for (i, word) in words.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("\"{word:#018x}\""));
    }
    line.push_str("]}");
    writeln!(writer, "{line}").map_err(|e| io_err("write point", &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rlckit-checkpoint-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        let a = fingerprint64([1, 2, 3]);
        let b = fingerprint64([1, 2, 3]);
        let c = fingerprint64([3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(fingerprint64([]), fingerprint64([0]));
    }

    #[test]
    fn roundtrip_and_resume() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint64([7, 8, 9]);
        {
            let (ck, done) = CheckpointFile::open(&path, fp).unwrap();
            assert!(done.is_empty());
            ck.append(0, &[0x3ff0_0000_0000_0000, 42]).unwrap();
            ck.append(2, &[u64::MAX, 0]).unwrap();
        }
        let (_ck, done) = CheckpointFile::open(&path, fp).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[&0], vec![0x3ff0_0000_0000_0000, 42]);
        assert_eq!(done[&2], vec![u64::MAX, 0]);
        assert!(!done.contains_key(&1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_starts_fresh() {
        let path = temp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        {
            let (ck, _) = CheckpointFile::open(&path, 111).unwrap();
            ck.append(0, &[1]).unwrap();
        }
        let (_ck, done) = CheckpointFile::open(&path, 222).unwrap();
        assert!(done.is_empty(), "mismatched fingerprint must not resume");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_dropped_and_file_repaired() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint64([5]);
        {
            let (ck, _) = CheckpointFile::open(&path, fp).unwrap();
            ck.append(0, &[10]).unwrap();
            ck.append(1, &[11]).unwrap();
        }
        // Simulate a kill mid-write: append a torn partial line.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"type\":\"point\",\"index\":7,\"wor").unwrap();
        }
        let (_ck, done) = CheckpointFile::open(&path, fp).unwrap();
        assert_eq!(done.len(), 2, "torn line must be dropped");
        assert!(!done.contains_key(&7));
        // The rewrite must have repaired the file: reopening again
        // still sees exactly the two valid points.
        drop(_ck);
        let (_ck2, done2) = CheckpointFile::open(&path, fp).unwrap();
        assert_eq!(done, done2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_middle_lines_are_skipped() {
        let path = temp_path("malformed");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint64([1, 2]);
        std::fs::write(
            &path,
            format!(
                "{{\"type\":\"header\",\"version\":{CHECKPOINT_VERSION},\"fingerprint\":\"{fp:#018x}\"}}\n\
                 {{\"type\":\"point\",\"index\":0,\"words\":[\"0x0000000000000001\"]}}\n\
                 not json at all\n\
                 {{\"type\":\"point\",\"index\":1,\"words\":[\"0xzz\"]}}\n\
                 {{\"type\":\"point\",\"index\":2,\"words\":[\"0x0000000000000002\"]}}\n"
            ),
        )
        .unwrap();
        let (_ck, done) = CheckpointFile::open(&path, fp).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[&0], vec![1]);
        assert_eq!(done[&2], vec![2]);
        let _ = std::fs::remove_file(&path);
    }

    /// Regression test for the raw-substring parser: a torn point write
    /// spliced with the next complete line used to parse as *valid* —
    /// the torn prefix donated `"index":1`, the complete suffix donated
    /// `"words":[…]` — silently resuming point 1 with point 2's bits.
    /// This test FAILED before the field-scanner rewrite.
    #[test]
    fn torn_splice_cannot_adopt_another_points_words() {
        let spliced = "{\"type\":\"point\",\"index\":1,\"wor\
                       {\"type\":\"point\",\"index\":2,\"words\":[\"0x000000000000000b\"]}";
        assert_eq!(
            parse_point_line(spliced),
            None,
            "a spliced torn write must be dropped, not resumed with mixed fields"
        );
    }

    /// Second pre-fix failure mode: the old parser took the *first*
    /// `"index":` substring anywhere in the line, so an index-shaped
    /// field inside a nested container shadowed the real one (the line
    /// below used to parse as point 7). The strict parser rejects the
    /// unknown `meta` field outright.
    #[test]
    fn nested_index_cannot_shadow_the_top_level_field() {
        let line = "{\"type\":\"point\",\"meta\":{\"index\":7},\"index\":3,\
                    \"words\":[\"0x0000000000000001\"]}";
        assert_eq!(parse_point_line(line), None);
    }

    #[test]
    fn duplicate_fields_are_rejected() {
        assert_eq!(
            parse_point_line("{\"type\":\"point\",\"index\":1,\"index\":2,\"words\":[]}"),
            None
        );
        assert_eq!(
            parse_header_line(
                "{\"type\":\"header\",\"version\":1,\"version\":2,\
                 \"fingerprint\":\"0x0000000000000000\"}"
            ),
            None
        );
    }

    /// Seeded adversarial fuzz of the point parser: random truncations,
    /// splices and byte smudges of valid lines must never panic, and
    /// whenever two *distinct* valid lines are spliced the result must
    /// not parse at all — a spliced parse is exactly the mixed-fields
    /// resume corruption the rewrite fixed.
    #[test]
    fn mangled_point_lines_never_parse_as_spliced_points() {
        use rlckit_check::{gen, Check};
        let valid_line = |index: usize, words: &[u64]| {
            let mut line = format!("{{\"type\":\"point\",\"index\":{index},\"words\":[");
            for (i, word) in words.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!("\"{word:#018x}\""));
            }
            line.push_str("]}");
            line
        };
        Check::new().cases(200).run(
            &gen::tuple4(
                gen::usize_range(0, 5_000),
                gen::vec_in(gen::usize_range(0, usize::MAX), 0, 5).map(|v| {
                    v.into_iter().map(|w| w as u64).collect::<Vec<u64>>()
                }),
                gen::usize_range(0, 60), // truncation point
                gen::usize_range(0, 4),  // mangling mode
            ),
            |(index, words, cut, mode)| {
                let line = valid_line(*index, words);
                // The untouched line must round-trip exactly.
                assert_eq!(
                    parse_point_line(&line),
                    Some((*index, words.clone())),
                    "writer output must parse back bit-for-bit"
                );
                let cut = (*cut).min(line.len().saturating_sub(1));
                let mangled = match mode {
                    // Torn write: truncated mid-line.
                    0 => line[..cut].to_string(),
                    // Splice: torn prefix + a different complete line.
                    1 => format!("{}{}", &line[..cut], valid_line(index + 1, &[0xdead])),
                    // Smudge: one byte overwritten with garbage.
                    2 => {
                        let mut s = line.into_bytes();
                        s[cut] = b'\x07';
                        String::from_utf8_lossy(&s).into_owned()
                    }
                    // Doubled line (lost newline between two writes).
                    _ => format!("{}{}", line, valid_line(index + 1, &[1])),
                };
                // Never panic; and no mangling may yield a point whose
                // words differ from BOTH source lines' words (that
                // would be a fields-mixed resume). Stricter and simpler:
                // a parse is only acceptable if it reproduces one of
                // the two source lines exactly.
                if let Some((i, w)) = parse_point_line(&mangled) {
                    let first = (i, w.clone()) == (*index, words.clone());
                    let second = matches!(*mode, 1) && (i, w.as_slice()) == (index + 1, &[0xdead][..]);
                    assert!(
                        first || second,
                        "mangled line (mode {mode}, cut {cut}) parsed as a mixed point: \
                         ({i}, {w:?}) from {mangled:?}"
                    );
                }
            },
        );
    }

    #[test]
    fn header_parse_rejects_garbage() {
        assert!(parse_header_line("").is_none());
        assert!(parse_header_line("{\"type\":\"point\",\"index\":0}").is_none());
        assert_eq!(
            parse_header_line(
                "{\"type\":\"header\",\"version\":1,\"fingerprint\":\"0x00000000000000ff\"}"
            ),
            Some((1, 255))
        );
    }
}
