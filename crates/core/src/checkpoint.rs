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
//!
//! The codec is canonical: the writer emits exactly one byte image per
//! line, and [`parse_header_line`] / [`parse_point_line`] accept exactly
//! that image and nothing else — fixed field order, a decimal integer
//! without leading zeros, every word as `"0x"` plus 16 lowercase hex
//! digits, no whitespace, nothing after the closing `}`. A torn,
//! spliced or smudged line can therefore only parse if it reproduces a
//! line the writer could have written. Each point costs one `write` of
//! its rendered line, so file growth stays a per-point heartbeat and a
//! kill loses at most the in-flight point.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write as _;
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

const HEX: &[u8; 16] = b"0123456789abcdef";

/// The inverse of [`HEX`]: each lowercase hex digit's value, `0xff` for
/// every other byte. A table, not a branch per digit — random hex
/// digits defeat the branch predictor.
const NIBBLE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Appends `word` as `"0x` + 16 lowercase hex digits + `"`.
fn push_word(out: &mut Vec<u8>, word: u64) {
    let mut quoted = *b"\"0x0000000000000000\"";
    for (i, digit) in quoted[3..19].iter_mut().enumerate() {
        *digit = HEX[(word >> (60 - 4 * i)) as usize & 0xf];
    }
    out.extend_from_slice(&quoted);
}

/// Appends the header line (newline included) that
/// [`parse_header_line`] inverts.
fn write_header(out: &mut Vec<u8>, version: u32, fingerprint: u64) {
    write!(out, "{{\"type\":\"header\",\"version\":{version},\"fingerprint\":")
        .expect("writing to a Vec cannot fail");
    push_word(out, fingerprint);
    out.extend_from_slice(b"}\n");
}

/// Appends one point line (newline included) that [`parse_point_line`]
/// inverts.
fn write_point(out: &mut Vec<u8>, index: usize, words: &[u64]) {
    write!(out, "{{\"type\":\"point\",\"index\":{index},\"words\":[")
        .expect("writing to a Vec cannot fail");
    for (i, &word) in words.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_word(out, word);
    }
    out.extend_from_slice(b"]}\n");
}

/// A read position inside one line; every step either consumes exactly
/// the canonical bytes it expects or fails.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn literal(&mut self, expected: &[u8]) -> Option<()> {
        self.0 = self.0.strip_prefix(expected)?;
        Some(())
    }

    /// A decimal integer: `0`, or a nonzero digit followed by digits.
    fn decimal(&mut self) -> Option<u64> {
        let len = self.0.iter().take_while(|b| b.is_ascii_digit()).count();
        let (digits, rest) = self.0.split_at(len);
        if digits.is_empty() || (digits.len() > 1 && digits[0] == b'0') {
            return None;
        }
        let mut n: u64 = 0;
        for &d in digits {
            n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
        }
        self.0 = rest;
        Some(n)
    }

    /// A quoted word: `"0x` + exactly 16 lowercase hex digits + `"`.
    fn word(&mut self) -> Option<u64> {
        let (quoted, rest) = self.0.split_first_chunk::<20>()?;
        if !quoted.starts_with(b"\"0x") || quoted[19] != b'"' {
            return None;
        }
        let mut word = 0u64;
        let mut invalid = 0u8;
        for &d in &quoted[3..19] {
            let nibble = NIBBLE[usize::from(d)];
            invalid |= nibble;
            word = word << 4 | u64::from(nibble & 0xf);
        }
        if invalid & 0xf0 != 0 {
            return None;
        }
        self.0 = rest;
        Some(word)
    }

    fn end(&self) -> Option<()> {
        self.0.is_empty().then_some(())
    }
}

/// The `\n`-separated lines of a checkpoint file's bytes, without their
/// newlines. A final line without a newline (a torn write) is yielded;
/// the empty tail after a final newline is not.
pub fn split_lines(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    bytes
        .strip_suffix(b"\n")
        .unwrap_or(bytes)
        .split(|&b| b == b'\n')
}

/// Parses a header line (without its newline); returns `(version,
/// fingerprint)`. Accepts exactly the bytes the writer emits for some
/// version — any other version still parses, so a reader can tell a
/// stale file from a mangled one.
///
/// Public for consumers that read checkpoint-format files *strictly*
/// (the `rlckit-campaign` merge refuses a shard file whose lines this
/// parser rejects, instead of silently dropping them the way resume
/// does).
#[must_use]
pub fn parse_header_line<L: AsRef<[u8]> + ?Sized>(line: &L) -> Option<(u32, u64)> {
    let mut c = Cursor(line.as_ref());
    c.literal(b"{\"type\":\"header\",\"version\":")?;
    let version = u32::try_from(c.decimal()?).ok()?;
    c.literal(b",\"fingerprint\":")?;
    let fingerprint = c.word()?;
    c.literal(b"}")?;
    c.end()?;
    Some((version, fingerprint))
}

/// Parses a point line (without its newline); returns `(index, words)`.
/// Accepts exactly the bytes the writer emits; any other line — a torn
/// final write, a splice, a smudged byte — yields `None`.
///
/// Public for the same strict readers as [`parse_header_line`].
#[must_use]
pub fn parse_point_line<L: AsRef<[u8]> + ?Sized>(line: &L) -> Option<(usize, Vec<u64>)> {
    let mut c = Cursor(line.as_ref());
    c.literal(b"{\"type\":\"point\",\"index\":")?;
    let index = usize::try_from(c.decimal()?).ok()?;
    c.literal(b",\"words\":[")?;
    let mut words = Vec::with_capacity(c.0.len() / 21);
    if !c.0.starts_with(b"]") {
        loop {
            words.push(c.word()?);
            if c.literal(b",").is_none() {
                break;
            }
        }
    }
    c.literal(b"]}")?;
    c.end()?;
    Some((index, words))
}

/// An open campaign checkpoint: an append handle plus the set of
/// already-completed points parsed at open time.
pub struct CheckpointFile {
    writer: Mutex<Writer>,
}

/// The append handle and the reused buffer each line is rendered into.
struct Writer {
    file: File,
    line: Vec<u8>,
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
        if let Ok(bytes) = std::fs::read(path) {
            let mut lines = split_lines(&bytes);
            if lines.next().and_then(parse_header_line) == Some((CHECKPOINT_VERSION, fingerprint)) {
                for line in lines {
                    if let Some((index, words)) = parse_point_line(line) {
                        completed.insert(index, words);
                    }
                }
            }
        }
        let mut image = Vec::new();
        write_header(&mut image, CHECKPOINT_VERSION, fingerprint);
        for (index, words) in &completed {
            write_point(&mut image, *index, words);
        }
        let mut file = File::create(path).map_err(|e| io_err("create", &e))?;
        file.write_all(&image).map_err(|e| io_err("rewrite", &e))?;
        file.flush().map_err(|e| io_err("flush", &e))?;
        Ok((
            Self {
                writer: Mutex::new(Writer {
                    file,
                    line: Vec::new(),
                }),
            },
            completed,
        ))
    }

    /// Appends one completed point with a single `write` of its
    /// rendered line, so a kill immediately after a point completes
    /// loses at most the in-flight line.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] on write failures.
    pub fn append(&self, index: usize, words: &[u64]) -> Result<()> {
        let mut writer = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Writer { file, line } = &mut *writer;
        line.clear();
        write_point(line, index, words);
        file.write_all(line)
            .map_err(|e| io_err("write point", &e))?;
        file.flush().map_err(|e| io_err("flush", &e))
    }
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

    /// Resume must drop a line that is not valid UTF-8 on its own and
    /// keep reading: a line-iterator reader used to stop at the first
    /// such line, losing every later point and then rewriting the file
    /// without them.
    #[test]
    fn non_utf8_line_does_not_end_resume() {
        let path = temp_path("non-utf8");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint64([4, 2]);
        let mut bytes = Vec::new();
        write_header(&mut bytes, CHECKPOINT_VERSION, fp);
        write_point(&mut bytes, 0, &[10]);
        bytes.extend_from_slice(b"{\"type\":\"point\",\"index\":1,\"words\":[\xff\xfe]}\n");
        write_point(&mut bytes, 2, &[12]);
        std::fs::write(&path, &bytes).unwrap();
        let (ck, done) = CheckpointFile::open(&path, fp).unwrap();
        assert_eq!(done.keys().copied().collect::<Vec<_>>(), [0, 2]);
        assert_eq!(done[&2], vec![12]);
        drop(ck);
        let (_ck, reopened) = CheckpointFile::open(&path, fp).unwrap();
        assert_eq!(done, reopened, "the rewrite must keep the later point");
        let _ = std::fs::remove_file(&path);
    }

    fn point_image(index: usize, words: &[u64]) -> String {
        let mut out = Vec::new();
        write_point(&mut out, index, words);
        String::from_utf8(out).unwrap()
    }

    /// The writer's exact bytes, pinned as literals: the canonical image
    /// the parsers invert and the files every earlier version wrote.
    #[test]
    fn writer_emits_the_golden_lines() {
        let golden: [(usize, &[u64], &str); 5] = [
            (0, &[], "{\"type\":\"point\",\"index\":0,\"words\":[]}\n"),
            (
                0,
                &[0],
                "{\"type\":\"point\",\"index\":0,\"words\":[\"0x0000000000000000\"]}\n",
            ),
            (
                7,
                &[1],
                "{\"type\":\"point\",\"index\":7,\"words\":[\"0x0000000000000001\"]}\n",
            ),
            (
                8_503,
                &[u64::MAX, 0x3ff0_0000_0000_0000],
                "{\"type\":\"point\",\"index\":8503,\"words\":\
                 [\"0xffffffffffffffff\",\"0x3ff0000000000000\"]}\n",
            ),
            (
                usize::MAX,
                &[0x3ff0_0000_0000_0000, 1, 0],
                "{\"type\":\"point\",\"index\":18446744073709551615,\"words\":\
                 [\"0x3ff0000000000000\",\"0x0000000000000001\",\"0x0000000000000000\"]}\n",
            ),
        ];
        for (index, words, expected) in golden {
            let line = point_image(index, words);
            assert_eq!(line, expected);
            assert_eq!(
                parse_point_line(expected.trim_end_matches('\n')),
                Some((index, words.to_vec()))
            );
        }
        let mut header = Vec::new();
        write_header(&mut header, 2, 0x00ab_cdef_0123_4567);
        assert_eq!(
            header,
            b"{\"type\":\"header\",\"version\":2,\"fingerprint\":\"0x00abcdef01234567\"}\n"
        );
        assert_eq!(
            parse_header_line(&header[..header.len() - 1]),
            Some((2, 0x00ab_cdef_0123_4567))
        );
    }

    /// Near-misses of the canonical image that a lenient JSON reader
    /// would accept; the parsers must refuse every one.
    #[test]
    fn parsers_reject_everything_but_the_canonical_image() {
        let w = "\"0x0000000000000001\"";
        for line in [
            "{\"type\":\"point\",\"index\":1,\"words\":[\"0x000000000000000A\"]}",
            "{\"type\":\"point\",\"index\":1,\"words\":[\"0X0000000000000001\"]}",
            "{\"type\":\"point\",\"index\":1,\"words\":[\"0x000000000000001\"]}",
            "{\"type\":\"point\",\"index\":1,\"words\":[\"0x00000000000000001\"]}",
            "{\"type\":\"point\",\"index\":1,\"words\":[\"+0x000000000000001\"]}",
            "{\"type\":\"point\",\"index\":+1,\"words\":[]}",
            "{\"type\":\"point\",\"index\":01,\"words\":[]}",
            "{\"type\":\"point\",\"index\":-1,\"words\":[]}",
            "{\"type\":\"point\",\"index\":18446744073709551616,\"words\":[]}",
            "{\"type\":\"point\", \"index\":1,\"words\":[]}",
            "{\"type\":\"point\",\"index\":1,\"words\":[\"0x0000000000000001\", \"0x0000000000000001\"]}",
            " {\"type\":\"point\",\"index\":1,\"words\":[]}",
            "{\"type\":\"point\",\"index\":1,\"words\":[]} ",
            "{\"type\":\"point\",\"index\":1,\"words\":[]}\r",
            "{\"type\":\"point\",\"index\":1,\"words\":[]}x",
            "{\"type\":\"point\",\"index\":1,\"words\":[]}}",
            "{\"type\":\"point\",\"index\":1,\"words\":[,]}",
            "{\"type\":\"point\",\"index\":1,\"words\":[\"0x0000000000000001\",]}",
            "{\"index\":1,\"type\":\"point\",\"words\":[]}",
            "{\"type\":\"point\",\"words\":[],\"index\":1}",
            "{\"type\":\"point\",\"index\":1,\"index\":1,\"words\":[]}",
            "{\"type\":\"point\",\"index\":1,\"words\":[],\"words\":[]}",
            "{\"type\":\"point\",\"index\":1,\"words\":[]",
            "",
        ] {
            assert_eq!(parse_point_line(line), None, "accepted {line:?}");
        }
        assert_eq!(
            parse_point_line(&format!(
                "{{\"type\":\"point\",\"index\":1,\"words\":[{w},{w}]}}"
            )),
            Some((1, vec![1, 1]))
        );
        for line in [
            "{\"type\":\"header\",\"version\":2,\"fingerprint\":\"0x00000000000000FF\"}",
            "{\"type\":\"header\",\"version\":2,\"fingerprint\":\"0x0000000000000ff\"}",
            "{\"type\":\"header\",\"version\":+2,\"fingerprint\":\"0x00000000000000ff\"}",
            "{\"type\":\"header\",\"version\":02,\"fingerprint\":\"0x00000000000000ff\"}",
            "{\"type\":\"header\",\"version\":4294967296,\"fingerprint\":\"0x00000000000000ff\"}",
            "{\"type\":\"header\", \"version\":2,\"fingerprint\":\"0x00000000000000ff\"}",
            "{\"type\":\"header\",\"version\":2,\"fingerprint\":\"0x00000000000000ff\"} ",
            "{\"type\":\"header\",\"version\":2,\"fingerprint\":\"0x00000000000000ff\"}x",
            "{\"type\":\"header\",\"fingerprint\":\"0x00000000000000ff\",\"version\":2}",
            "{\"version\":2,\"type\":\"header\",\"fingerprint\":\"0x00000000000000ff\"}",
            "{\"type\":\"header\",\"version\":2,\"version\":2,\"fingerprint\":\"0x00000000000000ff\"}",
        ] {
            assert_eq!(parse_header_line(line), None, "accepted {line:?}");
        }
        assert_eq!(
            parse_header_line(
                "{\"type\":\"header\",\"version\":4294967295,\"fingerprint\":\"0x00000000000000ff\"}"
            ),
            Some((u32::MAX, 255))
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
