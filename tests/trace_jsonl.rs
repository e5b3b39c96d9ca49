//! Guard for the `RLCKIT_TRACE=jsonl` sink format: every line the sink
//! writes must parse as a standalone JSON object carrying only the
//! documented deterministic keys — metrics hold no wall clock, so no
//! key ends in `_ns`. The flight-recorder event stream
//! (`rlckit_trace::events::jsonl_of`) is where wall clock lives, under
//! `t_ns` only: downstream tooling (and the serve determinism smoke)
//! strips `*_ns` and diffs the rest.
//!
//! The sink has no serde dependency (hermetic build), so neither does
//! this guard: it carries a purpose-built minimal JSON reader.

use rlckit_trace::{counter, histogram};

/// Keys whose values are pure functions of the recorded inputs.
const DETERMINISTIC_KEYS: [&str; 8] = [
    "type", "name", "value", "count", "sum", "min", "max", "buckets",
];

/// A parsed JSON value — just enough structure for the guard.
#[derive(Debug, PartialEq)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

/// Minimal strict JSON reader over one line.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(line: &'a str) -> Self {
        Self {
            bytes: line.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(c) => return Err(format!("unsupported escape \\{}", c as char)),
                        None => return Err("dangling escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through unescaped.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|c| c != b'"' && c != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

/// Parses one JSONL line into its top-level object, failing on
/// trailing garbage.
fn parse_line(line: &str) -> Vec<(String, Json)> {
    let mut r = Reader::new(line);
    let value = r.value().unwrap_or_else(|e| panic!("{e} in {line:?}"));
    r.skip_ws();
    assert_eq!(r.pos, r.bytes.len(), "trailing bytes in {line:?}");
    match value {
        Json::Object(members) => members,
        other => panic!("line is not an object: {other:?} in {line:?}"),
    }
}

#[test]
fn jsonl_sink_is_json_lines_with_only_documented_nondeterminism() {
    // One test owns the whole check: trace metrics are process-global,
    // so splitting this into parallel test fns would let one fn's
    // recording race another fn's render-twice comparison.
    counter!("jsonl.guard.counter").add(3);
    histogram!("jsonl.guard.iterations").observe(4);
    histogram!("jsonl.guard.iterations").observe(7);
    // A hostile label exercises the string escaper end to end.
    counter!("jsonl.guard.\"quoted\\path\"").incr();

    let first = rlckit_trace::jsonl_string();
    assert!(!first.is_empty(), "recorded metrics must serialize");

    for line in first.lines() {
        let members = parse_line(line);
        for (key, _) in &members {
            assert!(
                DETERMINISTIC_KEYS.contains(&key.as_str()),
                "undocumented key {key:?} in {line:?}"
            );
            assert!(
                !key.ends_with("_ns"),
                "wall clock in a metric record: {line:?}"
            );
        }
        let kind = members
            .iter()
            .find_map(|(k, v)| (k == "type").then_some(v))
            .unwrap_or_else(|| panic!("missing type in {line:?}"));
        assert!(
            matches!(kind, Json::Str(s) if s == "counter" || s == "histogram"),
            "unknown record type in {line:?}"
        );
    }

    // The escaped label must round-trip through parse exactly.
    assert!(
        first.lines().any(|l| {
            parse_line(l)
                .iter()
                .any(|(k, v)| k == "name" && *v == Json::Str("jsonl.guard.\"quoted\\path\"".into()))
        }),
        "escaped metric name did not round-trip"
    );

    // Nothing recorded in between: the second render is the same bytes.
    assert_eq!(
        first,
        rlckit_trace::jsonl_string(),
        "metric JSONL drifted between renders"
    );
}

/// Keys an `"event"` line may carry; `t_ns` is the only wall-clock one.
const EVENT_KEYS: [&str; 6] = ["type", "trace_id", "scope", "kind", "value", "t_ns"];

#[test]
fn event_stream_jsonl_has_only_t_ns_nondeterminism() {
    rlckit_trace::set_enabled(true);
    rlckit_trace::event!(
        0x4A47_u64,
        "jsonl.guard.event",
        rlckit_trace::events::EventKind::Solve,
        7
    );
    let text = rlckit_trace::events::jsonl_of(&rlckit_trace::events::collect());

    let mut saw_ours = false;
    for line in text.lines() {
        let members = parse_line(line);
        let kind = members
            .iter()
            .find_map(|(k, v)| (k == "type").then_some(v))
            .unwrap_or_else(|| panic!("missing type in {line:?}"));
        match kind {
            Json::Str(s) if s == "event" => {
                for (key, _) in &members {
                    assert!(
                        EVENT_KEYS.contains(&key.as_str()),
                        "undocumented event key {key:?} in {line:?}"
                    );
                }
                for (key, _) in members.iter().filter(|(k, _)| k.ends_with("_ns")) {
                    assert_eq!(key, "t_ns", "wall clock outside t_ns in {line:?}");
                }
                if line.contains("\"scope\":\"jsonl.guard.event\"") {
                    assert!(line.contains("\"trace_id\":19015"), "{line}");
                    assert!(line.contains("\"kind\":\"solve\""), "{line}");
                    assert!(line.contains("\"value\":7"), "{line}");
                    saw_ours = true;
                }
            }
            Json::Str(s) if s == "events_dropped" => {
                for (key, _) in &members {
                    assert!(
                        key == "type" || key == "value",
                        "undocumented drop-footer key {key:?} in {line:?}"
                    );
                }
            }
            other => panic!("unknown event-stream record type {other:?} in {line:?}"),
        }
    }
    assert!(saw_ours, "the recorded guard event must serialize:\n{text}");
}

#[test]
fn reader_selftest_rejects_malformed_lines() {
    // Pure-parser self-test (touches no global metrics): a scanner
    // regression must not silently disarm the guard above.
    assert!(Reader::new("{\"a\":1}").value().is_ok());
    assert!(Reader::new("{\"a\":[0,1,2],\"b\":\"x\\\"y\"}").value().is_ok());
    assert!(Reader::new("{\"a\":}").value().is_err());
    assert!(Reader::new("{\"a\" 1}").value().is_err());
    assert!(Reader::new("{\"a\":tru}").value().is_err());
    assert!(Reader::new("\"unterminated").value().is_err());
}
