//! Latency is recorded by default: a daemon that nobody asked to trace
//! still answers `stats` with live percentiles. This binary forces
//! tracing off for its whole process, so it holds one test.

use rlckit_serve::{ServeConfig, Server};

/// The `"<key>":<digits>` value of a flat JSON response line.
fn field(line: &str, key: &str) -> u64 {
    let pattern = format!("\"{key}\":");
    let start = line
        .find(&pattern)
        .unwrap_or_else(|| panic!("{key} in {line}"))
        + pattern.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap_or_else(|_| panic!("{key} in {line}"))
}

#[test]
fn stats_reports_query_latency_with_tracing_off() {
    rlckit_trace::set_enabled(false);
    let server = Server::new(ServeConfig::default());
    let input = "{\"id\":1,\"op\":\"optimum\",\"node\":\"100nm\",\"l_nh_mm\":1.8}\n\
                 {\"id\":2,\"op\":\"lcrit\",\"node\":\"250nm\",\"l_nh_mm\":0.5}\n\
                 {\"id\":3,\"op\":\"stats\"}\n";
    let mut out = Vec::new();
    server.serve(input.as_bytes(), &mut out).expect("session");
    let text = String::from_utf8(out).expect("utf-8");
    let stats = text
        .lines()
        .find(|l| l.contains("\"id\":3"))
        .unwrap_or_else(|| panic!("no stats answer in {text}"));
    assert!(!rlckit_trace::enabled(), "tracing must stay off");
    assert!(field(stats, "p50_ns") > 0, "default p50 is 0: {stats}");
    assert!(field(stats, "p99_ns") >= field(stats, "p50_ns"), "{stats}");
}
