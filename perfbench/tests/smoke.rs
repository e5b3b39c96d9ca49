//! Tiny-size smoke run: every metric `BENCHMARK.json` names is printed
//! with its unit by every workload it names, untraced and traced; the
//! first line is the host fingerprint, a traced run prints each
//! workload's counts line, and the last line is the result record.

use std::process::Command;

fn benchmark_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root")
}

/// The string value of `key` in each `{…}` entry of one array section.
fn declared(section: &str, key: &str) -> Vec<String> {
    let text = benchmark_json();
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("string ends");
            rest[open..close].to_string()
        })
        .collect()
}

/// The unit printed for `name` in a result record, if it is there.
fn printed_unit(record: &str, name: &str) -> Option<String> {
    let at = record.find(&format!("\"{name}\":{{\"value\":"))?;
    let rest = &record[at..];
    let unit = rest.find("\"unit\":\"")? + 8;
    Some(rest[unit..unit + rest[unit..].find('"')?].to_string())
}

fn check(trace: &str, section: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "all",
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            trace,
            "--tiny",
        ])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "perfbench --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines[0].starts_with("{\"host\":{\"nproc\":"),
        "no host fingerprint: {}",
        lines[0]
    );
    let last = lines.last().expect("output");
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "bad record: {last}"
    );

    let names = declared(section, "name");
    let units = declared(section, "unit");
    assert!(!names.is_empty());
    let workloads = declared("workloads", "name");
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        let record = lines
            .iter()
            .find(|l| l.starts_with(&format!("{{\"workload\":\"{workload}\",\"result\":")))
            .unwrap_or_else(|| panic!("no record for {workload}"));
        if trace == "1" {
            assert!(
                lines
                    .iter()
                    .any(|l| l.starts_with(&format!("{{\"workload\":\"{workload}\",\"counts\":{{"))),
                "{workload}: no counts line"
            );
        }
        for (name, unit) in names.iter().zip(&units) {
            assert_eq!(
                printed_unit(record, name).as_deref(),
                Some(unit.as_str()),
                "{workload}: {name} missing or with the wrong unit"
            );
        }
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    check("0", "end_to_end");
}

#[test]
fn every_per_layer_metric_is_printed_with_its_unit() {
    check("1", "per_layer");
}
