//! `--report-json` carries every section `--report` prints: each rendered
//! section line maps to one key of the versioned JSON object
//! `{"version":1,"stats":{...},"report":{...}}`, in the member that owns
//! it. A section added to either render without a JSON key fails here.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One section of the trace report: its line prefix and its key in the
/// `report` member.
const REPORT_SECTIONS: [(&str, &str); 11] = [
    ("per-phase wall clock:", "phases"),
    ("node closes by outcome:", "node_outcomes"),
    ("node depth", "node_depth"),
    ("iterations/LP", "lp_iterations"),
    ("warm starts by phase:", "warm_by_phase"),
    ("explanations:", "explain_runs"),
    ("ii attempts:", "ii_attempts"),
    ("fallback rungs:", "rungs"),
    ("portfolio:", "sat_wins"),
    ("certificates:", "certified_ok"),
    ("trace span:", "wall_us"),
];

/// Report sections whose following indented lines are table rows.
const TABLES: [&str; 2] = ["per-phase wall clock:", "warm starts by phase:"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// Runs the CLI with `--report --report-json` and returns the rendered
/// report lines and the JSON line.
fn report_and_json(args: &[&str]) -> (Vec<String>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_optimod"))
        .args(args)
        .args(["--report", "--report-json"])
        .current_dir(repo_root())
        .output()
        .expect("optimod runs");
    assert_eq!(out.status.code(), Some(0), "{args:?} must schedule");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout
        .lines()
        .skip_while(|l| *l != "--- solve report ---")
        .skip(1);
    let report: Vec<String> = lines
        .by_ref()
        .take_while(|l| !l.starts_with('{'))
        .map(str::to_string)
        .collect();
    let json = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("a JSON line")
        .to_string();
    (report, json)
}

/// Splits the versioned object into its `stats` and `report` members.
fn members(json: &str) -> (&str, &str) {
    let body = json
        .strip_prefix("{\"version\":1,\"stats\":")
        .unwrap_or_else(|| panic!("JSON must open with version 1 then stats: {json}"));
    let (stats, report) = body
        .split_once(",\"report\":")
        .unwrap_or_else(|| panic!("JSON has no report member: {json}"));
    (stats, report)
}

/// Asserts every rendered section has its key; returns the sections seen
/// (stats section names and `section.key` counters, then report
/// prefixes).
fn assert_every_section_has_a_key(args: &[&str]) -> Vec<String> {
    let (report, json) = report_and_json(args);
    let (stats, trace) = members(&json);
    assert_eq!(report.first().map(String::as_str), Some("solver effort:"));
    let mut seen = Vec::new();
    let mut lines = report[1..].iter().peekable();
    // The stats section: `  <section>: <key> <value>, ...`, one line per
    // section, every counter under its JSON key.
    while let Some(line) = lines.next_if(|l| l.starts_with("  ")) {
        let (section, counters) = line.trim_start().split_once(": ").expect("section line");
        for counter in counters.split(", ") {
            let (key, value) = counter.split_once(' ').expect("key value");
            assert!(
                stats.contains(&format!("\"{key}\":{value}")),
                "{args:?}: stats line {line:?} disagrees with {stats}"
            );
            seen.push(format!("{section}.{key}"));
        }
        seen.push(section.to_string());
    }
    let mut in_table = false;
    for line in lines {
        if in_table && line.starts_with("  ") {
            continue;
        }
        let &(prefix, key) = REPORT_SECTIONS
            .iter()
            .find(|(p, _)| line.starts_with(p))
            .unwrap_or_else(|| panic!("{args:?}: rendered line {line:?} maps to no JSON key"));
        assert!(
            trace.contains(&format!("\"{key}\":")),
            "{args:?}: section {prefix:?} has no \"{key}\" in {trace}"
        );
        in_table = TABLES.contains(&prefix);
        seen.push(prefix.to_string());
    }
    seen
}

#[test]
fn report_json_carries_every_rendered_section() {
    let seen = assert_every_section_has_a_key(&[
        "examples/figure1.loop",
        "--objective",
        "minreg",
        "--threads",
        "1",
    ]);
    for section in [
        "presolve",
        "time.factor_us",
        "certificates:",
        "node closes by outcome:",
        "fallback rungs:",
        "node depth",
        "iterations/LP",
    ] {
        assert!(
            seen.iter().any(|s| s == section),
            "minreg run did not render {section:?}"
        );
    }
    let seen = assert_every_section_has_a_key(&[
        "examples/figure1.loop",
        "--objective",
        "noobj",
        "--portfolio",
        "--threads",
        "1",
    ]);
    for section in ["sat", "portfolio:"] {
        assert!(
            seen.iter().any(|s| s == section),
            "portfolio run did not render {section:?}"
        );
    }
}
