//! Reconciliation test for the CLI exit-code contract (ISSUE satellite):
//! the table in README.md, the `exit codes:` line in the binary's usage
//! text, the prose in DESIGN.md, and the codes the binary *actually*
//! returns must all agree on one canonical mapping. Any future drift —
//! a new `Failure` variant, a README edit, a renumbering — fails here.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The canonical mapping, mirroring `Failure::exit_code` in
/// `crates/cli/src/main.rs` (1 is reserved: it is what an escaped panic
/// produces, and must never be documented as a deliberate outcome).
const CANONICAL: [(u8, &str); 8] = [
    (0, "success"),
    (2, "usage"),
    (3, "parse/validation"),
    (4, "scheduling"),
    (5, "I/O"),
    (6, "certification"),
    (7, "error-severity finding"),
    (8, "daemon/transport"),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_optimod"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("optimod runs")
}

#[test]
fn readme_table_matches_canonical_mapping() {
    let readme = std::fs::read_to_string(repo_root().join("README.md")).expect("README.md");
    // Rows look like `| 8 | daemon/transport |`.
    let mut documented: Vec<(u8, String)> = Vec::new();
    for line in readme.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if let [_, code, meaning, _] = cells.as_slice() {
            if let Ok(code) = code.parse::<u8>() {
                documented.push((code, meaning.to_string()));
            }
        }
    }
    assert_eq!(
        documented.len(),
        CANONICAL.len(),
        "README exit-code table must document exactly the canonical codes, got {documented:?}"
    );
    for ((code, meaning), (want_code, want_meaning)) in documented.iter().zip(CANONICAL) {
        assert_eq!(*code, want_code, "README table order/code drift");
        assert_eq!(
            meaning, want_meaning,
            "README meaning for exit code {code} drifted"
        );
    }
}

#[test]
fn usage_text_lists_every_canonical_code() {
    let out = run(&[]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "bare invocation is a usage error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find(|l| l.starts_with("exit codes:"))
        .unwrap_or_else(|| panic!("usage text lacks an exit-codes line:\n{stderr}"));
    for (code, meaning) in CANONICAL {
        if code == 0 {
            continue; // "0 success" is listed too, but the loop covers it
        }
        assert!(
            line.contains(&format!("{code} ")),
            "usage exit-codes line is missing code {code} ({meaning}): {line}"
        );
    }
    assert!(line.contains("0 success"), "usage must document 0: {line}");
    assert!(
        !line.contains(" 1 ") && !line.contains(": 1 "),
        "exit code 1 (escaped panic) must not be documented as deliberate: {line}"
    );
}

#[test]
fn design_md_exit_code_mentions_are_canonical() {
    let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md");
    let mut mentions = 0;
    for (pos, _) in design.match_indices("exit code") {
        let rest = &design[pos + "exit code".len()..];
        if let Some(d) = rest
            .trim_start()
            .chars()
            .next()
            .filter(char::is_ascii_digit)
        {
            let code = d as u8 - b'0';
            assert!(
                CANONICAL.iter().any(|&(c, _)| c == code),
                "DESIGN.md mentions undocumented exit code {code}"
            );
            mentions += 1;
        }
    }
    assert!(
        mentions > 0,
        "DESIGN.md should document at least one exit code"
    );
}

#[test]
fn binary_returns_the_documented_codes() {
    // 0: success on the checked-in golden kernel.
    let ok = run(&["examples/figure1.loop"]);
    assert_eq!(
        ok.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // 2: usage error (unknown flag).
    assert_eq!(run(&["--no-such-flag"]).status.code(), Some(2));

    // 3: parse error (undeclared operation in a flow).
    let bad = repo_root().join("target/exit-codes-bad.loop");
    std::fs::write(&bad, "machine example-3fu\nop a load\nflow a b 0\n").expect("write");
    let parse = run(&[bad.to_str().expect("utf8")]);
    assert_eq!(parse.status.code(), Some(3));
    let _ = std::fs::remove_file(&bad);

    // 5: I/O error (missing file).
    assert_eq!(
        run(&["definitely-no-such-file.loop"]).status.code(),
        Some(5)
    );

    // 7: error-severity analyzer finding is covered by the analyzer's own
    // integration tests; 4 and 6 need a timeout/forged certificate and
    // are covered in crates/core and crates/verify. Here we pin the
    // daemon/transport code end to end:
    // 8: client pointed at a socket nobody serves.
    let gone = run(&[
        "client",
        "examples/figure1.loop",
        "--socket",
        "/tmp/optimod-exit-codes-no-daemon.sock",
        "--retries",
        "0",
    ]);
    assert_eq!(
        gone.status.code(),
        Some(8),
        "stderr: {}",
        String::from_utf8_lossy(&gone.stderr)
    );
}

#[test]
fn explain_subcommand_returns_the_finding_code_on_infeasible_ii() {
    // `explain` reports certified infeasibility as error-severity findings,
    // so a genuinely infeasible II exits 7 — the same code as `lint`.
    let out = run(&["explain", "examples/figure1.loop", "--ii", "1"]);
    assert_eq!(
        out.status.code(),
        Some(7),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // The repro file lands in the working directory; don't litter the repo.
    let _ = std::fs::remove_file(repo_root().join("optimod-infeasible.loop"));

    // A feasible II has nothing to explain and succeeds.
    let ok = run(&["explain", "examples/figure1.loop", "--ii", "2"]);
    assert_eq!(
        ok.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // The explanation engine has no MaxLive term: at a cap of 6, figure1
    // has no schedule at II 2, yet the engine alone would call II 2
    // feasible. `explain` refuses the cap as a usage error instead.
    let capped = run(&[
        "explain",
        "examples/figure1.loop",
        "--registers",
        "6",
        "--ii",
        "2",
    ]);
    let stdout = String::from_utf8_lossy(&capped.stdout);
    let stderr = String::from_utf8_lossy(&capped.stderr);
    assert_eq!(
        capped.status.code(),
        Some(2),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert!(!stdout.contains("feasible"), "stdout: {stdout}");
    assert!(stderr.contains("--registers"), "stderr: {stderr}");
}

#[test]
fn portfolio_outside_noobj_is_a_usage_error() {
    // The SAT backend's CNF has no objective and no MaxLive term, so the
    // portfolio answers only the feasibility question. The default
    // objective (minreg) or a register cap would leave it ILP-only without
    // a word; the CLI refuses both as usage errors instead.
    for args in [
        &[
            "examples/figure1.loop",
            "--portfolio",
            "--threads",
            "1",
            "--report",
        ][..],
        &[
            "examples/figure1.loop",
            "--portfolio",
            "--objective",
            "noobj",
            "--registers",
            "6",
        ][..],
    ] {
        let out = run(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}\nstdout: {stdout}\nstderr: {stderr}"
        );
        assert!(stdout.is_empty(), "{args:?} solved anyway: {stdout}");
        assert!(stderr.contains("--portfolio"), "stderr: {stderr}");
    }

    // The feasibility question itself: SAT decides first at every thread
    // count, so two workers still settle figure1 through the SAT backend.
    let ok = run(&[
        "examples/figure1.loop",
        "--portfolio",
        "--objective",
        "noobj",
        "--threads",
        "2",
    ]);
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert_eq!(
        ok.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(stdout.contains("via sat-exact"), "stdout: {stdout}");
}
