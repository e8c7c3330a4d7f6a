//! Hostile inputs through the real `fle_lab` binary: a malformed file
//! must end in exit code 2 and a named error, never a crash.

use std::path::PathBuf;
use std::process::Command;

/// A file under the temp dir holding `contents`, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str, contents: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "fle_lab_hostile_{}_{name}.json",
            std::process::id()
        ));
        std::fs::write(&path, contents).expect("write temp file");
        Self(path)
    }

    fn as_str(&self) -> &str {
        self.0.to_str().expect("temp path is valid UTF-8")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// `[` nested 200,000 deep once overflowed the parser's stack. The spec,
/// checkpoint and partial-report readers share the parser, so each must
/// reject the file with the nesting limit named.
#[test]
fn deeply_nested_json_is_a_named_error() {
    let deep = "[".repeat(200_000);
    let cases: [(&str, Vec<&str>); 3] = [
        ("spec", vec!["attack-sweep", "--spec"]),
        ("partial", vec!["merge-reports"]),
        (
            "checkpoint",
            vec![
                "sweep",
                "--protocol",
                "phase",
                "--n",
                "8",
                "--trials",
                "10",
                "--checkpoint",
            ],
        ),
    ];
    for (name, args) in cases {
        let file = TempFile::new(name, &deep);
        let out = Command::new(env!("CARGO_BIN_EXE_fle_lab"))
            .args(&args)
            .arg(file.as_str())
            .output()
            .expect("spawn fle_lab");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.contains("JSON nesting depth limit of 128"),
            "{name}: {stderr}"
        );
    }
}

/// Sizes past the spec limits once passed validation and aborted on a
/// failed allocation (exit 134): a 4·10⁹-node ring, flag-built or from an
/// attack spec, a grid whose `rows × cols` wraps, and lockstep widths past
/// the 1,024-lane limit that spec files already enforced. Each must be an
/// exit-2 error naming the limit, before any work starts.
#[test]
fn size_and_lane_limits_are_named_errors() {
    let attack = TempFile::new(
        "huge_attack",
        r#"{"sweep":"attack","attack":"rushing","n":4000000000,"trials":1,"base_seed":0,"threads":0,"coalition":{"placement":"equally_spaced","k":4,"offset":1}}"#,
    );
    let grid = TempFile::new(
        "wrapping_grid",
        r#"{"sweep":"tree_dictator","graph":{"family":"grid","rows":8589934593,"cols":2147483648},"trials":1,"base_seed":0,"threads":0}"#,
    );
    let lanes = TempFile::new(
        "wide_batch",
        r#"{"sweep":"honest","protocol":"phase","n":8,"fn_key":0,"trials":10,"base_seed":0,"threads":0,"batch_width":1025}"#,
    );
    let sweep = |n: &'static str, trials: &'static str| {
        vec!["sweep", "--protocol", "phase", "--n", n, "--trials", trials]
    };
    let cases: [(Vec<&str>, &str); 6] = [
        (sweep("4000000000", "1"), "size limit of 4096"),
        (
            vec!["attack-sweep", "--spec", attack.as_str()],
            "size limit of 4096",
        ),
        (
            vec!["attack-sweep", "--spec", grid.as_str()],
            "size limit of 4096",
        ),
        (
            [sweep("8", "10"), vec!["--batch", "1025"]].concat(),
            "at most 1024",
        ),
        (
            [sweep("64", "2000000"), vec!["--batch", "1000000"]].concat(),
            "at most 1024",
        ),
        (vec!["sweep", "--spec", lanes.as_str()], "at most 1024"),
    ];
    for (args, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_fle_lab"))
            .args(&args)
            .output()
            .expect("spawn fle_lab");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}
