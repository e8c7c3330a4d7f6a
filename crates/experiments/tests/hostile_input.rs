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
