//! `repro` as a process: what a user sees at the command line.

use std::process::Command;

/// An unknown experiment id is reported, every known id is still built
/// and written, and the run exits non-zero.
#[test]
fn unknown_id_is_reported_and_the_rest_are_built() {
    let out = std::env::temp_dir().join(format!("repro-unknown-id-{}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "quick", "--out"])
        .arg(&out)
        .arg("--bench-json")
        .arg(out.join("bench.json"))
        .args(["fig1-1", "fig9-9", "fig7-1"])
        .output()
        .expect("run repro");
    let written = ["fig1-1.json", "fig7-1.json"].map(|f| out.join(f).is_file());
    std::fs::remove_dir_all(&out).ok();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("repro: unknown experiment id 'fig9-9'"));
    assert_eq!(written, [true, true], "{stderr}");
}
