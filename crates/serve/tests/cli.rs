//! The `eagle-serve` binary refuses a malformed flag value the way it refuses
//! an unknown flag: the usage line on stderr, exit status 2, and nothing
//! written to the store — never a panic.

use std::path::PathBuf;
use std::process::Command;

fn store_dir(case: usize) -> PathBuf {
    std::env::temp_dir().join(format!("eagle_serve_cli_{}_{case}", std::process::id()))
}

#[test]
fn malformed_flag_values_exit_2_with_usage() {
    let cases: [&[&str]; 7] = [
        &["run", "--max-wave", "0"],
        &["run", "--queue-capacity", "0"],
        &["run", "--coalesce-us", "x"],
        &["run", "--sim-workers", "x"],
        &["run", "--family-quota", "x"],
        &["run", "--metrics-every-s", "x"],
        &["seed", "--family", "inception_v3", "--scale", "tiny", "--seed", "x"],
    ];
    for (i, args) in cases.iter().enumerate() {
        let store = store_dir(i);
        std::fs::remove_dir_all(&store).ok();
        let out = Command::new(env!("CARGO_BIN_EXE_eagle-serve"))
            .args(&args[..1])
            .arg("--store")
            .arg(&store)
            .args(&args[1..])
            .output()
            .expect("eagle-serve starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
        assert!(!store.exists(), "{args:?} wrote to the store");
    }
}
