//! Drives the `transfer` binary end to end. The golden artifact is the output
//! of the commit before zero-shot evaluation moved into `eagle_core::infer`:
//! the generalist's training, its probes' candidates, both best-of-K columns
//! and the two benchmark trainings must not move.

use std::process::Command;

#[test]
fn transfer_artifact_matches_the_parent_commit() {
    let out = std::env::temp_dir().join(format!("eagle-transfer-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_transfer"))
        .args(["--scale", "tiny", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("transfer binary runs");
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let golden = r#"{
  "scale": "tiny",
  "seed": 7,
  "candidates": 8,
  "generalist_samples": 30,
  "distinct_training_graphs": 3,
  "holdout": [
    {"graph": "gen-d8ef386d27f10a03", "ops": 59, "zero_shot": 0.02024732825892473, "random": 0.04070681054451613, "beats_random": true},
    {"graph": "gen-74ad29322bb9f3d3", "ops": 76, "zero_shot": 0.08104036268086022, "random": 0.1140337185244086, "beats_random": true}
  ],
  "benchmarks": [
    {"benchmark": "InceptionV3", "samples": 30, "zero_shot": 0.15301088702236096, "fine_tuned": 0.10252616948392923, "from_scratch": 0.07816573130645375},
    {"benchmark": "Gnmt", "samples": 90, "zero_shot": 2.321192272096083, "fine_tuned": 2.0898032024423925, "from_scratch": 2.3335020401446354},
    {"benchmark": "BertBase", "samples": 90, "zero_shot": 4.1625753307662245, "fine_tuned": 3.9107525075698555, "from_scratch": 3.504006839047503}
  ],
  "gate_zero_shot_beats_random": true
}
"#;
    assert_eq!(std::fs::read_to_string(out.join("BENCH_transfer.json")).unwrap(), golden);
    std::fs::remove_dir_all(out).ok();
}
