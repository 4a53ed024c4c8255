//! Drives the `experiments` binary end to end. The two golden CSVs are the
//! output of the commit before the nine table/ablation binaries were folded
//! into one driver and the three policy updates into one step: whole training
//! trajectories of all three algorithms (60 samples, so CE fires once) and of
//! a tweaked-scale sweep must not move. The `transfer` and
//! `telemetry_overhead` artifacts are pinned to the output of the binaries
//! those two entries replaced.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `experiments <args> --scale tiny --seed 7 --out <fresh temp dir>`.
fn experiments(test: &str, args: &[&str]) -> (Output, PathBuf) {
    let out = std::env::temp_dir().join(format!("eagle-experiments-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .args(["--scale", "tiny", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("experiments binary runs");
    (run, out)
}

#[test]
fn training_trajectories_match_the_parent_commit() {
    let (run, out) = experiments("golden", &["table3", "ablation_groups", "--samples", "60"]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let table3 = "model,algo,step_time,invalid\n\
        inception_v3,REINFORCE,0.086,0\n\
        inception_v3,PPO,0.071,0\n\
        inception_v3,PPO+CE,0.071,0\n\
        gnmt,REINFORCE,2.520,1\n\
        gnmt,PPO,2.392,4\n\
        gnmt,PPO+CE,2.313,3\n\
        bert_base,REINFORCE,3.867,20\n\
        bert_base,PPO,3.894,20\n\
        bert_base,PPO+CE,3.690,22\n";
    let groups = "num_groups,step_time,invalid\n8,2.347,0\n16,2.089,0\n32,2.030,0\n64,2.959,0\n";
    assert_eq!(std::fs::read_to_string(out.join("table3.csv")).unwrap(), table3);
    assert_eq!(std::fs::read_to_string(out.join("ablation_groups.csv")).unwrap(), groups);
    std::fs::remove_dir_all(out).ok();
}

/// The golden artifact is the output of the commit before zero-shot
/// evaluation moved into `eagle_core::infer`: the generalist's training, its
/// probes' candidates, both best-of-K columns and the two benchmark trainings
/// must not move.
#[test]
fn transfer_artifact_matches_the_parent_commit() {
    let (run, out) = experiments("transfer", &["transfer"]);
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

/// Recording may not change the run, and the run is Table IV's EAGLE(PPO) cell
/// on Inception-V3 (0.07089943150162573 at the default 200 samples).
#[test]
fn telemetry_overhead_runs_the_table_cell_unchanged() {
    let (run, out) = experiments("telemetry", &["telemetry_overhead", "--samples", "10"]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let doc = std::fs::read_to_string(out.join("BENCH_telemetry_overhead.json")).unwrap();
    assert!(doc.contains(r#""samples":10,"#), "{doc}");
    assert!(doc.contains(r#""curves_identical":true,"#), "{doc}");
    assert!(doc.ends_with(r#""final_step_time":0.11539277960201368}"#), "{doc}");
    std::fs::remove_dir_all(out).ok();
}

#[test]
fn unknown_experiment_exits_2_and_lists_the_names() {
    let (run, out) = experiments("unknown", &["nope"]);
    assert_eq!(run.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&run.stderr);
    let names = "table1 table2 table3 table4 ablation_baseline ablation_entropy ablation_groups \
        ablation_reward oracle transfer telemetry_overhead";
    assert!(stderr.contains(names), "usage must list the eleven names: {stderr}");
    assert!(!out.exists(), "a refused command line writes nothing");

    for args in [
        &["table3", "--samples", "x"][..],
        &["table3", "--samples", "0"],
        &["table3", "--checkpoint-dir", "D", "--checkpoint-every", "0"],
    ] {
        let (run, out) = experiments("malformed", args);
        assert_eq!(run.status.code(), Some(2), "{args:?} is a usage error, not a panic");
        assert!(!out.exists(), "a refused command line writes nothing");
    }
}

/// Ten generalist samples are too few for `transfer`'s zero-shot policy to
/// beat random placement on its second held-out graph, so this run also
/// witnesses the gate contract: every artifact is written, then the driver
/// exits 1.
#[test]
fn all_writes_exactly_the_fifteen_artifacts() {
    let (run, out) = experiments("all", &["all", "--curves", "--samples", "10"]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("generalist gate FAILED"), "{stderr}");
    let mut written: Vec<String> = std::fs::read_dir(&out)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    let expected = [
        "BENCH_telemetry_overhead.json",
        "BENCH_transfer.json",
        "ablation_baseline.csv",
        "ablation_entropy.csv",
        "ablation_groups.csv",
        "ablation_reward.csv",
        "fig2.csv",
        "fig5.csv",
        "fig6.csv",
        "fig7.csv",
        "oracle.csv",
        "table1.csv",
        "table2.csv",
        "table3.csv",
        "table4.csv",
    ];
    assert_eq!(written, expected);
    std::fs::remove_dir_all(out).ok();
}
