//! Drives the `experiments` binary end to end. The two golden CSVs are the
//! output of the commit before the nine table/ablation binaries were folded
//! into one driver and the three policy updates into one step: whole training
//! trajectories of all three algorithms (60 samples, so CE fires once) and of
//! a tweaked-scale sweep must not move.

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

#[test]
fn unknown_experiment_exits_2_and_lists_the_names() {
    let (run, out) = experiments("unknown", &["nope"]);
    assert_eq!(run.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&run.stderr);
    let names = "table1 table2 table3 table4 ablation_baseline ablation_entropy ablation_groups \
        ablation_reward oracle";
    assert!(stderr.contains(names), "usage must list the nine names: {stderr}");
    assert!(!out.exists(), "a refused command line writes nothing");

    let (run, _) = experiments("malformed", &["table3", "--samples", "x"]);
    assert_eq!(run.status.code(), Some(2), "a malformed value is a usage error, not a panic");
}

#[test]
fn all_writes_exactly_the_thirteen_artifacts() {
    let (run, out) = experiments("all", &["all", "--curves", "--samples", "10"]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let mut written: Vec<String> = std::fs::read_dir(&out)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    let expected = [
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
