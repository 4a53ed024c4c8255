//! Drives the `experiments` binary end to end. The two golden CSVs are the
//! output of the commit before the nine table/ablation binaries were folded
//! into one driver and the three policy updates into one step: whole training
//! trajectories of all three algorithms (60 samples, so CE fires once) and of
//! a tweaked-scale sweep must not move. The `transfer` and
//! `telemetry_overhead` artifacts are pinned to the output of the binaries
//! those two entries replaced, and `graph_scale`'s graphs and makespans to
//! the committed `results/BENCH_graph_scale.json`.

use serde_json::Value;
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
        ablation_reward oracle transfer telemetry_overhead matmul graph_scale";
    assert!(stderr.contains(names), "usage must list the thirteen names: {stderr}");
    assert!(!out.exists(), "a refused command line writes nothing");

    for args in [
        &["table3", "--samples", "x"][..],
        &["table3", "--samples", "0"],
        &["table3", "--checkpoint-dir", "D", "--checkpoint-every", "0"],
        // The flags of the retired `graph_scale` binary: sizes and rounds are
        // constants of the entry.
        &["graph_scale", "--iters", "3"],
        &["graph_scale", "--sizes", "10"],
    ] {
        let (run, out) = experiments("malformed", args);
        assert_eq!(run.status.code(), Some(2), "{args:?} is a usage error, not a panic");
        assert!(!out.exists(), "a refused command line writes nothing");
    }
}

/// Ten generalist samples are too few for `transfer`'s zero-shot policy to
/// beat random placement on its second held-out graph, so this run also
/// witnesses the gate contract: every artifact is written, then the driver
/// exits 1. The CSVs are pinned by one FNV-1a-64 over their sorted names and
/// bytes (taken from the parent commit): a change that moves any table cell
/// or curve point re-pins it here, visibly.
#[test]
fn all_writes_exactly_the_seventeen_artifacts() {
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
        "BENCH_graph_scale.json",
        "BENCH_matmul.json",
        "BENCH_telemetry_overhead.json",
        "BENCH_transfer.json",
        "MANIFEST.json",
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

    // The manifest names every other file, with the command that wrote it.
    let manifest: Value =
        serde_json::from_str(&std::fs::read_to_string(out.join("MANIFEST.json")).unwrap()).unwrap();
    let Value::Object(entries) = &manifest["artifacts"] else { panic!("{manifest:?}") };
    let named: Vec<&str> = entries.iter().map(|(file, _)| file.as_str()).collect();
    let artifacts: Vec<&str> = expected.into_iter().filter(|f| *f != "MANIFEST.json").collect();
    assert_eq!(named, artifacts);
    for (_, entry) in entries {
        let command = format!(
            "experiments all --curves --samples 10 --scale tiny --seed 7 --out {}",
            out.display()
        );
        assert_eq!(entry["command"].as_str(), Some(command.as_str()), "{entry:?}");
        assert_eq!(entry["seed"].as_u64(), Some(7), "{entry:?}");
        assert!(entry["libm"]["hwcaps"].as_str().is_some(), "{entry:?}");
    }

    let mut csvs = Vec::new();
    for name in written.iter().filter(|name| name.ends_with(".csv")) {
        csvs.extend_from_slice(name.as_bytes());
        csvs.push(b'\n');
        csvs.extend(std::fs::read(out.join(name)).unwrap());
    }
    assert_eq!(eagle_core::fnv1a64(&csvs), 0x1952_c605_321c_c2c4, "a table cell or curve moved");

    let read = |name: &str| -> Value {
        serde_json::from_str(&std::fs::read_to_string(out.join(name)).unwrap()).unwrap()
    };
    let scale = read("BENCH_graph_scale.json");
    assert_eq!(scale["rows"].as_array().map(Vec::len), Some(3));
    let committed = [
        (10_216, 17_929, 207_047_868_928.0, 3.226957689384499),
        (50_091, 90_893, 1_370_783_420_538.0, 18.75327665392911),
        (100_069, 185_128, 74_060_234_547_004.0, 808.0247660402766),
    ];
    for (i, (ops, edges, flops, makespan)) in committed.into_iter().enumerate() {
        let row = &scale["rows"][i];
        assert_eq!(row["ops"].as_u64(), Some(ops), "{row:?}");
        assert_eq!(row["edges"].as_u64(), Some(edges), "{row:?}");
        assert_eq!(row["total_flops"].as_f64(), Some(flops), "{row:?}");
        assert_eq!(row["outcome"].as_str(), Some("valid"), "{row:?}");
        assert_eq!(row["makespan_sec"].as_f64(), Some(makespan), "{row:?}");
    }
    let matmul = read("BENCH_matmul.json");
    let shapes = matmul["shapes"].as_array().unwrap();
    assert_eq!(shapes.len(), 28);
    for shape in shapes {
        for layout in ["bitwise_identical", "nt_bitwise_identical", "tn_bitwise_identical"] {
            assert_eq!(shape[layout], Value::Bool(true), "{shape:?}");
        }
    }
    let tanh = matmul["tanh"].as_array().unwrap();
    assert_eq!(tanh.len(), 2);
    for buffer in tanh {
        assert_eq!(buffer["bitwise_identical"], Value::Bool(true), "{buffer:?}");
    }
    std::fs::remove_dir_all(out).ok();
}
