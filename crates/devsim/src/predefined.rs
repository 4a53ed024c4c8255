//! Pre-defined placements: the paper's Single-GPU and Human-Expert baselines
//! and the balanced BERT layer split calibration uses.

use eagle_opgraph::{OpGraph, OpKind};

use crate::device::Machine;
use crate::placement::Placement;

/// The Single-GPU baseline: every op on the first GPU, except ops that are
/// incompatible with GPUs (input pipeline, embedding lookups), which go to the CPU —
/// exactly the paper's description of this baseline.
pub fn single_gpu(graph: &OpGraph, machine: &Machine) -> Placement {
    let gpu = machine.gpu_ids()[0];
    let cpu = machine.cpu_id();
    Placement::new(
        graph
            .ids()
            .map(|id| match graph.node(id).kind {
                OpKind::Input | OpKind::Embedding => cpu,
                _ => gpu,
            })
            .collect(),
    )
}

/// The Human-Expert placement for a benchmark graph, keyed off `model_name`:
///
/// * `inception_v3` — the TF-Slim placement: most ops on one GPU, the input
///   pipeline on the CPU (same as Single-GPU for this model).
/// * `gnmt` — the Google NMT multi-GPU placement: each LSTM layer, the attention
///   layer and the softmax layer on a separate device, round-robin over GPUs;
///   embeddings on the CPU.
/// * `bert_base` — `None`: the paper notes BERT ships no model-parallel placement.
pub fn human_expert(graph: &OpGraph, machine: &Machine) -> Option<Placement> {
    match graph.model_name.as_str() {
        "inception_v3" => Some(single_gpu(graph, machine)),
        "gnmt" => Some(gnmt_expert(graph, machine)),
        _ => None,
    }
}

/// Assigns a GNMT op to a "layer unit" index based on its TF-style name; units are
/// then striped across GPUs. Gradient (`grad/...`) and update (`update/...`) ops
/// carry the forward name as a suffix and land with their layer.
fn gnmt_unit(name: &str) -> Option<usize> {
    // Order matters: attention before decoder layers so "decoder/attention" wins.
    if name.contains("encoder/layer0") {
        Some(0)
    } else if name.contains("encoder/layer1") {
        Some(1)
    } else if name.contains("encoder/layer2") {
        Some(2)
    } else if name.contains("encoder/layer3") {
        Some(3)
    } else if name.contains("attention") {
        Some(4)
    } else if name.contains("decoder/layer0") {
        Some(5)
    } else if name.contains("decoder/layer1") {
        Some(6)
    } else if name.contains("decoder/layer2") {
        Some(7)
    } else if name.contains("decoder/layer3") {
        Some(8)
    } else if name.contains("softmax") || name.contains("loss") || name.contains("decoder/outputs")
    {
        Some(9)
    } else {
        None
    }
}

fn gnmt_expert(graph: &OpGraph, machine: &Machine) -> Placement {
    let gpus = machine.gpu_ids();
    let cpu = machine.cpu_id();
    Placement::new(
        graph
            .ids()
            .map(|id| {
                let node = graph.node(id);
                if matches!(node.kind, OpKind::Input) || node.name.contains("embedding") {
                    return cpu;
                }
                match gnmt_unit(&node.name) {
                    Some(unit) => gpus[unit % gpus.len()],
                    None => gpus[0],
                }
            })
            .collect(),
    )
}

/// A balanced contiguous layer split for BERT: embeddings + first layers on the
/// first GPU, subsequent layer ranges on the remaining GPUs, the MLM head on the
/// last. Not a paper baseline (BERT has no expert placement) — used as the
/// calibration reference and as a sanity placement in tests.
pub fn bert_layer_split(graph: &OpGraph, machine: &Machine) -> Placement {
    let gpus = machine.gpu_ids();
    let cpu = machine.cpu_id();
    let per_gpu = 12_usize.div_ceil(gpus.len());
    Placement::new(
        graph
            .ids()
            .map(|id| {
                let node = graph.node(id);
                if matches!(node.kind, OpKind::Input) {
                    return cpu;
                }
                let name = &node.name;
                for l in 0..12usize {
                    if name.contains(&format!("layer{l}/")) {
                        return gpus[(l / per_gpu).min(gpus.len() - 1)];
                    }
                }
                if name.contains("embedding") {
                    gpus[0]
                } else {
                    // MLM head, loss and anything else rides the last GPU.
                    gpus[gpus.len() - 1]
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, SimOutcome};
    use eagle_opgraph::builders;

    #[test]
    fn single_gpu_puts_inputs_on_cpu() {
        let g = builders::try_gnmt(&builders::GnmtConfig {
            batch: 4,
            hidden: 8,
            layers: 2,
            seq_len: 3,
            vocab: 50,
        })
        .expect("valid GNMT config");
        let m = Machine::paper_machine();
        let p = single_gpu(&g, &m);
        for id in g.ids() {
            match g.node(id).kind {
                OpKind::Input | OpKind::Embedding => assert_eq!(p.device(id), m.cpu_id()),
                _ => assert_eq!(p.device(id), m.gpu_ids()[0]),
            }
        }
    }

    #[test]
    fn gnmt_expert_uses_all_gpus_and_fits() {
        let g = builders::try_gnmt(&builders::GnmtConfig::default())
            .expect("default GNMT config is valid");
        let m = Machine::paper_machine();
        let p = human_expert(&g, &m).expect("gnmt has an expert placement");
        let mem = p.memory_per_device(&g, &m);
        for (i, spec) in m.devices.iter().enumerate() {
            assert!(
                mem[i] <= spec.mem_bytes,
                "expert must fit: device {i} uses {} of {}",
                mem[i],
                spec.mem_bytes
            );
        }
        let used: std::collections::HashSet<_> = p.devices().iter().collect();
        assert!(used.len() >= 4, "expert spreads over >= 4 devices, used {}", used.len());
        assert!(matches!(simulate(&g, &m, &p), SimOutcome::Valid(_)));
    }

    #[test]
    fn gnmt_single_gpu_ooms() {
        let g = builders::try_gnmt(&builders::GnmtConfig::default())
            .expect("default GNMT config is valid");
        let m = Machine::paper_machine();
        let p = single_gpu(&g, &m);
        assert!(
            matches!(simulate(&g, &m, &p), SimOutcome::Oom { .. }),
            "batch-256 GNMT must OOM a single 16 GB GPU (Table IV)"
        );
    }

    #[test]
    fn bert_has_no_expert_but_layer_split_fits() {
        let g = builders::try_bert_base(&builders::BertConfig::default())
            .expect("default BERT config is valid");
        let m = Machine::paper_machine();
        assert!(human_expert(&g, &m).is_none(), "paper: no expert placement for BERT");
        assert!(
            matches!(simulate(&g, &m, &single_gpu(&g, &m)), SimOutcome::Oom { .. }),
            "BERT must OOM a single GPU (Table IV)"
        );
        let split = bert_layer_split(&g, &m);
        assert!(
            matches!(simulate(&g, &m, &split), SimOutcome::Valid(_)),
            "a 4-way layer split must fit; memory = {:?}",
            split.memory_per_device(&g, &m)
        );
    }

    #[test]
    fn inception_single_gpu_valid() {
        let g = builders::try_inception_v3(&builders::InceptionConfig::default())
            .expect("default Inception config is valid");
        let m = Machine::paper_machine();
        assert!(matches!(simulate(&g, &m, &single_gpu(&g, &m)), SimOutcome::Valid(_)));
    }
}
