//! Cross-commit witness for graph construction: FNV-1a-64 of `OpGraph::to_json`
//! (nodes, `succs` and `preds` in insertion order — node order, names, costs,
//! colocation ids and edge order all feed it) for the three benchmark builders
//! and for `GraphGen`. Every value was computed at the commit *before* the
//! builders and `GraphGen` were rewritten over `Gb`'s op vocabulary; `OpId`s feed
//! the hashed-prefix features, the pinned warm starts, every golden and the
//! ledger's `step_time_s`, so a rewrite that moves one of them is not a refactor.

use eagle::core::fnv1a64;
use eagle::opgraph::builders::{
    try_bert_base, try_gnmt, try_inception_v3, BertConfig, GnmtConfig, InceptionConfig,
};
use eagle::opgraph::{GraphGen, GraphGenConfig, MotifWeights, OpGraph};

fn hash(g: &OpGraph) -> u64 {
    fnv1a64(g.to_json().as_bytes())
}

/// `(ops, edges, hash)` of one graph.
fn shape(g: &OpGraph) -> (usize, usize, u64) {
    (g.len(), g.num_edges(), hash(g))
}

/// FNV-1a-64 over the graph hashes of seeds `0..seeds`, in seed order.
fn folded(cfg: GraphGenConfig, seeds: u64) -> u64 {
    let gen = GraphGen::new(cfg).expect("valid config");
    let bytes: Vec<u8> = (0..seeds).flat_map(|s| hash(&gen.sample(s)).to_le_bytes()).collect();
    fnv1a64(&bytes)
}

#[test]
fn benchmark_graphs_are_where_the_parent_built_them() {
    let inception = try_inception_v3(&InceptionConfig::default()).unwrap();
    assert_eq!(shape(&inception), (1_182, 1_934, 0x0c4d_a8a7_a37f_e3d2));
    let gnmt = try_gnmt(&GnmtConfig::default()).unwrap();
    assert_eq!(shape(&gnmt), (2_935, 7_263, 0x23b0_741b_99c9_9a78));
    let bert = try_bert_base(&BertConfig::default()).unwrap();
    assert_eq!(shape(&bert), (2_275, 4_401, 0xd03b_d0d3_5584_ac74));

    // The loops' edge cases: the suites' tiny GNMT, one layer x one step (no
    // residual stack, no recurrent edge), a batch that is not 1, a small BERT.
    let tiny = GnmtConfig { batch: 2, hidden: 4, layers: 2, seq_len: 3, vocab: 20 };
    assert_eq!(hash(&try_gnmt(&tiny).unwrap()), 0x2abb_4c2f_ba67_bed0);
    let one = GnmtConfig { batch: 3, hidden: 8, layers: 1, seq_len: 1, vocab: 11 };
    assert_eq!(hash(&try_gnmt(&one).unwrap()), 0xa4b4_4c36_ab0e_a9f7);
    let batch3 = try_inception_v3(&InceptionConfig { batch: 3 }).unwrap();
    assert_eq!(hash(&batch3), 0x9463_3047_8fa0_afcf);
    let small =
        BertConfig { batch: 2, seq_len: 8, hidden: 16, layers: 2, heads: 2, ff: 32, vocab: 30 };
    assert_eq!(hash(&try_bert_base(&small).unwrap()), 0x2a96_5686_2cfa_08fd);
}

#[test]
fn graphgen_samples_are_where_the_parent_built_them() {
    // The ledger's large graph exactly as `perf/src/sim.rs` builds it, at both sizes.
    let ledger = |target_ops: usize| {
        let cfg = GraphGenConfig {
            target_ops,
            memory_pressure: (0.05, 0.1),
            batch: (2, 8),
            ..GraphGenConfig::default()
        };
        GraphGen::new(cfg).unwrap().sample(7 ^ 50_000)
    };
    let large = ledger(50_000);
    assert_eq!((large.len(), hash(&large)), (50_091, 0xd497_2a7c_bea5_6675));
    assert_eq!(hash(&ledger(5_000)), 0xcfac_d747_cc23_c192);

    let d = GraphGenConfig::default;
    let only = |inception, lstm, transformer, moe| GraphGenConfig {
        motifs: MotifWeights { inception, lstm, transformer, moe },
        ..d()
    };
    let got = [
        folded(d(), 16),
        folded(GraphGenConfig::with_target(4096), 16),
        folded(GraphGenConfig { training: false, ..d() }, 16),
        // Both clamps of the byte function.
        folded(GraphGenConfig { memory_pressure: (1e-6, 1e-6), ..d() }, 16),
        folded(GraphGenConfig { memory_pressure: (1e9, 1e9), batch: (64, 64), ..d() }, 16),
        folded(only(1.0, 0.0, 0.0, 0.0), 16),
        folded(only(0.0, 1.0, 0.0, 0.0), 16),
        folded(only(0.0, 0.0, 1.0, 0.0), 16),
        folded(only(0.0, 0.0, 0.0, 1.0), 16),
        // The generalist / `transfer` / probe distribution.
        folded(GraphGenConfig::with_target(48), 32),
    ];
    let want: [u64; 10] = [
        0x67d1_3c74_8c2d_f5c2,
        0xc778_519f_6dc4_f16b,
        0x8f7d_ec91_97c9_8604,
        0x4846_256c_4096_8f14,
        0x46d0_67ce_8ec2_c579,
        0xb634_b739_a918_9926,
        0x0090_7a26_3cd8_3378,
        0xb4eb_d20b_f499_e11b,
        0xcb33_7558_4ef2_d7a4,
        0x043b_be1b_2cac_bc57,
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}
