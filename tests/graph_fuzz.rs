//! Wire graphs as outside input.
//!
//! A client sends an op graph as JSON, in a `register_graph` line or inline in
//! a `place` line, and `OpGraph` deserializes its node list and both adjacency
//! tables as independent fields. The contract under test: whatever one edit
//! of one structural field of a valid graph's line produces — an adjacency
//! endpoint, a list length, an op's flops or byte counts — nothing panics,
//! registration and inline admission succeed exactly when
//! [`OpGraph::validate`] accepts the decoded graph, and every refusal is a
//! typed `Protocol` (the line does not decode) or `BadRequest` (the graph
//! does not validate) error.
//!
//! `EAGLE_FUZZ_CASES` tunes the case count (default 256; the nightly job runs
//! 10000+), as in `checkpoint_fuzz.rs`.

use std::sync::{Arc, OnceLock};

use eagle::api::{
    decode_request, encode_request, PlaceRequest, RegisterGraphRequest, Request, API_SCHEMA_VERSION,
};
use eagle::obs::Recorder;
use eagle::opgraph::{GraphGen, GraphGenConfig, OpGraph};
use eagle::serve::{PolicyStore, Router, RouterConfig};
use eagle::EagleError;
use proptest::prelude::*;
use serde_json::Value;

fn fuzz_cases() -> u32 {
    std::env::var("EAGLE_FUZZ_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(256)
}

/// Small GraphGen graphs, training and forward-only, every one valid.
fn corpus() -> &'static [OpGraph] {
    static CORPUS: OnceLock<Vec<OpGraph>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        (0..4u64)
            .map(|seed| {
                let cfg = GraphGenConfig {
                    target_ops: 32,
                    training: seed % 2 == 0,
                    ..GraphGenConfig::default()
                };
                let g = GraphGen::new(cfg).unwrap().sample(seed);
                assert_eq!(g.validate(), Ok(()));
                g
            })
            .collect()
    })
}

/// A router with no policy behind it: admission (what this file tests) never
/// reads the store, and a fresh one per case keeps its queue from filling.
fn router() -> Arc<Router> {
    let store =
        Arc::new(PolicyStore::open(std::env::temp_dir().join("eagle-graph-fuzz"), Recorder::new()));
    Router::new(store, RouterConfig::default(), Recorder::new())
}

/// JSON number (and non-number) tokens a scalar field is overwritten with.
const TOKENS: [&str; 13] = [
    "-1",
    "0",
    "-0.0",
    "3.5",
    "4096",
    "1e308",
    "1e400",
    "-1e400",
    "null",
    "\"x\"",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
];

const SCALARS: [&str; 4] = ["flops", "out_bytes", "param_bytes", "act_bytes"];

/// Stands in for a token in the mutated tree until the line is rendered.
const MARK: &str = "@@token@@";

/// One edit of one structural field of a wire graph. Indices into a list are
/// reduced modulo its length.
#[derive(Debug, Clone)]
enum Mutation {
    /// Overwrite one endpoint of `succs` (or `preds`); pushes onto an empty list.
    SetEndpoint { preds: bool, node: usize, slot: usize, to: u64 },
    /// Append an endpoint to one adjacency list.
    PushEndpoint { preds: bool, node: usize, to: u64 },
    /// Remove one endpoint from one adjacency list.
    DropEndpoint { preds: bool, node: usize, slot: usize },
    /// List the edge `from -> to` in both tables, as `OpGraph::add_edge`
    /// would (without its checks): a cycle, a self-loop, a duplicate or a
    /// valid new edge.
    AddEdge { from: usize, to: usize },
    /// Drop the last entry of `nodes`, `succs` or `preds`.
    Shorten { table: usize },
    /// Append an entry to `nodes` (a copy of the last op), `succs` or `preds`
    /// (an empty list).
    Lengthen { table: usize },
    /// Overwrite one op's flops or byte count with a token.
    Scalar { node: usize, field: &'static str, token: &'static str },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    ((0u8..7, any::<bool>(), any::<usize>()), (any::<usize>(), 0u64..82, 0usize..3, 0usize..13))
        .prop_map(|((kind, preds, node), (slot, to, table, token))| {
            // Endpoints mostly near the graph's size (in and out of range),
            // sometimes at the edge of `OpId`'s u32 and one past it.
            let to = if to >= 80 { u64::from(u32::MAX) + (to - 80) } else { to };
            match kind {
                0 => Mutation::SetEndpoint { preds, node, slot, to },
                1 => Mutation::PushEndpoint { preds, node, to },
                2 => Mutation::DropEndpoint { preds, node, slot },
                3 => Mutation::Shorten { table },
                4 => Mutation::Lengthen { table },
                5 => Mutation::AddEdge { from: node, to: slot },
                _ => Mutation::Scalar {
                    node,
                    field: SCALARS[slot % SCALARS.len()],
                    token: TOKENS[token],
                },
            }
        })
}

fn field<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
    match v {
        Value::Object(entries) => {
            entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v).expect("field present")
        }
        other => panic!("expected an object holding `{key}`, got {other:?}"),
    }
}

fn items(v: &mut Value) -> &mut Vec<Value> {
    v.as_array_mut().expect("an array")
}

/// Applies `m` to the `graph` field of a request tree; returns the token to
/// splice in for [`MARK`], if any.
fn apply(graph: &mut Value, m: &Mutation) -> Option<&'static str> {
    let table = |preds: bool| if preds { "preds" } else { "succs" };
    match *m {
        Mutation::SetEndpoint { preds, node, slot, to } => {
            let lists = items(field(graph, table(preds)));
            let n = lists.len();
            let list = items(&mut lists[node % n]);
            match list.len() {
                0 => list.push(Value::U64(to)),
                len => list[slot % len] = Value::U64(to),
            }
        }
        Mutation::PushEndpoint { preds, node, to } => {
            let lists = items(field(graph, table(preds)));
            let n = lists.len();
            items(&mut lists[node % n]).push(Value::U64(to));
        }
        Mutation::DropEndpoint { preds, node, slot } => {
            let lists = items(field(graph, table(preds)));
            let n = lists.len();
            let list = items(&mut lists[node % n]);
            if !list.is_empty() {
                let len = list.len();
                list.remove(slot % len);
            }
        }
        Mutation::AddEdge { from, to } => {
            let n = items(field(graph, "nodes")).len();
            let (from, to) = (from % n, to % n);
            items(&mut items(field(graph, "succs"))[from]).push(Value::U64(to as u64));
            items(&mut items(field(graph, "preds"))[to]).push(Value::U64(from as u64));
        }
        Mutation::Shorten { table } => {
            items(field(graph, ["nodes", "succs", "preds"][table])).pop();
        }
        Mutation::Lengthen { table } => {
            let list = items(field(graph, ["nodes", "succs", "preds"][table]));
            let entry =
                if table == 0 { list[list.len() - 1].clone() } else { Value::Array(vec![]) };
            list.push(entry);
        }
        Mutation::Scalar { node, field: name, token } => {
            let nodes = items(field(graph, "nodes"));
            let n = nodes.len();
            *field(&mut nodes[node % n], name) = Value::String(MARK.into());
            return Some(token);
        }
    }
    None
}

/// `req`'s wire line with `m` applied to its graph.
fn mutated_line(req: &Request, m: &Mutation) -> String {
    let mut v: Value = serde_json::from_str(&encode_request(req)).unwrap();
    let token = apply(field(&mut v, "graph"), m);
    let line = serde_json::to_string(&v).unwrap();
    match token {
        Some(token) => line.replace(&format!("\"{MARK}\""), token),
        None => line,
    }
}

fn register_line(graph: &OpGraph) -> Request {
    Request::RegisterGraph(RegisterGraphRequest {
        schema_version: API_SCHEMA_VERSION,
        id: 1,
        graph: graph.clone(),
    })
}

/// Decodes `line` and hands it to the router the way a connection thread
/// does, holding the outcome to the contract in the module doc.
fn check_line(router: &Router, line: &str) -> Result<(), TestCaseError> {
    let (want, got) = match decode_request(line) {
        Err(e) => {
            prop_assert!(matches!(e, EagleError::Protocol(_)), "undecodable line: {e}");
            return Ok(());
        }
        Ok(Request::RegisterGraph(r)) => {
            (r.graph.validate(), router.register_graph(r.graph).map(drop))
        }
        Ok(Request::Place(r)) => {
            let want = r.graph.as_ref().expect("an inline graph").validate();
            (want, router.submit(r).map(drop))
        }
    };
    match (want, got) {
        (Ok(()), Ok(())) => {}
        (Err(want), Err(EagleError::BadRequest(msg))) => prop_assert_eq!(msg, want.to_string()),
        (want, got) => prop_assert!(false, "validate says {want:?}, the router {got:?}"),
    }
    Ok(())
}

#[test]
fn corpus_graphs_register_and_submit() {
    let router = router();
    for g in corpus() {
        router.register_graph(g.clone()).expect("valid graph registers");
        router.submit(PlaceRequest::inline(2, "fam", g.clone())).expect("valid graph is admitted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn structural_mutations_are_admitted_exactly_when_valid(
        which in 0usize..4,
        m in mutation(),
    ) {
        let graph = &corpus()[which];
        let router = router();
        check_line(&router, &mutated_line(&register_line(graph), &m))?;
        let place = Request::Place(PlaceRequest::inline(2, "fam", graph.clone()));
        check_line(&router, &mutated_line(&place, &m))?;
    }
}
