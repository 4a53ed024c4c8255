//! The inference path: policy + graph → best-of-K placement.
//!
//! What EAGLE ships is a placement decoded from the trained policy: sample
//! per-group devices, decode them through the grouper, simulate, keep the
//! fastest candidate that fits. [`best_of`] is that step for any number of
//! seeded draws at once — the serving router answers a wave's requests with
//! it, the trainer's zero-shot probes and the `transfer` bench call it with one
//! draw — and [`EagleAgent::for_params`] is the one way to put an agent around
//! stored parameters. Whatever makes a placement feasible by construction
//! (capacity masks during decode, a greedy repair of an over-full device)
//! belongs between the decode and the simulation below, and nowhere else.

use eagle_devsim::{step_times, Machine, Placement};
use eagle_opgraph::OpGraph;
use eagle_rl::fork_streams;
use eagle_tensor::Params;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::agents::{EagleAgent, PlacementAgent};
use crate::scale::AgentScale;

/// Stored parameters that are not the layout an agent registers: the count,
/// a name or a shape differs. The message names the first offending tensor
/// and reads on from whatever the parameters are called (``policy `f` ``,
/// `checkpoint`).
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutMismatch(String);

impl std::fmt::Display for LayoutMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for LayoutMismatch {}

/// Checks that `stored` holds exactly the tensors `built` registers — same
/// count, names and shapes in registration order. Parameter ids align by
/// construction order, so an equal layout means `stored` drops in for `built`.
pub fn check_layout(built: &Params, stored: &Params) -> Result<(), LayoutMismatch> {
    if built.len() != stored.len() {
        return Err(LayoutMismatch(format!(
            "has {} tensors but this graph/machine needs {}",
            stored.len(),
            built.len()
        )));
    }
    for id in built.ids() {
        let (want_name, want) = (built.name(id), built.get(id));
        let (have_name, have) = (stored.name(id), stored.get(id));
        if want_name != have_name || want.shape() != have.shape() {
            return Err(LayoutMismatch(format!(
                "tensor {have_name} ({}x{}) does not fit required {want_name} ({}x{}); \
                 was it trained for a different graph size or device count?",
                have.rows(),
                have.cols(),
                want.rows(),
                want.cols()
            )));
        }
    }
    Ok(())
}

impl EagleAgent {
    /// Rebuilds the agent around already-trained `params` for one
    /// (graph, machine) pair, refusing parameters of another layout.
    pub fn for_params(
        params: &Params,
        graph: &OpGraph,
        machine: &Machine,
        scale: AgentScale,
    ) -> Result<Self, LayoutMismatch> {
        let mut scratch = Params::new();
        // The constructor RNG only writes initial values that `params`
        // replace; any seed yields the same layout.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let agent = Self::new_for_inference(&mut scratch, graph, machine, scale, &mut rng);
        check_layout(&scratch, params)?;
        Ok(agent)
    }
}

/// The fastest valid candidate, ties to the lowest index (`min_by` keeps the
/// first of equal minima).
fn fastest(times: &[Option<f64>]) -> Option<(f64, usize)> {
    let valid = times.iter().enumerate().filter_map(|(c, t)| t.map(|t| (t, c)));
    valid.min_by(|a, b| a.0.total_cmp(&b.0))
}

/// Best-of-K placements of `graph` on `machine` under the policy
/// (`agent`, `params`), one answer per `(seed, candidates)` draw.
///
/// Each draw forks `candidates` RNG streams off its own
/// `ChaCha8Rng::seed_from_u64(seed)`, so its answer depends only on the draw,
/// never on its batch-mates; all draws share one `sample_batch` and one
/// `decode_batch` forward, and every candidate is simulated across `workers`
/// threads (0 = one per available core). The answer is the candidate with the
/// minimum predicted step time, ties to the lowest index, or `None` when
/// every candidate of the draw exceeds device memory.
pub fn best_of<A: PlacementAgent>(
    agent: &A,
    params: &Params,
    graph: &OpGraph,
    machine: &Machine,
    draws: &[(u64, usize)],
    workers: usize,
) -> Vec<Option<(f64, Placement)>> {
    let mut streams: Vec<ChaCha8Rng> = Vec::new();
    for &(seed, candidates) in draws {
        let mut master = ChaCha8Rng::seed_from_u64(seed);
        streams.extend(fork_streams(&mut master, agent.rng_draws_per_sample(), candidates));
    }
    let mut stream_refs: Vec<&mut dyn RngCore> =
        streams.iter_mut().map(|r| r as &mut dyn RngCore).collect();
    let actions: Vec<Vec<usize>> =
        agent.sample_batch(params, &mut stream_refs).into_iter().map(|(a, _)| a).collect();
    let placements = agent.decode_batch(params, &actions);
    let times = step_times(graph, machine, &placements, workers);

    let mut start = 0;
    draws
        .iter()
        .map(|&(_, candidates)| {
            let first = start;
            start += candidates;
            fastest(&times[first..start]).map(|(t, c)| (t, placements[first + c].clone()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_devsim::simulate;
    use eagle_opgraph::builders::{self, GnmtConfig};
    use eagle_tensor::Tensor;

    fn tiny_graph() -> OpGraph {
        builders::try_gnmt(&GnmtConfig::tiny()).expect("valid tiny gnmt")
    }

    /// The paper machine with every device shrunk to `share` of the graph's
    /// whole footprint: placements that pile up on one device OOM.
    fn tight_machine(graph: &OpGraph, share: f64) -> Machine {
        let mut machine = Machine::paper_machine();
        let all_on_one = Placement::uniform(graph.len(), machine.gpu_ids()[0]);
        let total: u64 = all_on_one.memory_per_device(graph, &machine).iter().sum();
        for d in &mut machine.devices {
            d.mem_bytes = (total as f64 * share) as u64;
        }
        machine
    }

    fn policy(graph: &OpGraph, machine: &Machine) -> (EagleAgent, Params) {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let agent = EagleAgent::new(&mut params, graph, machine, AgentScale::tiny(), &mut rng);
        (agent, params)
    }

    #[test]
    fn draws_are_independent_of_their_batch_mates() {
        let graph = tiny_graph();
        let machine = Machine::paper_machine();
        let (agent, params) = policy(&graph, &machine);
        let (a, b) = ((17, 4), (99, 3));
        let together = best_of(&agent, &params, &graph, &machine, &[a, b], 1);
        let alone_a = best_of(&agent, &params, &graph, &machine, &[a], 1);
        let alone_b = best_of(&agent, &params, &graph, &machine, &[b], 2);
        assert_eq!(together.len(), 2);
        for (joint, alone) in together.iter().zip([&alone_a[0], &alone_b[0]]) {
            let (jt, jp) = joint.as_ref().expect("the paper machine fits the tiny graph");
            let (at, ap) = alone.as_ref().expect("the paper machine fits the tiny graph");
            assert_eq!(jt.to_bits(), at.to_bits());
            assert_eq!(jp, ap);
            assert_eq!(simulate(&graph, &machine, jp).step_time(), Some(*jt));
        }
    }

    #[test]
    fn an_all_oom_draw_is_none_while_its_batch_mate_is_answered() {
        let graph = tiny_graph();
        let machine = tight_machine(&graph, 0.7);
        let (agent, params) = policy(&graph, &machine);
        let one = |seed: u64| best_of(&agent, &params, &graph, &machine, &[(seed, 1)], 1).remove(0);
        let oom = (0..256).find(|&s| one(s).is_none()).expect("some single candidate OOMs");
        let fits = (0..256).find(|&s| one(s).is_some()).expect("some single candidate fits");
        let both = best_of(&agent, &params, &graph, &machine, &[(oom, 1), (fits, 1)], 1);
        assert_eq!(both[0], None);
        assert_eq!(both[1], one(fits));
    }

    #[test]
    fn ties_go_to_the_lowest_index() {
        assert_eq!(fastest(&[None, Some(2.0), Some(1.0), Some(1.0), None]), Some((1.0, 2)));
        assert_eq!(fastest(&[None, None]), None);
        assert_eq!(fastest(&[]), None);
    }

    #[test]
    fn for_params_rejects_another_layout_naming_the_tensor() {
        let graph = tiny_graph();
        let machine = Machine::paper_machine();
        let (_, params) = policy(&graph, &machine);
        let refusal = |p: &Params, scale| {
            EagleAgent::for_params(p, &graph, &machine, scale).err().map(|e| e.to_string())
        };
        assert_eq!(refusal(&params, AgentScale::tiny()), None);
        let first = params.name(params.ids().next().unwrap());

        let mut longer = params.clone();
        longer.add("extra", Tensor::zeros(1, 1));
        let count = refusal(&longer, AgentScale::tiny()).expect("one tensor too many");
        assert!(count.starts_with(&format!("has {} tensors", longer.len())), "{count}");

        let mut renamed = Params::new();
        for id in params.ids() {
            renamed.add(format!("x/{}", params.name(id)), params.get(id).clone());
        }
        let name = refusal(&renamed, AgentScale::tiny()).expect("every tensor renamed");
        assert!(name.starts_with(&format!("tensor x/{first} (")), "{name}");
        assert!(name.contains(&format!("required {first} (")), "{name}");

        // Another scale registers the same names with other shapes.
        let shape = refusal(&params, AgentScale::quick()).expect("tiny parameters, quick agent");
        let stored = params.get(params.ids().next().unwrap());
        let have = format!("tensor {first} ({}x{}) does not fit", stored.rows(), stored.cols());
        assert!(shape.starts_with(&have), "{shape}");
        assert!(shape.ends_with("trained for a different graph size or device count?"));
    }
}
