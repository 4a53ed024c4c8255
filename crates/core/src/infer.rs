//! The inference path: policy + graph → best-of-K placement.
//!
//! What EAGLE ships is a placement decoded from the trained policy: sample
//! per-group devices, decode them through the grouper, simulate, keep the
//! fastest candidate that fits. [`candidates`] is the decode → simulate step
//! for any ranges of any seeded draws' candidates at once, on the calling
//! thread, and [`best`] the keep-the-fastest reduce; [`best_of`] is the two
//! over each draw's whole range. The serving router calls [`candidates`] on
//! each share of a wave it spreads over the host's threads, a lone
//! request's candidates included, and reduces each request over its shares;
//! the trainer's zero-shot probes and the `transfer` bench call [`best_of`]
//! with one draw. [`EagleAgent::for_params`] is the one way to put an agent
//! around stored parameters: it computes everything before the placer's
//! decoder loop once, so under those very tensors a sampling forward runs
//! only that loop, with the full forward's bits (the trainer never builds
//! one). Whatever makes a placement feasible by construction (capacity masks
//! during decode, a greedy repair of an over-full device) belongs between the
//! decode and the simulation in [`candidates`], and nowhere else.

use std::ops::Range;

use eagle_devsim::{CostGraph, Machine, Placement};
use eagle_opgraph::OpGraph;
use eagle_rl::{fork_streams, Draws};
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
    /// (graph, machine) pair, refusing parameters of another layout, and
    /// prepares its request-independent forward under `params` (module doc).
    /// Given any other tensors it answers as a fresh agent does.
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
        let mut agent = Self::new_for_inference(&mut scratch, graph, machine, scale, &mut rng);
        check_layout(&scratch, params)?;
        agent.prepare(params);
        Ok(agent)
    }
}

/// The fastest valid candidate, ties to the lowest index (`min_by` keeps the
/// first of equal minima).
fn fastest(times: &[Option<f64>]) -> Option<(f64, usize)> {
    let valid = times.iter().enumerate().filter_map(|(c, t)| t.map(|t| (t, c)));
    valid.min_by(|a, b| a.0.total_cmp(&b.0))
}

/// One simulated candidate: its predicted step time (`None` when it exceeds
/// device memory) and its placement.
pub type Candidate = (Option<f64>, Placement);

/// The candidates `range` of each `(seed, range)` draw, simulated over
/// `cost`, in draw then candidate order.
///
/// A draw forks its seed's `ChaCha8Rng::seed_from_u64(seed)` into
/// `range.end` streams and keeps `range`, so candidate `c` reads the same
/// stream in any range that holds it: its result depends only on
/// `(seed, c)`, never on the range or on batch-mates, and the runs over
/// `[0..j)` and `[j..c)` concatenate to the run over `[0..c)` (an empty
/// range runs nothing). All draws share one sampling forward and one
/// `decode_batch` (on a serving agent: one decoder forward and a lookup of
/// the group assignment); every candidate is then simulated in turn on the
/// calling thread. `cost` is the [`CostGraph`] of the graph and machine
/// `agent` places.
pub fn candidates<A: PlacementAgent>(
    agent: &A,
    params: &Params,
    cost: &CostGraph,
    draws: &[(u64, Range<usize>)],
) -> Vec<Candidate> {
    let mut streams: Vec<ChaCha8Rng> = Vec::new();
    for (seed, range) in draws {
        let mut master = ChaCha8Rng::seed_from_u64(*seed);
        let forked = fork_streams(&mut master, agent.rng_draws_per_sample(), range.end);
        streams.extend(forked.into_iter().skip(range.start));
    }
    if streams.is_empty() {
        return Vec::new();
    }
    let mut stream_refs: Vec<&mut dyn RngCore> =
        streams.iter_mut().map(|r| r as &mut dyn RngCore).collect();
    // The forward itself, not `sample_batch`: the tape is dropped here, so
    // nothing kept pins the parameters for the caller's next write.
    let (_, actions) = agent.forward_batch(params, Draws::Sample(&mut stream_refs));
    let placements = agent.decode_batch(params, &actions);
    placements.into_iter().map(|p| (cost.simulate(&p).step_time(), p)).collect()
}

/// The fastest valid of `candidates` with its predicted step time, ties to
/// the lowest index, or `None` when every one exceeds device memory.
pub fn best(candidates: &[Candidate]) -> Option<(f64, Placement)> {
    let times: Vec<Option<f64>> = candidates.iter().map(|c| c.0).collect();
    fastest(&times).map(|(t, c)| (t, candidates[c].1.clone()))
}

/// Best-of-K placements of `graph` on `machine` under the policy
/// (`agent`, `params`), one answer per `(seed, candidates)` draw: the
/// [`best`] of [`candidates`] over each draw's whole range `0..candidates`,
/// all simulated over one [`CostGraph`] built for the call.
pub fn best_of<A: PlacementAgent>(
    agent: &A,
    params: &Params,
    graph: &OpGraph,
    machine: &Machine,
    draws: &[(u64, usize)],
) -> Vec<Option<(f64, Placement)>> {
    let whole: Vec<(u64, Range<usize>)> = draws.iter().map(|&(seed, k)| (seed, 0..k)).collect();
    let all = candidates(agent, params, &CostGraph::new(graph, machine), &whole);
    let mut rest = &all[..];
    draws
        .iter()
        .map(|&(_, k)| {
            let (draw, tail) = rest.split_at(k);
            rest = tail;
            best(draw)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_devsim::simulate;
    use eagle_opgraph::builders::{self, GnmtConfig};
    use eagle_rl::StochasticPolicy;
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
        let together = best_of(&agent, &params, &graph, &machine, &[a, b]);
        let alone_a = best_of(&agent, &params, &graph, &machine, &[a]);
        let alone_b = best_of(&agent, &params, &graph, &machine, &[b]);
        assert_eq!(together.len(), 2);
        for (joint, alone) in together.iter().zip([&alone_a[0], &alone_b[0]]) {
            let (jt, jp) = joint.as_ref().expect("the paper machine fits the tiny graph");
            let (at, ap) = alone.as_ref().expect("the paper machine fits the tiny graph");
            assert_eq!(jt.to_bits(), at.to_bits());
            assert_eq!(jp, ap);
            assert_eq!(simulate(&graph, &machine, jp).step_time(), Some(*jt));
        }
    }

    /// Asserts the runs over `[0..j)` and `[j..c)` concatenate, bit for bit,
    /// to the run over `[0..c)` at every cut `j`, and that its [`best`] is
    /// `best_of`'s answer.
    fn assert_cuts_concatenate<A: PlacementAgent>(agent: &A, params: &Params, graph: &OpGraph) {
        let machine = Machine::paper_machine();
        let cost = CostGraph::new(graph, &machine);
        let bits = |run: &[Candidate]| -> Vec<(Option<u64>, Placement)> {
            run.iter().map(|(t, p)| (t.map(f64::to_bits), p.clone())).collect()
        };
        for (seed, c) in [(11, 1), (12, 3), (13, 16)] {
            let whole = candidates(agent, params, &cost, &[(seed, 0..c)]);
            assert_eq!(whole.len(), c);
            let want = best_of(agent, params, graph, &machine, &[(seed, c)]).remove(0);
            assert_eq!(best(&whole), want);
            for j in 0..=c {
                let mut cut = candidates(agent, params, &cost, &[(seed, 0..j)]);
                cut.extend(candidates(agent, params, &cost, &[(seed, j..c)]));
                assert_eq!(bits(&cut), bits(&whole), "seed {seed}, cut {j} of {c}");
            }
        }
    }

    #[test]
    fn a_training_agents_candidates_split_at_any_cut() {
        let graph = tiny_graph();
        let (agent, params) = policy(&graph, &Machine::paper_machine());
        assert_cuts_concatenate(&agent, &params, &graph);
    }

    #[test]
    fn a_serving_agents_candidates_split_at_any_cut() {
        let graph = tiny_graph();
        let machine = Machine::paper_machine();
        let (_, params) = policy(&graph, &machine);
        let agent = EagleAgent::for_params(&params, &graph, &machine, AgentScale::tiny()).unwrap();
        assert_cuts_concatenate(&agent, &params, &graph);
    }

    #[test]
    fn an_all_oom_draw_is_none_while_its_batch_mate_is_answered() {
        let graph = tiny_graph();
        let machine = tight_machine(&graph, 0.7);
        let (agent, params) = policy(&graph, &machine);
        let one = |seed: u64| best_of(&agent, &params, &graph, &machine, &[(seed, 1)]).remove(0);
        let oom = (0..256).find(|&s| one(s).is_none()).expect("some single candidate OOMs");
        let fits = (0..256).find(|&s| one(s).is_some()).expect("some single candidate fits");
        let both = best_of(&agent, &params, &graph, &machine, &[(oom, 1), (fits, 1)]);
        assert_eq!(both[0], None);
        assert_eq!(both[1], one(fits));
    }

    /// Writes every parameter and asserts each write lands in place: no
    /// tape still holds one.
    fn assert_written_in_place(params: &mut Params) {
        for id in params.ids().collect::<Vec<_>>() {
            let at = params.get(id) as *const Tensor;
            params.get_mut(id).data_mut()[0] += 1.0;
            assert!(std::ptr::eq(params.get(id), at), "{} was copied", params.name(id));
        }
    }

    #[test]
    fn best_of_keeps_no_forward() {
        let graph = tiny_graph();
        let machine = Machine::paper_machine();
        let (agent, mut params) = policy(&graph, &machine);
        let slot = agent.replay_slot().expect("a training agent has a replay slot");
        best_of(&agent, &params, &graph, &machine, &[(5, 3)]);
        assert!(slot.is_empty());
        assert_written_in_place(&mut params);
    }

    #[test]
    fn a_prepared_agent_keeps_no_forward() {
        let graph = tiny_graph();
        let machine = Machine::paper_machine();
        let (training, params) = policy(&graph, &machine);
        let agent = EagleAgent::for_params(&params, &graph, &machine, AgentScale::tiny()).unwrap();
        assert!(agent.replay_slot().is_none());
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let (actions, logp) = agent.sample_batch(&params, &mut [&mut rng]).remove(0);
        assert!(agent.replay_slot().is_none());
        // The score is the training agent's full replay, not the sampling
        // tape: that one records only the decoder loop, with no gradient
        // path into the grouper, link or encoder.
        let h = agent.score_batch(&params, std::slice::from_ref(&actions));
        let full = training.score_batch(&params, &[actions]);
        assert_eq!(h.tape.len(), full.tape.len());
        let logp_of = |h: &eagle_rl::BatchScoreHandle| h.tape.value(h.episodes[0].log_prob).item();
        assert_eq!(logp_of(&h).to_bits(), logp.to_bits());
        assert_eq!(logp_of(&full).to_bits(), logp.to_bits());
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
