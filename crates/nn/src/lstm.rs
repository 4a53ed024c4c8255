//! LSTM cells and (bi-)directional sequence encoders.

use eagle_tensor::{init, ParamId, Params, Tape, Tensor, Var};
use rand::Rng;

/// A fused LSTM cell: one input->4h and one hidden->4h weight matrix, gate order
/// `[input, forget, cell, output]`, forget-gate bias initialized to 1.
#[derive(Debug, Clone)]
pub struct LstmCell {
    w_ih: ParamId,
    w_hh: ParamId,
    b: ParamId,
    /// Hidden dimension.
    pub hidden: usize,
}

/// Hidden and cell state pair on the tape.
#[derive(Debug, Clone, Copy)]
pub struct LstmState {
    /// Hidden state `(1, hidden)` (or `(n, hidden)` when stepping a batch).
    pub h: Var,
    /// Cell state, same shape as `h`.
    pub c: Var,
}

impl LstmCell {
    /// Registers the cell's parameters.
    pub fn new(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w_ih =
            params.add(format!("{name}/w_ih"), init::xavier_uniform(in_dim, 4 * hidden, rng));
        let w_hh =
            params.add(format!("{name}/w_hh"), init::xavier_uniform(hidden, 4 * hidden, rng));
        let mut bias = Tensor::zeros(1, 4 * hidden);
        // Forget-gate bias 1.0: standard trick to keep memory early in training.
        for j in hidden..2 * hidden {
            bias.set(0, j, 1.0);
        }
        let b = params.add(format!("{name}/b"), bias);
        Self { w_ih, w_hh, b, hidden }
    }

    /// Initial zero state for a batch of `n` rows.
    pub fn zero_state(&self, tape: &mut Tape, n: usize) -> LstmState {
        LstmState {
            h: tape.leaf(Tensor::zeros(n, self.hidden)),
            c: tape.leaf(Tensor::zeros(n, self.hidden)),
        }
    }

    /// One step: `x (n, in_dim)`, state `(n, hidden)` -> next state. The gate
    /// pre-activations are four nodes; gates, nonlinearities and the state
    /// update are the fused [`Tape::lstm_cell`].
    pub fn step(&self, tape: &mut Tape, params: &Params, x: Var, state: LstmState) -> LstmState {
        let z = self.pre_activations(tape, params, x, state.h);
        let (h, c) = tape.lstm_cell(z, state.c);
        LstmState { h, c }
    }

    /// `x @ w_ih + h @ w_hh + b`: `(n, 4 * hidden)`, gate order `[i f g o]`.
    fn pre_activations(&self, tape: &mut Tape, params: &Params, x: Var, h: Var) -> Var {
        let w_ih = tape.param(params, self.w_ih);
        let w_hh = tape.param(params, self.w_hh);
        let b = tape.param(params, self.b);
        let xi = tape.matmul(x, w_ih);
        let hh = tape.matmul(h, w_hh);
        let z0 = tape.add(xi, hh);
        tape.add_row_broadcast(z0, b)
    }

    /// The recurrence, written once: from a zero state, steps `B` equal-length
    /// sequences `xs` (each `(t, in_dim)`, one row per timestep) in lockstep —
    /// timestep `i` is one `(B, in_dim)` step — ascending, or descending when
    /// `rev`. Returns the `(B, hidden)` hidden state after each timestep,
    /// indexed by timestep, and the state after the last step taken.
    ///
    /// Row `b` is bit-identical to running sequence `b` alone: the step math
    /// (matmul, bias broadcast, gates) is row-wise, so stacking sequences as
    /// extra rows leaves each sequence's f32 summation order unchanged; and
    /// with one sequence the stacking records nothing (see
    /// [`Tape::concat_rows`]).
    fn run(
        &self,
        tape: &mut Tape,
        params: &Params,
        xs: &[Var],
        rev: bool,
    ) -> (Vec<Var>, LstmState) {
        assert!(!xs.is_empty(), "at least one sequence");
        let t = tape.value(xs[0]).rows();
        for &x in xs {
            assert_eq!(tape.value(x).rows(), t, "all sequences share one length");
        }
        let mut state = self.zero_state(tape, xs.len());
        let mut outs = vec![state.h; t];
        let mut rows = Vec::with_capacity(xs.len());
        for step in 0..t {
            let i = if rev { t - 1 - step } else { step };
            rows.clear();
            rows.extend(xs.iter().map(|&x| tape.slice_rows(x, i, 1)));
            let x = tape.concat_rows(&rows);
            state = self.step(tape, params, x, state);
            outs[i] = state.h;
        }
        (outs, state)
    }
}

/// A uni-directional LSTM over a sequence laid out as rows of a matrix.
#[derive(Debug, Clone)]
pub struct Lstm {
    /// The underlying cell.
    pub cell: LstmCell,
}

impl Lstm {
    /// Registers a new LSTM.
    pub fn new(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self { cell: LstmCell::new(params, name, in_dim, hidden, rng) }
    }

    /// Runs over `xs (t, in_dim)` (each row one timestep) and returns the per-step
    /// hidden states stacked as `(t, hidden)` plus the final state.
    pub fn forward(&self, tape: &mut Tape, params: &Params, xs: Var) -> (Var, LstmState) {
        let (outs, last) = self.cell.run(tape, params, &[xs], false);
        (tape.concat_rows(&outs), last)
    }
}

/// A bidirectional LSTM: forward and backward passes concatenated per step —
/// the encoder of the paper's sequence-to-sequence placer.
#[derive(Debug, Clone)]
pub struct BiLstm {
    fw: LstmCell,
    bw: LstmCell,
}

impl BiLstm {
    /// Registers both directions.
    pub fn new(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            fw: LstmCell::new(params, &format!("{name}/fw"), in_dim, hidden, rng),
            bw: LstmCell::new(params, &format!("{name}/bw"), in_dim, hidden, rng),
        }
    }

    /// Runs the encoder over `B` equal-length sequences `xs` (each
    /// `(t, in_dim)`) — two `LstmCell::run`s, forward then backward —
    /// returning per sequence the `(t, 2*hidden)` outputs (both directions
    /// side by side per step) and the final forward-direction state (used to
    /// initialize decoders).
    pub fn forward_batch(
        &self,
        tape: &mut Tape,
        params: &Params,
        xs: &[Var],
    ) -> Vec<(Var, LstmState)> {
        let (fw_outs, fw_last) = self.fw.run(tape, params, xs, false);
        let (bw_outs, _) = self.bw.run(tape, params, xs, true);
        (0..xs.len())
            .map(|b| {
                let rows: Vec<Var> = fw_outs
                    .iter()
                    .zip(&bw_outs)
                    .map(|(&f, &w)| {
                        let f = tape.slice_rows(f, b, 1);
                        let w = tape.slice_rows(w, b, 1);
                        tape.concat_cols(&[f, w])
                    })
                    .collect();
                let outs = tape.concat_rows(&rows);
                let last = LstmState {
                    h: tape.slice_rows(fw_last.h, b, 1),
                    c: tape.slice_rows(fw_last.c, b, 1),
                };
                (outs, last)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_tensor::{optim::Adam, Grads};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The step with gates, nonlinearities and state update as thirteen tape
    /// nodes: the differential oracle the fused [`LstmCell::step`] is held
    /// against bit for bit.
    impl LstmCell {
        fn step_composed(
            &self,
            tape: &mut Tape,
            params: &Params,
            x: Var,
            state: LstmState,
        ) -> LstmState {
            let z = self.pre_activations(tape, params, x, state.h);
            let h = self.hidden;
            let zi = tape.slice_cols(z, 0, h);
            let zf = tape.slice_cols(z, h, h);
            let zg = tape.slice_cols(z, 2 * h, h);
            let zo = tape.slice_cols(z, 3 * h, h);
            let i = tape.sigmoid(zi);
            let f = tape.sigmoid(zf);
            let g = tape.tanh(zg);
            let o = tape.sigmoid(zo);
            let fc = tape.mul_elem(f, state.c);
            let ig = tape.mul_elem(i, g);
            let c = tape.add(fc, ig);
            let tc = tape.tanh(c);
            let h_out = tape.mul_elem(o, tc);
            LstmState { h: h_out, c }
        }
    }

    /// The hand-written one-sequence encoder — two explicit time loops, no
    /// stacking: what the seq2seq oracle `Placer::forward_serial` encodes
    /// with, and so the oracle [`BiLstm::forward_batch`] is held against
    /// through it.
    impl BiLstm {
        pub(crate) fn forward(
            &self,
            tape: &mut Tape,
            params: &Params,
            xs: Var,
        ) -> (Var, LstmState) {
            let t = tape.value(xs).rows();
            let mut fw_state = self.fw.zero_state(tape, 1);
            let mut fw_outs = Vec::with_capacity(t);
            for i in 0..t {
                let x = tape.slice_rows(xs, i, 1);
                fw_state = self.fw.step(tape, params, x, fw_state);
                fw_outs.push(fw_state.h);
            }
            let mut bw_state = self.bw.zero_state(tape, 1);
            let mut bw_outs = vec![fw_outs[0]; t];
            for i in (0..t).rev() {
                let x = tape.slice_rows(xs, i, 1);
                bw_state = self.bw.step(tape, params, x, bw_state);
                bw_outs[i] = bw_state.h;
            }
            let rows: Vec<Var> =
                (0..t).map(|i| tape.concat_cols(&[fw_outs[i], bw_outs[i]])).collect();
            (tape.concat_rows(&rows), fw_state)
        }
    }

    type Step = fn(&LstmCell, &mut Tape, &Params, Var, LstmState) -> LstmState;

    #[test]
    fn fused_step_matches_composed_chain_bitwise() {
        // Three chained steps: each cell state feeds the next step and this
        // step's `tanh`, so its gradient slot takes two deposits whose order
        // a gradcheck cannot see. Inputs and initial state are parameters, so
        // their gradients are compared along with the weights'.
        const STEPS: usize = 3;
        for n in [1, 10] {
            let mut params = Params::new();
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            let cell = LstmCell::new(&mut params, "c", 5, 6, &mut rng);
            let xs: Vec<_> = (0..STEPS)
                .map(|t| params.add(format!("x{t}"), init::uniform(n, 5, 1.0, &mut rng)))
                .collect();
            let h0 = params.add("h0", init::uniform(n, 6, 1.0, &mut rng));
            let c0 = params.add("c0", init::uniform(n, 6, 1.0, &mut rng));
            let weights: Vec<Tensor> =
                (0..=STEPS).map(|_| init::uniform(n, 6, 1.0, &mut rng)).collect();

            let run = |step: Step| {
                let mut tape = Tape::new();
                let mut state =
                    LstmState { h: tape.param(&params, h0), c: tape.param(&params, c0) };
                let (mut values, mut terms) = (Vec::new(), Vec::new());
                let weigh = |tape: &mut Tape, v: Var, w: &Tensor| {
                    let w = tape.leaf(w.clone());
                    let weighted = tape.mul_elem(v, w);
                    tape.sum_all(weighted)
                };
                for (t, &x) in xs.iter().enumerate() {
                    let x = tape.param(&params, x);
                    state = step(&cell, &mut tape, &params, x, state);
                    values.push(tape.value(state.h).clone());
                    values.push(tape.value(state.c).clone());
                    terms.push(weigh(&mut tape, state.h, &weights[t]));
                }
                terms.push(weigh(&mut tape, state.c, &weights[STEPS]));
                let loss = tape.add_n(&terms);
                let mut grads = Grads::for_params(&params);
                tape.backward_into(loss, &mut grads);
                (values, grads, tape.len())
            };
            let (fused_values, fused_grads, fused_nodes) = run(LstmCell::step);
            let (values, grads, nodes) = run(LstmCell::step_composed);
            assert_eq!(nodes - fused_nodes, STEPS * 11, "13 gate/state nodes became 2");
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for (i, (a, b)) in fused_values.iter().zip(&values).enumerate() {
                assert_eq!(bits(a), bits(b), "batch {n}: state value {i}");
            }
            for id in params.ids() {
                assert_eq!(
                    fused_grads.get(id).map(bits),
                    grads.get(id).map(bits),
                    "batch {n}: gradient of {}",
                    params.name(id)
                );
            }
        }
    }

    #[test]
    fn cell_shapes_and_bounded_outputs() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let cell = LstmCell::new(&mut params, "c", 4, 6, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::full(2, 4, 0.5));
        let s0 = cell.zero_state(&mut tape, 2);
        let s1 = cell.step(&mut tape, &params, x, s0);
        assert_eq!(tape.value(s1.h).shape(), (2, 6));
        assert_eq!(tape.value(s1.c).shape(), (2, 6));
        assert!(tape.value(s1.h).data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn lstm_sequence_output_shape() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let lstm = Lstm::new(&mut params, "l", 3, 5, &mut rng);
        let mut tape = Tape::new();
        let xs = tape.leaf(Tensor::full(7, 3, 0.1));
        let (outs, last) = lstm.forward(&mut tape, &params, xs);
        assert_eq!(tape.value(outs).shape(), (7, 5));
        // Last row of outs equals the final hidden state.
        let last_row = tape.value(outs).row(6).to_vec();
        assert_eq!(last_row, tape.value(last.h).row(0).to_vec());
    }

    #[test]
    fn bilstm_output_concatenates_directions() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let bi = BiLstm::new(&mut params, "b", 3, 4, &mut rng);
        let mut tape = Tape::new();
        let xs = tape.leaf(Tensor::full(5, 3, 0.2));
        let (outs, _) = bi.forward(&mut tape, &params, xs);
        assert_eq!(tape.value(outs).shape(), (5, 8));
    }

    #[test]
    fn lstm_memorizes_first_token() {
        // Task: output at the end of the sequence = first input bit. Requires real
        // memory, exercising cell-state gradients end to end (BPTT).
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let lstm = Lstm::new(&mut params, "mem", 1, 8, &mut rng);
        let head = crate::linear::Linear::new(&mut params, "head", 8, 1, &mut rng);
        let mut opt = Adam::new(0.02);
        let mut grads = Grads::for_params(&params);
        let seqs: Vec<(Vec<f32>, f32)> = vec![
            (vec![1.0, 0.3, -0.2, 0.6], 1.0),
            (vec![-1.0, 0.3, -0.2, 0.6], -1.0),
            (vec![1.0, -0.6, 0.1, 0.0], 1.0),
            (vec![-1.0, -0.6, 0.1, 0.0], -1.0),
        ];
        let mut last_loss = f32::INFINITY;
        for _ in 0..300 {
            grads.zero();
            let mut total = 0.0;
            for (seq, target) in &seqs {
                let mut tape = Tape::new();
                let xs = tape.leaf(Tensor::from_vec(4, 1, seq.clone()));
                let (_, last) = lstm.forward(&mut tape, &params, xs);
                let pred = head.forward(&mut tape, &params, last.h);
                let t = tape.leaf(Tensor::scalar(*target));
                let err = tape.sub(pred, t);
                let sq = tape.mul_elem(err, err);
                let loss = tape.sum_all(sq);
                total += tape.value(loss).item();
                tape.backward_into(loss, &mut grads);
            }
            last_loss = total / seqs.len() as f32;
            opt.step_grads(&mut params, &grads);
        }
        assert!(last_loss < 0.05, "memory task not learned: {last_loss}");
    }
}
