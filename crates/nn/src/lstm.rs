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

    /// One step: `x (n, in_dim)`, state `(n, hidden)` -> next state, with
    /// its own input product (the decoder's: its input depends on `h`).
    pub fn step(&self, tape: &mut Tape, params: &Params, x: Var, state: LstmState) -> LstmState {
        let w_ih = tape.param(params, self.w_ih);
        let xw = tape.matmul(x, w_ih);
        self.gates(tape, params, xw, state)
    }

    /// The step after its input product `xw (n, 4 * hidden)`: the gate
    /// pre-activations are three nodes; gates, nonlinearities and the state
    /// update are the fused [`Tape::lstm_cell`].
    fn gates(&self, tape: &mut Tape, params: &Params, xw: Var, state: LstmState) -> LstmState {
        let z = self.pre_activations(tape, params, xw, state.h);
        let (h, c) = tape.lstm_cell(z, state.c);
        LstmState { h, c }
    }

    /// `xw + h @ w_hh + b`: `(n, 4 * hidden)`, gate order `[i f g o]`.
    fn pre_activations(&self, tape: &mut Tape, params: &Params, xw: Var, h: Var) -> Var {
        let w_hh = tape.param(params, self.w_hh);
        let b = tape.param(params, self.b);
        let hh = tape.matmul(h, w_hh);
        let z0 = tape.add(xw, hh);
        tape.add_row_broadcast(z0, b)
    }

    /// The recurrence, written once: from a zero state, steps `B` equal-length
    /// sequences `xs` (each `(t, in_dim)`, one row per timestep) in lockstep —
    /// timestep `i` is one `(B, in_dim)` step — ascending, or descending when
    /// `rev`. Returns the `(B, hidden)` hidden state after each timestep,
    /// indexed by timestep, and the state after the last step taken.
    ///
    /// The input products of all steps are one product before the loop
    /// ([`Tape::matmul_stacked`]), the `B`-row blocks stacked last step first
    /// — the order the backward reaches them — and each step slices its block
    /// and adds only `h @ w_hh + b`. The bits are those of one `x @ w_ih` per
    /// step: values and input gradients are row-independent; the weight
    /// gradient adds each step's `B`-row partial sum, from `+0.0`, in deposit
    /// order; and a one-row partial (`B = 1`) equals a single accumulator,
    /// since a partial is never `-0.0`.
    ///
    /// Row `b` is bit-identical to running sequence `b` alone: the step math
    /// (matmul, bias broadcast, gates) is row-wise, so stacking sequences as
    /// extra rows leaves each sequence's f32 summation order unchanged; and
    /// with one sequence the stacking of sequences records nothing (see
    /// [`Tape::concat_rows`]).
    fn run(
        &self,
        tape: &mut Tape,
        params: &Params,
        xs: &[Var],
        rev: bool,
    ) -> (Vec<Var>, LstmState) {
        assert!(!xs.is_empty(), "at least one sequence");
        let (n, t) = (xs.len(), tape.value(xs[0]).rows());
        for &x in xs {
            assert_eq!(tape.value(x).rows(), t, "all sequences share one length");
        }
        let timestep = |step: usize| if rev { t - 1 - step } else { step };
        // Row `j·n + b` of the stack: sequence `b` at the `j`-th step from last.
        let order: Vec<usize> =
            (0..t).rev().flat_map(|step| (0..n).map(move |b| b * t + timestep(step))).collect();
        let seqs = tape.concat_rows(xs);
        let stacked = tape.select_rows(seqs, &order);
        let w_ih = tape.param(params, self.w_ih);
        let xw = tape.matmul_stacked(stacked, w_ih, n);
        let mut state = self.zero_state(tape, n);
        let mut outs = vec![state.h; t];
        for step in 0..t {
            let xw_step = tape.slice_rows(xw, (t - 1 - step) * n, n);
            state = self.gates(tape, params, xw_step, state);
            outs[timestep(step)] = state.h;
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
    /// initialize decoders). Each sequence gathers its rows from one
    /// time-major stack per direction: a hidden-state element still takes
    /// one output deposit.
    pub fn forward_batch(
        &self,
        tape: &mut Tape,
        params: &Params,
        xs: &[Var],
    ) -> Vec<(Var, LstmState)> {
        let (fw_outs, fw_last) = self.fw.run(tape, params, xs, false);
        let (bw_outs, _) = self.bw.run(tape, params, xs, true);
        let (n, t) = (xs.len(), fw_outs.len());
        // Row `i·n + b`: sequence `b` at timestep `i`.
        let fw = tape.concat_rows(&fw_outs);
        let bw = tape.concat_rows(&bw_outs);
        (0..n)
            .map(|b| {
                let rows: Vec<usize> = (0..t).map(|i| i * n + b).collect();
                let f = tape.select_rows(fw, &rows);
                let w = tape.select_rows(bw, &rows);
                let outs = tape.concat_cols(&[f, w]);
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
            let w_ih = tape.param(params, self.w_ih);
            let xw = tape.matmul(x, w_ih);
            let z = self.pre_activations(tape, params, xw, state.h);
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

    /// [`LstmCell::run`] as hand-written steps, each slicing its rows out of
    /// the `B` sequences and running [`LstmCell::step`] with its own input
    /// product: the oracle `run`'s one input product is held against.
    impl LstmCell {
        fn run_serial(
            &self,
            tape: &mut Tape,
            params: &Params,
            xs: &[Var],
            rev: bool,
        ) -> (Vec<Var>, LstmState) {
            let t = tape.value(xs[0]).rows();
            let mut state = self.zero_state(tape, xs.len());
            let mut outs = vec![state.h; t];
            for step in 0..t {
                let i = if rev { t - 1 - step } else { step };
                let rows: Vec<Var> = xs.iter().map(|&x| tape.slice_rows(x, i, 1)).collect();
                let x = tape.concat_rows(&rows);
                state = self.step(tape, params, x, state);
                outs[i] = state.h;
            }
            (outs, state)
        }
    }

    /// The hand-written encoder — two per-step time loops, then per
    /// sequence a row-by-row assembly: what the seq2seq oracle
    /// `Placer::forward_serial` encodes with (one sequence), and the oracle
    /// [`BiLstm::forward_batch`] is held against.
    impl BiLstm {
        pub(crate) fn forward(
            &self,
            tape: &mut Tape,
            params: &Params,
            xs: &[Var],
        ) -> Vec<(Var, LstmState)> {
            let t = tape.value(xs[0]).rows();
            let (fw_outs, fw_state) = self.fw.run_serial(tape, params, xs, false);
            let (bw_outs, _) = self.bw.run_serial(tape, params, xs, true);
            (0..xs.len())
                .map(|b| {
                    let rows: Vec<Var> = (0..t)
                        .map(|i| {
                            let f = tape.slice_rows(fw_outs[i], b, 1);
                            let w = tape.slice_rows(bw_outs[i], b, 1);
                            tape.concat_cols(&[f, w])
                        })
                        .collect();
                    let outs = tape.concat_rows(&rows);
                    let last = LstmState {
                        h: tape.slice_rows(fw_state.h, b, 1),
                        c: tape.slice_rows(fw_state.c, b, 1),
                    };
                    (outs, last)
                })
                .collect()
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

    /// Every value a forward `f` returns and every gradient of a loss over
    /// them: each output weighted by its own constant, plus `sum(h * c)` of
    /// each last state. The inputs are parameters, so their gradients are
    /// compared with the weights'.
    fn values_and_grads(
        params: &Params,
        xs: &[ParamId],
        f: impl FnOnce(&mut Tape, &[Var]) -> Vec<(Var, LstmState)>,
    ) -> (Vec<Vec<u32>>, Vec<Option<Vec<u32>>>) {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut tape = Tape::new();
        let xv: Vec<Var> = xs.iter().map(|&x| tape.param(params, x)).collect();
        let outs = f(&mut tape, &xv);
        let (mut values, mut terms) = (Vec::new(), Vec::new());
        for (b, (out, last)) in outs.into_iter().enumerate() {
            for v in [out, last.h, last.c] {
                values.push(bits(tape.value(v)));
            }
            let (rows, cols) = tape.value(out).shape();
            let w = (0..rows * cols).map(|j| ((j * 7 + b * 3) % 11) as f32 / 4.0 - 1.2).collect();
            let w = tape.leaf(Tensor::from_vec(rows, cols, w));
            let weighted = tape.mul_elem(out, w);
            terms.push(tape.sum_all(weighted));
            let hc = tape.mul_elem(last.h, last.c);
            terms.push(tape.sum_all(hc));
        }
        let loss = tape.add_n(&terms);
        let mut grads = Grads::for_params(params);
        tape.backward_into(loss, &mut grads);
        (values, params.ids().map(|id| grads.get(id).map(bits)).collect())
    }

    #[test]
    fn one_input_product_matches_the_per_step_oracle_bitwise() {
        // B = 3 distinct sequences and B = 1; t = 3 keeps the stacked input
        // product's weight gradient streamed at B = 3 (9 rows, 4h = 32
        // columns), t = 5 packs it (15 rows).
        for (n, t) in [(1, 3), (1, 5), (3, 3), (3, 5)] {
            let mut params = Params::new();
            let mut rng = ChaCha8Rng::seed_from_u64(29);
            let bi = BiLstm::new(&mut params, "b", 5, 8, &mut rng);
            let xs: Vec<ParamId> = (0..n)
                .map(|b| params.add(format!("x{b}"), init::uniform(t, 5, 1.0, &mut rng)))
                .collect();
            let batched =
                values_and_grads(&params, &xs, |tape, xv| bi.forward_batch(tape, &params, xv));
            let oracle = values_and_grads(&params, &xs, |tape, xv| bi.forward(tape, &params, xv));
            assert!(batched == oracle, "bi-LSTM, {n} sequences of {t}");
            for (cell, rev) in [(&bi.fw, false), (&bi.bw, true)] {
                // One direction's per-step outputs stacked, so both sides
                // weigh the same `(t·B, h)` matrix.
                let stacked = |tape: &mut Tape, (outs, last): (Vec<Var>, LstmState)| {
                    vec![(tape.concat_rows(&outs), last)]
                };
                let run = values_and_grads(&params, &xs, |tape, xv| {
                    let r = cell.run(tape, &params, xv, rev);
                    stacked(tape, r)
                });
                let oracle = values_and_grads(&params, &xs, |tape, xv| {
                    let r = cell.run_serial(tape, &params, xv, rev);
                    stacked(tape, r)
                });
                assert!(run == oracle, "cell, reversed {rev}, {n} sequences of {t}");
                if n == 1 && !rev {
                    let lstm = Lstm { cell: cell.clone() };
                    let forward = values_and_grads(&params, &xs, |tape, xv| {
                        vec![lstm.forward(tape, &params, xv[0])]
                    });
                    assert!(forward == oracle, "Lstm::forward, one sequence of {t}");
                }
            }
        }
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
        let (outs, _) = bi.forward_batch(&mut tape, &params, &[xs])[0];
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
