//! The real training step, decomposed, and its stage replay.
//!
//! [`real_step`] drives one `DistMoeLayer` step through the public API
//! (forward, MSE loss, backward, update) — the same arithmetic as
//! `models::dist_train_step` — and times each call. The layer has no
//! injection point for ordering, the ESP collectives, the row layout or
//! the grouped GEMM, so [`Replay::step`] re-executes the step stage by
//! stage from public calls on a replica layer and times each stage
//! there. The replay must reproduce the real step bit for bit (output,
//! loss, input gradient, updated shards — [`check_same`]); otherwise it
//! would be measuring a different program, and the run fails.

use collectives::{Communicator, GroupComm};
use fsmoe::config::MoeConfig;
use fsmoe::dispatch::NcclA2A;
use fsmoe::dist::{DistMoeGrads, DistMoeLayer};
use fsmoe::expert::Expert;
use fsmoe::gate::{GShardGate, Gate};
use fsmoe::grouped::{self, GroupedState};
use fsmoe::order::{combine_backward, order_backward, OrderFn, TutelOrdering};
use fsmoe::routing::Routing;
use tensor::{Tensor, TensorRng};

use crate::trace::{
    nonzero_rows, thread_minor_faults, Span, SpanLog, Stage, TimedDispatcher, TimedGate,
};
use crate::workload::{gate_for, Workload};
use crate::Result;

/// What a training step produced, for the bit-identity check.
#[derive(Debug, Clone)]
pub struct StepOut {
    /// Layer output.
    pub output: Tensor,
    /// MSE loss before the update.
    pub loss: f32,
    /// Gradient with respect to the layer input.
    pub grad_input: Tensor,
}

/// MSE loss of `y` against `target` and its gradient, exactly as
/// `models::dist_train_step` computes them.
///
/// # Errors
///
/// Returns an error on a shape mismatch.
pub fn mse(y: &Tensor, target: &Tensor) -> Result<(f32, Tensor)> {
    let err = y.sub(target)?;
    let loss = err.map(|v| v * v).mean();
    let grad = err.scale(2.0 / y.num_elements() as f32);
    Ok((loss, grad))
}

/// Builds the measured layer with the timing wrappers injected: the
/// gate through `DistMoeLayer::with_gate`, the AlltoAll through
/// `set_dispatcher`. Weights are identical to `DistMoeLayer::gshard`
/// with the same seed.
///
/// # Errors
///
/// Propagates layer construction failures.
pub fn timed_layer(
    w: &Workload,
    seed: u64,
    comm: &Communicator,
    log: &SpanLog,
) -> Result<DistMoeLayer> {
    let topo = w.topology()?;
    let (gate, mut rng) = gate_for(w, seed);
    let gate = TimedGate::new(gate, log.clone());
    let mut layer = DistMoeLayer::with_gate(&w.cfg, Box::new(gate), &mut rng, comm, &topo)?;
    layer.set_dispatcher(Box::new(TimedDispatcher::new(NcclA2A, log.clone())));
    Ok(layer)
}

/// One real training step on `layer`, each public call timed into
/// `log`.
///
/// # Errors
///
/// Propagates layer failures.
pub fn real_step(
    layer: &mut DistMoeLayer,
    x: &Tensor,
    target: &Tensor,
    lr: f32,
    rng: &mut TensorRng,
    log: &SpanLog,
) -> Result<StepOut> {
    let faults = thread_minor_faults();
    let start = log.now_us();
    let output = log.time(Stage::Forward, || layer.forward(x, rng))?;
    let (loss, grad) = log.time(Stage::Loss, || mse(&output, target))?;
    let grads = log.time(Stage::Backward, || layer.backward(&grad))?;
    log.time(Stage::Update, || layer.apply_grads(&grads, lr))?;
    let mut span = Span::new(Stage::Step, start, log.now_us());
    span.faults = thread_minor_faults().saturating_sub(faults);
    log.push(span);
    Ok(StepOut {
        output,
        loss,
        grad_input: grads.input,
    })
}

/// Row layout of the gathered `[esp][ep][slot][row]` buffer, as the
/// layer lays it out for the block placement.
#[derive(Debug, Clone, Copy)]
struct Layout {
    m: usize,
    t: usize,
    n_esp: usize,
    n_ep: usize,
    slots: usize,
    local: usize,
}

impl Layout {
    fn rows_per_expert(&self) -> usize {
        self.n_esp * self.n_ep * self.t
    }

    fn offsets(&self) -> Vec<usize> {
        (0..=self.local)
            .map(|e| e * self.rows_per_expert())
            .collect()
    }

    /// Dispatch layout → grouped layout (expert-major rows).
    fn gather(&self, gathered: &[f32]) -> Result<Tensor> {
        let rows = self.local * self.rows_per_expert();
        let mut out = Vec::with_capacity(rows * self.m);
        for el in 0..self.local {
            for s in 0..self.n_esp {
                for p in 0..self.n_ep {
                    let row0 = ((s * self.n_ep + p) * self.slots + el) * self.t;
                    out.extend_from_slice(&gathered[row0 * self.m..(row0 + self.t) * self.m]);
                }
            }
        }
        Ok(Tensor::from_vec(out, &[rows, self.m])?)
    }

    /// Grouped layout → dispatch layout; pad slots stay zero.
    fn scatter(&self, rows: &Tensor, len: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; len];
        let data = rows.data();
        let mut src = 0usize;
        for el in 0..self.local {
            for s in 0..self.n_esp {
                for p in 0..self.n_ep {
                    let row0 = ((s * self.n_ep + p) * self.slots + el) * self.t;
                    out[row0 * self.m..(row0 + self.t) * self.m]
                        .copy_from_slice(&data[src * self.m..(src + self.t) * self.m]);
                    src += self.t;
                }
            }
        }
        out
    }
}

/// The modules the replay calls: a copy of the layer's gate, the
/// layer's ordering, and the layer's EP and ESP groups.
#[derive(Debug)]
pub struct Replay {
    gate: GShardGate,
    order: TutelOrdering,
    ep: GroupComm,
    esp: GroupComm,
    cfg: MoeConfig,
    threads: usize,
    /// Routing and grouped-GEMM state of the latest forward.
    saved: Option<(Routing, GroupedState)>,
}

impl Replay {
    /// Binds the replay to the same groups and gate as the layer built
    /// for `w` from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates group construction failures.
    pub fn new(w: &Workload, seed: u64, comm: &Communicator) -> Result<Replay> {
        let topo = w.topology()?;
        Ok(Replay {
            gate: gate_for(w, seed).0,
            order: TutelOrdering::new(),
            ep: comm.subgroup(&topo.ep_group(comm.rank()))?,
            esp: comm.subgroup(&topo.esp_group(comm.rank()))?,
            cfg: w.cfg.clone(),
            threads: tensor::par::num_threads(),
            saved: None,
        })
    }

    fn collective(
        &self,
        log: &SpanLog,
        stage: Stage,
        group: &GroupComm,
        data: &[f32],
        op: impl FnOnce(&[f32]) -> collectives::Result<Vec<f32>>,
    ) -> Result<Vec<f32>> {
        let start = log.now_us();
        let out = op(data)?;
        let mut span = Span::new(stage, start, log.now_us());
        span.bytes = std::mem::size_of_val(data) as u64;
        span.group = group.size();
        if stage == Stage::ReplayA2a {
            // Counted outside the span: routed rows vs capacity padding.
            span.useful = nonzero_rows(data, self.cfg.embed_dim);
            span.rows = (data.len() / self.cfg.embed_dim) as u64;
        }
        log.push(span);
        Ok(out)
    }

    fn layout(&self, replica: &DistMoeLayer) -> Layout {
        Layout {
            m: self.cfg.embed_dim,
            t: self.cfg.capacity(),
            n_esp: self.esp.size(),
            n_ep: self.ep.size(),
            slots: replica.expert_map().slots_per_position(),
            local: replica.shards().len(),
        }
    }

    /// Replays one step on `replica` stage by stage and applies its
    /// update. `rng` must be the routing RNG as the real step saw it.
    ///
    /// Forward and backward are separate calls whose buffers live and
    /// die where the layer's do, and the forward state is kept until the
    /// next forward replaces it, as the layer keeps it: allocation
    /// lifetimes decide how many fresh pages a stage faults in, which
    /// otherwise makes replayed stages slower than the layer's own.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-block placement (the migrated
    /// permutation is private to the layer) and propagates stage
    /// failures.
    pub fn step(
        &mut self,
        replica: &mut DistMoeLayer,
        x: &Tensor,
        target: &Tensor,
        lr: f32,
        rng: &mut TensorRng,
        log: &SpanLog,
    ) -> Result<StepOut> {
        if !replica.expert_map().is_block() {
            return Err("stage replay needs the block expert placement".into());
        }
        // The gate, the loss and the update are timed on the real step,
        // so the replay runs them untimed.
        let output = self.forward(replica, x, rng, log)?;
        let (loss, grad) = mse(&output, target)?;
        let grads = self.backward(replica, &grad, log)?;
        replica.apply_grads(&grads, lr)?;
        Ok(StepOut {
            output,
            loss,
            grad_input: grads.input,
        })
    }

    fn forward(
        &mut self,
        replica: &DistMoeLayer,
        x: &Tensor,
        rng: &mut TensorRng,
        log: &SpanLog,
    ) -> Result<Tensor> {
        let layout = self.layout(replica);
        let (m, t, e) = (layout.m, layout.t, self.cfg.num_experts);
        let offsets = layout.offsets();
        let shards: &[Box<dyn Expert>] = replica.shards();
        let routing = self.gate.route(x, t, rng)?;
        let buffer = log.time(Stage::OrderFwd, || self.order.order(x, &routing))?;
        let received = self.collective(log, Stage::ReplayA2a, &self.ep, buffer.data(), |d| {
            self.ep.all_to_all(d)
        })?;
        let gathered = self.collective(log, Stage::EspAg, &self.esp, &received, |d| {
            self.esp.all_gather(d)
        })?;
        let xg = log.time(Stage::Layout, || layout.gather(&gathered))?;
        let start = log.now_us();
        let (y_rows, state) = grouped::forward_ffn(shards, &xg, &offsets, self.threads)?
            .ok_or("stage replay needs groupable FFN experts")?;
        let mut span = Span::new(Stage::ExpertFwd, start, log.now_us());
        span.flops = shards.first().map_or(0.0, |s| s.flops_per_row()) * xg.dims()[0] as f64;
        span.useful = nonzero_rows(xg.data(), m);
        span.rows = xg.dims()[0] as u64;
        log.push(span);
        let shard_out = log.time(Stage::Layout, || layout.scatter(&y_rows, gathered.len()));
        let reduced = self.collective(log, Stage::EspRs, &self.esp, &shard_out, |d| {
            self.esp.reduce_scatter(d)
        })?;
        let combined = self.collective(log, Stage::ReplayA2a, &self.ep, &reduced, |d| {
            self.ep.all_to_all(d)
        })?;
        let output = log.time(Stage::OrderFwd, || -> Result<Tensor> {
            let expert_out = Tensor::from_vec(combined, &[e * t, m])?;
            Ok(self.order.inverse(&expert_out, &routing)?)
        })?;
        self.saved = Some((routing, state));
        Ok(output)
    }

    fn backward(
        &mut self,
        replica: &DistMoeLayer,
        grad: &Tensor,
        log: &SpanLog,
    ) -> Result<DistMoeGrads> {
        let layout = self.layout(replica);
        let (m, t, e) = (layout.m, layout.t, self.cfg.num_experts);
        let offsets = layout.offsets();
        let shards: &[Box<dyn Expert>] = replica.shards();
        let (routing, state) = self
            .saved
            .as_ref()
            .ok_or("replay backward before forward")?;
        let grad_eo = log.time(Stage::OrderBwd, || combine_backward(grad, routing))?;
        let grad_reduced =
            self.collective(log, Stage::ReplayA2a, &self.ep, grad_eo.data(), |d| {
                self.ep.all_to_all(d)
            })?;
        let grad_shard_out = self.collective(log, Stage::EspAg, &self.esp, &grad_reduced, |d| {
            self.esp.all_gather(d)
        })?;
        let gy = log.time(Stage::Layout, || layout.gather(&grad_shard_out))?;
        let start = log.now_us();
        let (grad_rows, shard_grads) =
            grouped::backward_ffn(shards, &gy, state, &offsets, self.threads)?;
        let mut span = Span::new(Stage::ExpertBwd, start, log.now_us());
        span.flops = 2.0 * shards.first().map_or(0.0, |s| s.flops_per_row()) * gy.dims()[0] as f64;
        log.push(span);
        let grad_gathered = log.time(Stage::Layout, || {
            layout.scatter(&grad_rows, grad_shard_out.len())
        });
        let grad_received = self.collective(log, Stage::EspRs, &self.esp, &grad_gathered, |d| {
            self.esp.reduce_scatter(d)
        })?;
        let grad_buffer =
            self.collective(log, Stage::ReplayA2a, &self.ep, &grad_received, |d| {
                self.ep.all_to_all(d)
            })?;
        let input = log.time(Stage::OrderBwd, || -> Result<Tensor> {
            let grad_buffer = Tensor::from_vec(grad_buffer, &[e * t, m])?;
            Ok(order_backward(&grad_buffer, routing)?)
        })?;
        Ok(DistMoeGrads {
            input,
            shards: shard_grads,
        })
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks that the replay reproduced the real step bit for bit: output,
/// loss, input gradient, and every updated shard weight.
///
/// # Errors
///
/// Names the first quantity that differs.
pub fn check_same(
    real: &StepOut,
    replayed: &StepOut,
    layer: &DistMoeLayer,
    replica: &DistMoeLayer,
) -> Result<()> {
    if !same_bits(real.output.data(), replayed.output.data()) {
        return Err("replay output differs from DistMoeLayer::forward".into());
    }
    if real.loss.to_bits() != replayed.loss.to_bits() {
        return Err(format!("replay loss {} != layer loss {}", replayed.loss, real.loss).into());
    }
    if !same_bits(real.grad_input.data(), replayed.grad_input.data()) {
        return Err("replay input gradient differs from DistMoeLayer::backward".into());
    }
    if layer.shards().len() != replica.shards().len() {
        return Err("replica holds a different number of shards".into());
    }
    for (el, (a, b)) in layer.shards().iter().zip(replica.shards()).enumerate() {
        let (wa, wb) = (a.weights(), b.weights());
        if wa.len() != wb.len()
            || !wa
                .iter()
                .zip(&wb)
                .all(|(p, q)| same_bits(p.data(), q.data()))
        {
            return Err(format!("updated weights of local expert {el} differ").into());
        }
    }
    Ok(())
}

/// The gate and ordering of an elastic step, replayed on the same batch.
///
/// The trainer owns its layer, and a migrated placement moves expert
/// blocks through permutations private to the layer, so only the stages
/// in front of the AlltoAll are replayed: the gate (whose routing must
/// equal the trainer's), the ordering and its inverse, and their
/// adjoints on stand-in gradients of the same shapes.
///
/// # Errors
///
/// Propagates routing and ordering failures.
pub fn replay_front(
    gate: &GShardGate,
    capacity: usize,
    x: &Tensor,
    rng: &mut TensorRng,
    log: &SpanLog,
) -> Result<Routing> {
    let order = TutelOrdering::new();
    let routing = log.time(Stage::Gate, || gate.route(x, capacity, rng))?;
    log.time(Stage::OrderFwd, || -> Result<()> {
        let buffer = order.order(x, &routing)?;
        std::hint::black_box(order.inverse(&buffer, &routing)?);
        Ok(())
    })?;
    log.time(Stage::OrderBwd, || -> Result<()> {
        let grad_buffer = combine_backward(x, &routing)?;
        std::hint::black_box(order_backward(&grad_buffer, &routing)?);
        Ok(())
    })?;
    Ok(routing)
}
