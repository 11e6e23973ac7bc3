//! The composed MoE layer (single-process execution).
//!
//! [`MoeLayer`] wires the six sub-modules together exactly in the
//! paper's order (Fig. 1): gate → order → (dispatch) → expert →
//! (combine) → i-order, with the six hooks interleaved. This
//! single-process variant keeps all `E` experts locally — it is the
//! numerical reference the distributed layer
//! ([`crate::dist::DistMoeLayer`]) and every schedule must match.
//!
//! # Backward semantics
//!
//! The backward pass is hand-written (the paper implements
//! backpropagation manually so the backward phase can be scheduled
//! independently, §4.4). Gradients flow to the **expert weights and the
//! layer input through the expert path**; the gate's combine weights are
//! treated as constants (a stop-gradient router). This matches the
//! common practice of freezing/detaching router gradients in MoE systems
//! and keeps the reproduction's scheduling-relevant compute identical;
//! DESIGN.md records the simplification.

use tensor::{Tensor, TensorRng};

use crate::config::MoeConfig;
use crate::expert::{build_expert, Expert};
use crate::gate::{ExpertChoiceGate, GShardGate, Gate, SigmoidGate, SoftMoeGate, XMoeGate};
use crate::grouped::{self, GroupedState, TokenGroups};
use crate::hooks::{MoeHooks, NoopHooks};
use crate::order::{OrderFn, TutelOrdering};
use crate::routing::Routing;
use crate::{MoeError, Result};

/// Gradients produced by [`MoeLayer::backward`].
#[derive(Debug, Clone)]
pub struct MoeGrads {
    /// Gradient with respect to the layer input.
    pub input: Tensor,
    /// Per-expert weight gradients, indexable by expert.
    pub experts: Vec<Vec<Tensor>>,
}

#[derive(Debug)]
struct ForwardState {
    routing: Routing,
    groups: TokenGroups,
    compute: GroupedState,
}

/// A Mixture-of-Experts layer with swappable sub-modules.
pub struct MoeLayer {
    config: MoeConfig,
    gate: Box<dyn Gate>,
    /// The padded `(E·T, M)` ordering reference. The single-process
    /// compute path is the dropless gathered layout (see
    /// [`crate::grouped`]), so this is kept for the distributed wire
    /// format and as the numerical reference implementation.
    order: Box<dyn OrderFn>,
    experts: Vec<Box<dyn Expert>>,
    hooks: Box<dyn MoeHooks>,
    state: Option<ForwardState>,
    /// Worker-count override for expert compute; `None` uses
    /// [`tensor::par::num_threads`].
    compute_threads: Option<usize>,
}

impl std::fmt::Debug for MoeLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MoeLayer")
            .field("gate", &self.gate.name())
            .field("order", &self.order.name())
            .field("experts", &self.experts.len())
            .finish()
    }
}

impl MoeLayer {
    /// Assembles a layer from explicit sub-modules — the fully flexible
    /// constructor (everything else is sugar over this).
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadConfig`] when the module set disagrees with
    /// the config (expert count, gate width) or the experts mix FFN
    /// architectures.
    pub fn with_modules(
        config: &MoeConfig,
        gate: Box<dyn Gate>,
        order: Box<dyn OrderFn>,
        experts: Vec<Box<dyn Expert>>,
        hooks: Box<dyn MoeHooks>,
    ) -> Result<Self> {
        if gate.num_experts() != config.num_experts {
            return Err(MoeError::BadConfig {
                field: "gate",
                reason: format!(
                    "gate routes over {} experts, config has {}",
                    gate.num_experts(),
                    config.num_experts
                ),
            });
        }
        if experts.len() != config.num_experts {
            return Err(MoeError::BadConfig {
                field: "experts",
                reason: format!(
                    "{} experts provided, config needs {}",
                    experts.len(),
                    config.num_experts
                ),
            });
        }
        grouped::check_groupable(&experts)?;
        Ok(MoeLayer {
            config: config.clone(),
            gate,
            order,
            experts,
            hooks,
            state: None,
            compute_threads: None,
        })
    }

    /// A layer around an arbitrary gate, with default experts, ordering,
    /// and hooks.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn with_gate(config: &MoeConfig, gate: Box<dyn Gate>, rng: &mut TensorRng) -> Result<Self> {
        let experts = (0..config.num_experts)
            .map(|_| build_expert(config.ffn, config.embed_dim, config.hidden_dim, rng))
            .collect();
        MoeLayer::with_modules(
            config,
            gate,
            Box::new(TutelOrdering::new()),
            experts,
            Box::new(NoopHooks),
        )
    }

    /// A layer with the GShard top-k gate.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn gshard(config: &MoeConfig, rng: &mut TensorRng) -> Result<Self> {
        let gate = GShardGate::new(config.embed_dim, config.num_experts, config.top_k, rng);
        MoeLayer::with_gate(config, Box::new(gate), rng)
    }

    /// A layer with the sigmoid (BASE/StableMoE) gate.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn sigmoid(config: &MoeConfig, rng: &mut TensorRng) -> Result<Self> {
        let gate = SigmoidGate::new(config.embed_dim, config.num_experts, config.top_k, rng);
        MoeLayer::with_gate(config, Box::new(gate), rng)
    }

    /// A layer with the X-MoE cosine gate (low rank = M/4, min 2).
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn xmoe(config: &MoeConfig, rng: &mut TensorRng) -> Result<Self> {
        let low_rank = (config.embed_dim / 4).max(2);
        let gate = XMoeGate::new(
            config.embed_dim,
            low_rank,
            config.num_experts,
            config.top_k,
            rng,
        );
        MoeLayer::with_gate(config, Box::new(gate), rng)
    }

    /// A layer with the SoftMoE gate.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn softmoe(config: &MoeConfig, rng: &mut TensorRng) -> Result<Self> {
        let gate = SoftMoeGate::new(config.embed_dim, config.num_experts, config.top_k, rng);
        MoeLayer::with_gate(config, Box::new(gate), rng)
    }

    /// A layer with the expert-choice gate.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn expert_choice(config: &MoeConfig, rng: &mut TensorRng) -> Result<Self> {
        let gate = ExpertChoiceGate::new(config.embed_dim, config.num_experts, rng);
        MoeLayer::with_gate(config, Box::new(gate), rng)
    }

    /// The layer's configuration.
    pub fn config(&self) -> &MoeConfig {
        &self.config
    }

    /// The gate in use.
    pub fn gate(&self) -> &dyn Gate {
        self.gate.as_ref()
    }

    /// Mutable gate access (checkpoint restore).
    pub fn gate_mut(&mut self) -> &mut dyn Gate {
        self.gate.as_mut()
    }

    /// The experts (e.g. for weight synchronisation across DP replicas).
    pub fn experts(&self) -> &[Box<dyn Expert>] {
        &self.experts
    }

    /// Mutable expert access (weight updates).
    pub fn experts_mut(&mut self) -> &mut [Box<dyn Expert>] {
        &mut self.experts
    }

    /// The ordering implementation installed at construction.
    pub fn order(&self) -> &dyn OrderFn {
        self.order.as_ref()
    }

    /// Overrides the worker count used for expert compute (`None`
    /// restores the [`tensor::par::num_threads`] default). Results are
    /// bit-identical for every setting; benchmarks use this to sweep
    /// thread counts without re-execing the process.
    pub fn set_compute_threads(&mut self, threads: Option<usize>) {
        self.compute_threads = threads;
    }

    fn compute_threads(&self) -> usize {
        self.compute_threads
            .unwrap_or_else(tensor::par::num_threads)
    }

    /// The routing decision of the most recent forward pass.
    pub fn last_routing(&self) -> Option<&Routing> {
        self.state.as_ref().map(|s| &s.routing)
    }

    /// Runs the layer on a `(B·L, M)` input.
    ///
    /// # Errors
    ///
    /// Returns an error on a shape mismatch or sub-module failure.
    pub fn forward(&mut self, input: &Tensor, rng: &mut TensorRng) -> Result<Tensor> {
        if input.rank() != 2 || input.dims()[1] != self.config.embed_dim {
            return Err(MoeError::BadInput {
                expected: format!("(tokens, {})", self.config.embed_dim),
                actual: input.dims().to_vec(),
            });
        }
        let _fwd_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_MOE_FORWARD);
        let mut input = input.clone();
        self.hooks.before_moe_start(&mut input)?;

        let routing = {
            let _s = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_GATE);
            self.gate.route(&input, self.config.capacity(), rng)?
        };
        if obs::is_enabled() {
            for &load in &routing.expert_loads() {
                obs::record_hist(obs::names::MOE_EXPERT_LOAD, load as f64);
            }
        }
        // Dropless dispatch: gather each expert's routed tokens into one
        // variable-size concatenated buffer — no capacity padding, no
        // tokens dropped by the compute path.
        let groups = TokenGroups::from_routing(&routing);
        let dispatch_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_DISPATCH);
        let mut buffer = groups.gather(&input)?;
        self.hooks.before_dispatch(&mut buffer, &routing)?;
        // single-process: dispatch is the identity (all experts local)
        self.hooks.after_dispatch(&mut buffer, &routing)?;
        drop(dispatch_span);

        let compute_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_EXPERT_COMPUTE);
        let (mut expert_out, compute) = grouped::forward_grouped(
            &self.experts,
            &buffer,
            groups.offsets(),
            self.compute_threads(),
        )?;
        drop(compute_span);

        let combine_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_COMBINE);
        self.hooks.before_combine(&mut expert_out, &routing)?;
        self.hooks.after_combine(&mut expert_out, &routing)?;
        let mut output = groups.scatter_combine(&expert_out)?;
        self.hooks.before_moe_end(&mut output)?;
        drop(combine_span);

        self.state = Some(ForwardState {
            routing,
            groups,
            compute,
        });
        Ok(output)
    }

    /// Backpropagates through the most recent forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::NoForwardState`] before any forward, or shape
    /// errors when `grad_output` disagrees with the forward output.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<MoeGrads> {
        let _bwd_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_MOE_BACKWARD);
        let state = self.state.as_ref().ok_or(MoeError::NoForwardState)?;
        let groups = &state.groups;
        // adjoint of the combine scatter: weighted gather of output grads
        let grad_rows = groups.gather_weighted(grad_output)?;

        let (grad_dispatch, expert_grads) = grouped::backward_ffn(
            &self.experts,
            &grad_rows,
            &state.compute,
            groups.offsets(),
            self.compute_threads(),
        )?;

        // adjoint of the gather: unweighted scatter-add back to tokens
        let grad_input = groups.scatter_add(&grad_dispatch)?;
        Ok(MoeGrads {
            input: grad_input,
            experts: expert_grads,
        })
    }

    /// Applies SGD updates to every expert.
    ///
    /// # Errors
    ///
    /// Returns an error when `grads` does not match the expert list.
    pub fn apply_grads(&mut self, grads: &MoeGrads, lr: f32) -> Result<()> {
        if grads.experts.len() != self.experts.len() {
            return Err(MoeError::BadInput {
                expected: format!("{} expert gradient sets", self.experts.len()),
                actual: vec![grads.experts.len()],
            });
        }
        for (expert, g) in self.experts.iter_mut().zip(&grads.experts) {
            expert.apply_grads(g, lr)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FfnKind;
    use crate::order::GShardOrdering;

    fn small_config() -> MoeConfig {
        MoeConfig::builder()
            .batch_size(2)
            .seq_len(6)
            .embed_dim(8)
            .hidden_dim(16)
            .num_experts(4)
            .top_k(2)
            .no_drop()
            .build()
            .unwrap()
    }

    #[test]
    fn forward_preserves_shape_for_every_gate() {
        let config = small_config();
        let mut rng = TensorRng::seed_from(0);
        let input = rng.normal(&[config.tokens(), config.embed_dim], 0.0, 1.0);
        let builders: Vec<fn(&MoeConfig, &mut TensorRng) -> Result<MoeLayer>> = vec![
            MoeLayer::gshard,
            MoeLayer::sigmoid,
            MoeLayer::xmoe,
            MoeLayer::softmoe,
            MoeLayer::expert_choice,
        ];
        for build in builders {
            let mut layer = build(&config, &mut rng).unwrap();
            let out = layer.forward(&input, &mut rng).unwrap();
            assert_eq!(out.dims(), input.dims());
            assert!(out.data().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn orderings_produce_identical_outputs() {
        let config = small_config();
        let mut rng = TensorRng::seed_from(1);
        let input = rng.normal(&[config.tokens(), config.embed_dim], 0.0, 1.0);

        let mut rng_a = TensorRng::seed_from(7);
        let mut layer_a = MoeLayer::gshard(&config, &mut rng_a).unwrap();
        let mut rng_b = TensorRng::seed_from(7);
        let mut layer_b = {
            let gate = GShardGate::new(
                config.embed_dim,
                config.num_experts,
                config.top_k,
                &mut rng_b,
            );
            let experts = (0..config.num_experts)
                .map(|_| build_expert(config.ffn, config.embed_dim, config.hidden_dim, &mut rng_b))
                .collect();
            MoeLayer::with_modules(
                &config,
                Box::new(gate),
                Box::new(GShardOrdering::new()),
                experts,
                Box::new(NoopHooks),
            )
            .unwrap()
        };
        let out_a = layer_a.forward(&input, &mut rng).unwrap();
        let out_b = layer_b.forward(&input, &mut rng).unwrap();
        assert!(out_a.allclose(&out_b, 1e-4));
    }

    #[test]
    fn expert_weight_grads_match_finite_difference() {
        let config = MoeConfig::builder()
            .batch_size(1)
            .seq_len(4)
            .embed_dim(4)
            .hidden_dim(8)
            .num_experts(2)
            .top_k(1)
            .no_drop()
            .build()
            .unwrap();
        let mut rng = TensorRng::seed_from(2);
        let mut layer = MoeLayer::sigmoid(&config, &mut rng).unwrap();
        let input = rng.normal(&[4, 4], 0.0, 1.0);

        let out = layer.forward(&input, &mut rng).unwrap();
        let grads = layer.backward(&Tensor::ones(out.dims())).unwrap();

        // finite difference on one weight of expert 0 (routing is
        // independent of expert weights, so fd is exact here)
        let h = 1e-2f32;
        let loss =
            |layer: &mut MoeLayer, rng: &mut TensorRng| layer.forward(&input, rng).unwrap().sum();
        // nudge w1[0][0] of expert 0 via apply_grads trick
        let mut delta: Vec<Vec<Tensor>> = layer
            .experts()
            .iter()
            .map(|e| {
                e.weights()
                    .iter()
                    .map(|w| Tensor::zeros(w.dims()))
                    .collect()
            })
            .collect();
        delta[0][0].data_mut()[0] = 1.0;
        let zero = MoeGrads {
            input: Tensor::zeros(&[4, 4]),
            experts: delta.clone(),
        };
        layer.apply_grads(&zero, -h).unwrap(); // +h
        let lp = loss(&mut layer, &mut rng);
        layer.apply_grads(&zero, 2.0 * h).unwrap(); // -h from original
        let lm = loss(&mut layer, &mut rng);
        layer.apply_grads(&zero, -h).unwrap(); // restore
        let fd = (lp - lm) / (2.0 * h);
        let analytic = grads.experts[0][0].data()[0];
        assert!(
            (fd - analytic).abs() < 5e-2,
            "fd {fd} vs analytic {analytic}"
        );
    }

    #[test]
    fn backward_before_forward_errors() {
        let config = small_config();
        let mut rng = TensorRng::seed_from(3);
        let mut layer = MoeLayer::gshard(&config, &mut rng).unwrap();
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[12, 8])),
            Err(MoeError::NoForwardState)
        ));
    }

    #[test]
    fn hooks_are_invoked() {
        use crate::hooks::QuantizeHooks;
        let config = small_config();
        let mut rng_a = TensorRng::seed_from(4);
        let mut plain = MoeLayer::gshard(&config, &mut rng_a).unwrap();
        let mut rng_b = TensorRng::seed_from(4);
        let mut quantized = {
            let gate = GShardGate::new(
                config.embed_dim,
                config.num_experts,
                config.top_k,
                &mut rng_b,
            );
            let experts = (0..config.num_experts)
                .map(|_| build_expert(config.ffn, config.embed_dim, config.hidden_dim, &mut rng_b))
                .collect();
            MoeLayer::with_modules(
                &config,
                Box::new(gate),
                Box::new(TutelOrdering::new()),
                experts,
                Box::new(QuantizeHooks::new(0.5)),
            )
            .unwrap()
        };
        let mut rng = TensorRng::seed_from(5);
        let input = rng.normal(&[config.tokens(), config.embed_dim], 0.0, 1.0);
        let a = plain.forward(&input, &mut rng).unwrap();
        let b = quantized.forward(&input, &mut rng).unwrap();
        assert!(!a.allclose(&b, 1e-6), "quantisation must perturb output");
    }

    #[test]
    fn construction_validation() {
        let config = small_config();
        let mut rng = TensorRng::seed_from(6);
        // wrong expert count
        let gate = GShardGate::new(config.embed_dim, config.num_experts, config.top_k, &mut rng);
        let experts = vec![build_expert(
            config.ffn,
            config.embed_dim,
            config.hidden_dim,
            &mut rng,
        )];
        assert!(MoeLayer::with_modules(
            &config,
            Box::new(gate),
            Box::new(TutelOrdering::new()),
            experts,
            Box::new(NoopHooks),
        )
        .is_err());
        // wrong gate width
        let gate = GShardGate::new(config.embed_dim, 2, 1, &mut rng);
        let experts = (0..config.num_experts)
            .map(|_| build_expert(config.ffn, config.embed_dim, config.hidden_dim, &mut rng))
            .collect();
        assert!(MoeLayer::with_modules(
            &config,
            Box::new(gate),
            Box::new(TutelOrdering::new()),
            experts,
            Box::new(NoopHooks),
        )
        .is_err());
    }

    #[test]
    fn mixed_architecture_experts_are_rejected() {
        let config = small_config();
        let mut rng = TensorRng::seed_from(10);
        let gate = GShardGate::new(config.embed_dim, config.num_experts, config.top_k, &mut rng);
        let experts = (0..config.num_experts)
            .map(|e| {
                let kind = if e == 0 {
                    FfnKind::Mixtral
                } else {
                    FfnKind::Gpt
                };
                build_expert(kind, config.embed_dim, config.hidden_dim, &mut rng)
            })
            .collect();
        let built = MoeLayer::with_modules(
            &config,
            Box::new(gate),
            Box::new(TutelOrdering::new()),
            experts,
            Box::new(NoopHooks),
        );
        assert!(
            matches!(
                built,
                Err(MoeError::BadConfig {
                    field: "experts",
                    ..
                })
            ),
            "{built:?}"
        );
    }

    #[test]
    fn training_step_reduces_loss() {
        let config = MoeConfig::builder()
            .batch_size(1)
            .seq_len(8)
            .embed_dim(6)
            .hidden_dim(12)
            .num_experts(2)
            .top_k(1)
            .ffn(FfnKind::Mixtral)
            .no_drop()
            .build()
            .unwrap();
        let mut rng = TensorRng::seed_from(8);
        let mut layer = MoeLayer::sigmoid(&config, &mut rng).unwrap();
        let input = rng.normal(&[8, 6], 0.0, 1.0);
        // loss = sum(output)
        let y0 = layer.forward(&input, &mut rng).unwrap().sum();
        let out = layer.forward(&input, &mut rng).unwrap();
        let grads = layer.backward(&Tensor::ones(out.dims())).unwrap();
        layer.apply_grads(&grads, 0.02).unwrap();
        let y1 = layer.forward(&input, &mut rng).unwrap().sum();
        assert!(y1 < y0, "{y1} !< {y0}");
    }

    #[test]
    fn input_shape_validated() {
        let config = small_config();
        let mut rng = TensorRng::seed_from(9);
        let mut layer = MoeLayer::gshard(&config, &mut rng).unwrap();
        assert!(layer.forward(&Tensor::zeros(&[4, 5]), &mut rng).is_err());
        assert!(layer.forward(&Tensor::zeros(&[8]), &mut rng).is_err());
    }
}
