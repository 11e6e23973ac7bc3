//! Distributed MoE layer execution over the collectives runtime.
//!
//! [`DistMoeLayer`] runs the exact data flow of the paper's Fig. 2 on
//! real rank threads with real data movement:
//!
//! ```text
//! gate → order → AlltoAll(EP) → ESP-AllGather → expert shard
//!      → ESP-ReduceScatter → AlltoAll(EP) → i-order
//! ```
//!
//! Expert placement follows the paper: expert `e` is hosted by EP
//! position `e / (E/N_EP)` — i.e. by one node — and sharded across that
//! node's ESP group. Every `(expert, shard)` pair lives on exactly one
//! GPU, so expert weights need no data-parallel gradient synchronisation
//! (the Gradient-AllReduce of §5 covers the *dense* parameters, which
//! are DP-replicated).
//!
//! The integration tests assert the distributed output equals the
//! single-process [`MoeLayer`](crate::layer::MoeLayer) reference —
//! distribution, like scheduling, must never change the numbers.

use std::borrow::Cow;
use std::time::Duration;

use collectives::{CommError, Communicator, GroupComm, HybridTopology};
use tensor::{Tensor, TensorRng};

use crate::checkpoint::LayerCheckpoint;
use crate::config::MoeConfig;
use crate::dispatch::{DispatchCtx, Dispatcher, NcclA2A};
use crate::expert::{build_expert, Expert};
use crate::gate::{GShardGate, Gate};
use crate::grouped::{self, GroupedState};
use crate::hooks::{MoeHooks, NoopHooks};
use crate::order::{combine_backward, order_backward, OrderFn, TutelOrdering};
use crate::reshard::{permute_expert_blocks, unpermute_expert_blocks, ExpertMap, ReshardPlan};
use crate::routing::Routing;
use crate::{MoeError, Result};

/// Retry/degradation policy for the EP-group AlltoAll collectives.
///
/// When a dispatch or combine AlltoAll fails with a *recoverable* fault
/// (a peer timed out or a peer other than this rank is down), the layer
/// retries up to `max_retries` times with bounded exponential backoff
/// and deterministic jitter (see [`FaultPolicy::backoff_for`]). If the
/// fault persists and `drop_on_failure` is set, the layer degrades
/// gracefully: the exchange's tokens are dropped (zero-filled, the
/// paper's capacity-drop semantics — dropped tokens ride the residual
/// path) and the per-layer drop counter plus the
/// [`MoeHooks::on_tokens_dropped`] hook record the loss, and the
/// abandoned exchange is skipped in the group's op stream
/// ([`collectives::GroupComm::skip_op`]) so a straggler's late deposit
/// for it fails with [`CommError::Abandoned`] instead of cross-wiring
/// into this rank's next collective. With `drop_on_failure` unset, the
/// layer propagates the error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// How many times to re-enter a failed AlltoAll before giving up.
    pub max_retries: usize,
    /// Backoff before the first retry; attempt `k` waits
    /// `base_backoff · 2^(k−1)` before jitter.
    pub base_backoff: Duration,
    /// Ceiling on the un-jittered backoff — the exponential curve
    /// saturates here instead of growing without bound.
    pub max_backoff: Duration,
    /// Seed for the jitter stream. Reproducible runs keep it fixed;
    /// deployments that want decorrelated ranks vary it per process.
    pub jitter_seed: u64,
    /// Degrade (drop tokens) instead of failing the whole layer.
    pub drop_on_failure: bool,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(80),
            jitter_seed: 0x5EED,
            drop_on_failure: true,
        }
    }
}

impl FaultPolicy {
    /// The wait before retry attempt `attempt` (1-based) on behalf of
    /// `salt` (callers pass their rank so ranks decorrelate).
    ///
    /// The un-jittered wait doubles per attempt from `base_backoff` and
    /// saturates at `max_backoff`; it is then scaled by a deterministic
    /// jitter fraction in `[0.5, 1.0)` drawn from splitmix64 over
    /// `(jitter_seed, salt, attempt)`. Same policy, salt and attempt ⇒
    /// same wait, so fault-injection tests replay exactly; different
    /// ranks or attempts decorrelate, so retry stampedes spread out.
    pub fn backoff_for(&self, attempt: u32, salt: u64) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let shift = (attempt - 1).min(16);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << shift)
            .min(self.max_backoff);
        let bits = splitmix64(
            self.jitter_seed ^ salt.rotate_left(17) ^ u64::from(attempt).wrapping_mul(0x9E37_79B9),
        );
        // 53 high bits → uniform fraction in [0, 1); map to [0.5, 1.0).
        let frac = 0.5 + ((bits >> 11) as f64) / ((1u64 << 53) as f64) * 0.5;
        raw.mul_f64(frac)
    }
}

/// splitmix64: the standard 64-bit finalising mix — one multiply-xor
/// chain, deterministic, good avalanche. Used only for backoff jitter.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether a collective failure is worth retrying/degrading on this
/// rank. This rank being dead is terminal; so are poisoning, the
/// structural errors (bad buffers, SPMD violations), and the membership
/// signals — `Reconfigured`/`EvictConflict` must surface to the elastic
/// layer, never be retried or papered over by degradation.
fn recoverable(err: &CommError, self_rank: usize) -> bool {
    match err {
        CommError::Timeout { .. } | CommError::Abandoned { .. } => true,
        CommError::RankDown { rank } => *rank != self_rank,
        CommError::RankOutOfRange { .. }
        | CommError::InvalidGroup { .. }
        | CommError::NotAMember { .. }
        | CommError::BadBufferLength { .. }
        | CommError::BadParallelism { .. }
        | CommError::Poisoned { .. }
        | CommError::Reconfigured { .. }
        | CommError::EvictConflict { .. }
        | CommError::MigrationConflict { .. } => false,
    }
}

/// Runs one AlltoAll under `policy`. `Ok(Some(out))` is a completed
/// exchange; `Ok(None)` means the exchange was abandoned after retries
/// and the caller must degrade: zero-fill *and* advance the groups' op
/// streams past the exchange ([`DispatchCtx::skip_op`]) so no later
/// collective can rendezvous with a straggler's stale deposit for it.
fn a2a_with_policy(
    dispatcher: &dyn Dispatcher,
    policy: FaultPolicy,
    self_rank: usize,
    data: &[f32],
    ctx: &DispatchCtx<'_>,
) -> Result<Option<Vec<f32>>> {
    let mut attempt = 0usize;
    loop {
        match dispatcher.all_to_all(data, ctx) {
            Ok(out) => return Ok(Some(out)),
            Err(MoeError::Comm(e)) if recoverable(&e, self_rank) => {
                // `Abandoned` can never succeed on retry: the peers' op
                // stream has provably moved past this exchange.
                let retryable = !matches!(e, CommError::Abandoned { .. });
                if retryable && attempt < policy.max_retries {
                    attempt += 1;
                    std::thread::sleep(policy.backoff_for(attempt as u32, self_rank as u64));
                    continue;
                }
                if policy.drop_on_failure {
                    ctx.skip_op();
                    return Ok(None);
                }
                return Err(MoeError::Comm(e));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Gradients produced by [`DistMoeLayer::backward`] on one rank.
#[derive(Debug, Clone)]
pub struct DistMoeGrads {
    /// Gradient with respect to this rank's input block.
    pub input: Tensor,
    /// Weight gradients for this rank's local expert shards.
    pub shards: Vec<Vec<Tensor>>,
}

#[derive(Debug)]
struct DistState {
    routing: Routing,
    compute: GroupedState,
    gathered_rows: usize,
}

/// One rank's slice of a distributed MoE layer.
pub struct DistMoeLayer {
    config: MoeConfig,
    gate: Box<dyn Gate>,
    order: Box<dyn OrderFn>,
    dispatcher: Box<dyn Dispatcher>,
    /// ESP shards of the experts the map places at this rank's EP
    /// position, in map order.
    shards: Vec<Box<dyn Expert>>,
    ep_group: GroupComm,
    esp_group: GroupComm,
    /// Which global expert lives at which EP position (block placement
    /// until a reshard installs something else).
    expert_map: ExpertMap,
    state: Option<DistState>,
    /// This rank's global rank (to tell "a peer died" from "I died").
    rank: usize,
    fault_policy: FaultPolicy,
    hooks: Box<dyn MoeHooks>,
    /// Token assignments dropped by graceful degradation since
    /// construction.
    dropped_tokens: usize,
}

impl std::fmt::Debug for DistMoeLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistMoeLayer")
            .field("gate", &self.gate.name())
            .field("local_experts", &self.shards.len())
            .field("ep", &self.ep_group.size())
            .field("esp", &self.esp_group.size())
            .finish()
    }
}

/// Row-layout parameters of the gathered `[esp][ep][slot][row]`
/// buffer.
///
/// Each of the `sources` (ESP shard, EP position) pairs contributes
/// `slots` expert blocks of `t` rows (padded to the placement-wide
/// maximum — [`ExpertMap::slots_per_position`]); this rank's
/// `local_experts` real experts occupy the leading slots, trailing pad
/// slots carry zeros and are never computed on.
#[derive(Clone, Copy)]
struct ShardLayout {
    m: usize,
    t: usize,
    sources: usize,
    slots: usize,
    local_experts: usize,
}

impl ShardLayout {
    /// Rows each dispatch slot owns in the gathered buffer.
    fn rows_per_expert(&self) -> usize {
        self.sources * self.t
    }

    /// Uniform group offsets for the concatenated per-expert buffer.
    fn group_offsets(&self) -> Vec<usize> {
        (0..=self.local_experts)
            .map(|el| el * self.rows_per_expert())
            .collect()
    }

    /// First row of every `(expert, source)` block of the gathered
    /// buffer, in grouped order: local expert major, then source.
    fn block_rows(self) -> impl Iterator<Item = usize> {
        let ShardLayout {
            t,
            sources,
            slots,
            local_experts,
            ..
        } = self;
        (0..local_experts).flat_map(move |el| (0..sources).map(move |src| (src * slots + el) * t))
    }
}

// The stages of a pass. `forward` runs them in this order and
// `backward` runs the same order on gradients: the adjoint of the
// AllGather is the ReduceScatter and vice versa, and the AlltoAll is
// its own adjoint.

/// The EP-group AlltoAll a pass hands to its exchanges: the forward
/// pass retries and degrades under its [`FaultPolicy`], the backward
/// pass propagates every failure. The exchanges call it as a method
/// named `all_to_all` so the analyzer's collective-schedule report
/// places the AlltoAll inside `exchange_in` and `exchange_out`.
trait EpAllToAll {
    fn all_to_all(&mut self, data: &[f32]) -> Result<Vec<f32>>;
}

impl<F: FnMut(&[f32]) -> Result<Vec<f32>>> EpAllToAll for F {
    fn all_to_all(&mut self, data: &[f32]) -> Result<Vec<f32>> {
        self(data)
    }
}

/// Permutes a `(E·T, M)` buffer from global-expert order into slot
/// layout. The AlltoAll exchanges contiguous per-position chunks, so a
/// non-block placement permutes expert blocks first, padding non-uniform
/// placements with zero blocks so the chunks stay equal-size. Pure data
/// movement — resharding never changes the numbers. Block placement is
/// the identity and borrows `data` without a copy.
fn to_slots<'a>(map: &ExpertMap, layout: ShardLayout, data: &'a [f32]) -> Cow<'a, [f32]> {
    if map.is_block() {
        Cow::Borrowed(data)
    } else {
        Cow::Owned(permute_expert_blocks(
            data,
            layout.t * layout.m,
            &map.slot_layout(),
        ))
    }
}

/// The inverse of [`to_slots`]: slot layout back to global-expert
/// order.
fn from_slots(map: &ExpertMap, layout: ShardLayout, data: Vec<f32>) -> Vec<f32> {
    if map.is_block() {
        data
    } else {
        unpermute_expert_blocks(
            &data,
            layout.t * layout.m,
            &map.slot_layout(),
            map.num_experts(),
        )
    }
}

/// The EP AlltoAll to the expert hosts, then the ESP AllGather that
/// replicates the node's token set to every shard.
fn exchange_in(esp: &GroupComm, send: &[f32], a2a: &mut impl EpAllToAll) -> Result<Vec<f32>> {
    let received = a2a.all_to_all(send)?;
    Ok(esp.all_gather(&received)?)
}

/// Runs `ffn` over the local experts' rows of the gathered buffer: the
/// layout gather into one grouped buffer (`local_experts` uniform groups
/// of `rows_per_expert` rows — the wire format pads to capacity), the
/// grouped FFN forward or adjoint, and the layout scatter back. Pad
/// slots stay zero.
fn expert_rows<T>(
    layout: ShardLayout,
    gathered: &[f32],
    ffn: impl FnOnce(&Tensor, &[usize]) -> Result<(Tensor, T)>,
) -> Result<(Vec<f32>, T)> {
    let block = layout.t * layout.m;
    let rows = layout.local_experts * layout.rows_per_expert();
    let mut grouped = Vec::with_capacity(rows * layout.m);
    for row0 in layout.block_rows() {
        let at = row0 * layout.m;
        grouped.extend_from_slice(&gathered[at..at + block]);
    }
    let x = Tensor::from_vec(grouped, &[rows, layout.m])?;
    let (y, saved) = ffn(&x, &layout.group_offsets())?;
    let mut out = vec![0.0f32; gathered.len()];
    for (i, row0) in layout.block_rows().enumerate() {
        let at = row0 * layout.m;
        out[at..at + block].copy_from_slice(&y.data()[i * block..(i + 1) * block]);
    }
    Ok((out, saved))
}

/// The ESP ReduceScatter that sums the shard partials into this rank's
/// token slice, then the EP AlltoAll back to the token sources.
fn exchange_out(esp: &GroupComm, partial: &[f32], a2a: &mut impl EpAllToAll) -> Result<Vec<f32>> {
    let reduced = esp.reduce_scatter(partial)?;
    a2a.all_to_all(&reduced)
}

/// Records a degraded exchange: `count` token assignments fell back to
/// the residual path.
///
/// This is the **single write path** for drop accounting: the per-layer
/// counter, the process-wide obs counters (`moe.dropped_tokens` /
/// `moe.drop_events`) and the [`MoeHooks::on_tokens_dropped`]
/// notification all fan out from here, so no two views of the account
/// can diverge.
fn record_drop(dropped_tokens: &mut usize, hooks: &mut dyn MoeHooks, count: usize) {
    *dropped_tokens += count;
    obs::counter_add(obs::names::MOE_DROPPED_TOKENS, count as u64);
    obs::counter_add(obs::names::MOE_DROP_EVENTS, 1);
    hooks.on_tokens_dropped(count);
}

/// Appends `expert`'s weights, flat in [`Expert::weights`] order — the
/// wire format of [`DistMoeLayer::migrate`] and
/// [`DistMoeLayer::checkpoint_global`].
fn flatten_weights(expert: &dyn Expert, out: &mut Vec<f32>) {
    for w in expert.weights() {
        out.extend_from_slice(w.data());
    }
}

/// Splits one expert's flat weights back into tensors of `shapes`.
fn unflatten_weights(flat: &[f32], shapes: &[Vec<usize>]) -> Result<Vec<Tensor>> {
    let mut off = 0usize;
    let mut weights = Vec::with_capacity(shapes.len());
    for dims in shapes {
        let n: usize = dims.iter().product();
        weights.push(Tensor::from_vec(flat[off..off + n].to_vec(), dims)?);
        off += n;
    }
    Ok(weights)
}

impl DistMoeLayer {
    /// Builds this rank's slice with a GShard gate.
    ///
    /// Every rank must pass the same `seed`; gate weights are replicated
    /// and full experts are materialised identically on all ranks, then
    /// each rank keeps only its `(expert, shard)` slices.
    ///
    /// # Errors
    ///
    /// Returns an error when `E` does not divide by `N_EP` or the hidden
    /// size does not divide by `N_ESP`.
    pub fn gshard(
        config: &MoeConfig,
        comm: &Communicator,
        topo: &HybridTopology,
        seed: u64,
    ) -> Result<Self> {
        let mut rng = TensorRng::seed_from(seed);
        let gate = GShardGate::new(config.embed_dim, config.num_experts, config.top_k, &mut rng);
        Self::with_gate(config, Box::new(gate), &mut rng, comm, topo)
    }

    /// Builds this rank's slice with an explicit gate. `rng` must be in
    /// the same state on every rank (weights are drawn from it).
    ///
    /// # Errors
    ///
    /// Returns an error on indivisible expert or shard counts.
    pub fn with_gate(
        config: &MoeConfig,
        gate: Box<dyn Gate>,
        rng: &mut TensorRng,
        comm: &Communicator,
        topo: &HybridTopology,
    ) -> Result<Self> {
        let dims = topo.dims();
        if !config.num_experts.is_multiple_of(dims.ep) {
            return Err(MoeError::BadConfig {
                field: "num_experts",
                reason: format!("{} not divisible by N_EP {}", config.num_experts, dims.ep),
            });
        }
        let ep_group = comm.subgroup(&topo.ep_group(comm.rank()))?;
        let esp_group = comm.subgroup(&topo.esp_group(comm.rank()))?;
        let expert_map = ExpertMap::block(config.num_experts, dims.ep)?;

        // Materialise the full expert set identically everywhere, then
        // keep our shards.
        let my_ep_pos = ep_group.group_index();
        let my_shard = esp_group.group_index();
        let mut shards = Vec::with_capacity(config.num_experts / dims.ep);
        for e in 0..config.num_experts {
            let full = build_expert(config.ffn, config.embed_dim, config.hidden_dim, rng);
            if expert_map.position_of(e) == my_ep_pos {
                shards.push(full.shard(my_shard, dims.esp)?);
            }
        }
        Ok(DistMoeLayer {
            config: config.clone(),
            gate,
            order: Box::new(TutelOrdering::new()),
            dispatcher: Box::new(NcclA2A),
            shards,
            ep_group,
            esp_group,
            expert_map,
            state: None,
            rank: comm.rank(),
            fault_policy: FaultPolicy::default(),
            hooks: Box::new(NoopHooks),
            dropped_tokens: 0,
        })
    }

    /// Replaces the AlltoAll algorithm (flat dispatch context).
    pub fn set_dispatcher(&mut self, dispatcher: Box<dyn Dispatcher>) {
        self.dispatcher = dispatcher;
    }

    /// Replaces the retry/degradation policy for dispatch collectives.
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.fault_policy = policy;
    }

    /// The active retry/degradation policy.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.fault_policy
    }

    /// Installs an extension hook set (degradation drops are reported to
    /// [`MoeHooks::on_tokens_dropped`]).
    pub fn set_hooks(&mut self, hooks: Box<dyn MoeHooks>) {
        self.hooks = hooks;
    }

    /// Token assignments dropped by graceful degradation so far.
    pub fn dropped_tokens(&self) -> usize {
        self.dropped_tokens
    }

    /// This rank's local expert shards.
    pub fn shards(&self) -> &[Box<dyn Expert>] {
        &self.shards
    }

    /// Routing from the latest forward pass.
    pub fn last_routing(&self) -> Option<&Routing> {
        self.state.as_ref().map(|s| &s.routing)
    }

    /// The row layout of the gathered buffer.
    fn shard_layout(&self) -> ShardLayout {
        ShardLayout {
            m: self.config.embed_dim,
            t: self.config.capacity(),
            sources: self.esp_group.size() * self.ep_group.size(),
            slots: self.expert_map.slots_per_position(),
            local_experts: self.shards.len(),
        }
    }

    /// Runs the distributed forward pass on this rank's `(tokens, M)`
    /// input block.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches or collective failures.
    ///
    /// # Panics
    ///
    /// Panics (in the collectives layer) if ranks disagree on the
    /// sequence of collectives — an SPMD violation.
    pub fn forward(&mut self, input: &Tensor, rng: &mut TensorRng) -> Result<Tensor> {
        if input.rank() != 2 || input.dims()[1] != self.config.embed_dim {
            return Err(MoeError::BadInput {
                expected: format!("(tokens, {})", self.config.embed_dim),
                actual: input.dims().to_vec(),
            });
        }
        let mut fwd_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_MOE_FORWARD);
        fwd_span.attr("rank", self.rank);
        let layout = self.shard_layout();
        let routing = {
            let _s = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_GATE);
            self.gate.route(input, layout.t, rng)?
        };
        if obs::is_enabled() {
            for &load in &routing.expert_loads() {
                obs::record_hist(obs::names::MOE_EXPERT_LOAD, load as f64);
            }
        }
        let buffer = self.order.order(input, &routing)?; // (E·T, M)
        let send = to_slots(&self.expert_map, layout, buffer.data());

        // Both AlltoAll legs retry and degrade: an unreachable peer
        // drops the exchange's tokens (zero-fill) rather than failing
        // the step. A degraded leg counts the routed assignments as
        // dropped at most once per forward — losing the same tokens on
        // both legs is still one loss.
        let assigned = routing.assignments().len();
        let mut degraded = false;
        let ctx = DispatchCtx::flat(&self.ep_group);
        let mut a2a = |data: &[f32]| -> Result<Vec<f32>> {
            let policy = self.fault_policy;
            match a2a_with_policy(self.dispatcher.as_ref(), policy, self.rank, data, &ctx)? {
                Some(out) => Ok(out),
                None => {
                    if !std::mem::replace(&mut degraded, true) {
                        record_drop(&mut self.dropped_tokens, self.hooks.as_mut(), assigned);
                    }
                    Ok(vec![0.0f32; data.len()])
                }
            }
        };

        let dispatch_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_DISPATCH);
        let gathered = exchange_in(&self.esp_group, &send, &mut a2a)?;
        drop(dispatch_span);

        let threads = tensor::par::num_threads();
        let compute_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_EXPERT_COMPUTE);
        let (shard_out, compute) = expert_rows(layout, &gathered, |x, offsets| {
            grouped::forward_grouped(&self.shards, x, offsets, threads)
        })?;
        drop(compute_span);

        let combine_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_COMBINE);
        let combined = exchange_out(&self.esp_group, &shard_out, &mut a2a)?;
        let combined = from_slots(&self.expert_map, layout, combined);
        let expert_out =
            Tensor::from_vec(combined, &[self.config.num_experts * layout.t, layout.m])?;
        let output = self.order.inverse(&expert_out, &routing)?;
        drop(combine_span);
        self.state = Some(DistState {
            routing,
            compute,
            gathered_rows: gathered.len() / layout.m,
        });
        Ok(output)
    }

    /// Backpropagates this rank's output gradient, mirroring the forward
    /// collectives (the adjoint of AllGather is ReduceScatter and vice
    /// versa; AlltoAll is self-adjoint).
    ///
    /// Unlike [`DistMoeLayer::forward`], backward does *not* degrade on
    /// collective failure: a half-exchanged gradient would silently skew
    /// the update, so faults propagate as errors and recovery is the
    /// caller's job (snapshot rollback, see `models::elastic`).
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::NoForwardState`] before any forward, and
    /// propagates collective faults ([`MoeError::Comm`]).
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<DistMoeGrads> {
        let mut bwd_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_MOE_BACKWARD);
        bwd_span.attr("rank", self.rank);
        let state = self.state.as_ref().ok_or(MoeError::NoForwardState)?;
        let layout = self.shard_layout();
        let ctx = DispatchCtx::flat(&self.ep_group);
        let mut a2a = |data: &[f32]| self.dispatcher.all_to_all(data, &ctx);

        // i-order adjoint: scatter weighted grads into dispatch layout
        // (the adjoint of the forward's inverse permutation is the
        // forward permutation), then into slot layout.
        let grad_expert_out = combine_backward(grad_output, &state.routing)?;
        let grad_send = to_slots(&self.expert_map, layout, grad_expert_out.data());
        let grad_shard_out = exchange_in(&self.esp_group, &grad_send, &mut a2a)?;
        debug_assert_eq!(grad_shard_out.len() / layout.m, state.gathered_rows);
        let threads = tensor::par::num_threads();
        let (grad_gathered, shard_grads) = expert_rows(layout, &grad_shard_out, |gy, offsets| {
            grouped::backward_ffn(&self.shards, gy, &state.compute, offsets, threads)
        })?;
        let grad_received = exchange_out(&self.esp_group, &grad_gathered, &mut a2a)?;
        let grad_buffer = Tensor::from_vec(
            from_slots(&self.expert_map, layout, grad_received),
            &[self.config.num_experts * layout.t, layout.m],
        )?;
        let grad_input = order_backward(&grad_buffer, &state.routing)?;
        Ok(DistMoeGrads {
            input: grad_input,
            shards: shard_grads,
        })
    }

    /// Applies SGD updates to the local shards.
    ///
    /// # Errors
    ///
    /// Returns an error when `grads` does not match the shard list.
    pub fn apply_grads(&mut self, grads: &DistMoeGrads, lr: f32) -> Result<()> {
        if grads.shards.len() != self.shards.len() {
            return Err(MoeError::BadInput {
                expected: format!("{} shard gradient sets", self.shards.len()),
                actual: vec![grads.shards.len()],
            });
        }
        for (shard, g) in self.shards.iter_mut().zip(&grads.shards) {
            shard.apply_grads(g, lr)?;
        }
        Ok(())
    }

    /// The active expert placement.
    pub fn expert_map(&self) -> &ExpertMap {
        &self.expert_map
    }

    /// Shapes of one expert's weights and their total element count.
    /// All experts share one architecture, so any local expert serves
    /// and the flat wire format is uniform per expert.
    fn weight_shapes(&self) -> (Vec<Vec<usize>>, usize) {
        let shapes: Vec<Vec<usize>> = self.shards[0]
            .weights()
            .iter()
            .map(|w| w.dims().to_vec())
            .collect();
        let total = shapes.iter().map(|d| d.iter().product::<usize>()).sum();
        (shapes, total)
    }

    /// The `esp_group` shard of the full expert holding `weights`. A
    /// scratch build supplies the module structure; its random weights
    /// are overwritten by the verbatim import (only the shapes matter,
    /// so the rng is a throwaway), and the shard stays bit-identical.
    fn rebuild_shard(&self, weights: &[Tensor], esp_group: &GroupComm) -> Result<Box<dyn Expert>> {
        let mut scratch = TensorRng::seed_from(0);
        let mut full = build_expert(
            self.config.ffn,
            self.config.embed_dim,
            self.config.hidden_dim,
            &mut scratch,
        );
        full.import_weights(weights)?;
        full.shard(esp_group.group_index(), esp_group.size())
    }

    /// Installs `checkpoint` on `map`'s placement over the given groups.
    /// Every fallible step runs before the first write.
    fn install(
        &mut self,
        checkpoint: &LayerCheckpoint,
        map: ExpertMap,
        ep_group: GroupComm,
        esp_group: GroupComm,
    ) -> Result<()> {
        if checkpoint.gate_name != self.gate.name() {
            return Err(MoeError::BadInput {
                expected: format!("gate {:?}", self.gate.name()),
                actual: vec![checkpoint.gate_name.len()],
            });
        }
        if checkpoint.experts.len() != self.config.num_experts {
            return Err(MoeError::BadInput {
                expected: format!("{} expert weight sets", self.config.num_experts),
                actual: vec![checkpoint.experts.len()],
            });
        }
        let shards = map
            .experts_on(ep_group.group_index())
            .iter()
            .map(|&e| self.rebuild_shard(&checkpoint.experts[e], &esp_group))
            .collect::<Result<Vec<_>>>()?;
        // The gate import validates every tensor before it assigns any.
        self.gate.import_weights(&checkpoint.gate)?;
        self.shards = shards;
        self.expert_map = map;
        self.ep_group = ep_group;
        self.esp_group = esp_group;
        self.state = None;
        Ok(())
    }

    /// Rebuilds this rank's gate and expert shards from a *full*
    /// checkpoint (all `E` experts), keeping only the experts the
    /// current [`ExpertMap`] places here. Forward state is discarded.
    /// All or nothing: on error the layer is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadInput`] when the checkpoint's gate family,
    /// expert count or weight shapes disagree with the layer.
    pub fn restore_full(&mut self, checkpoint: &LayerCheckpoint) -> Result<()> {
        let (ep, esp) = (self.ep_group.clone(), self.esp_group.clone());
        self.install(checkpoint, self.expert_map.clone(), ep, esp)
    }

    /// Re-shards this rank's slice after a world reconfiguration:
    /// installs `plan`'s expert placement, rebinds the EP/ESP groups
    /// over the new communicator, and restores every locally hosted
    /// expert from `checkpoint`. All or nothing: on error the layer is
    /// unchanged.
    ///
    /// The drop account ([`DistMoeLayer::dropped_tokens`]) survives the
    /// reshard — tokens lost before the eviction stay counted exactly
    /// once.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadConfig`] when the plan disagrees with the
    /// layer config or the new topology, and propagates group-building
    /// and restore failures.
    pub fn reshard(
        &mut self,
        plan: &ReshardPlan,
        checkpoint: &LayerCheckpoint,
        comm: &Communicator,
        topo: &HybridTopology,
    ) -> Result<()> {
        if plan.map.num_experts() != self.config.num_experts {
            return Err(MoeError::BadConfig {
                field: "reshard_plan",
                reason: format!(
                    "plan places {} experts, layer has {}",
                    plan.map.num_experts(),
                    self.config.num_experts
                ),
            });
        }
        if plan.map.n_ep() != topo.dims().ep {
            return Err(MoeError::BadConfig {
                field: "reshard_plan",
                reason: format!(
                    "plan spans {} EP positions, topology has {}",
                    plan.map.n_ep(),
                    topo.dims().ep
                ),
            });
        }
        let ep_group = comm.subgroup(&topo.ep_group(comm.rank()))?;
        let esp_group = comm.subgroup(&topo.esp_group(comm.rank()))?;
        self.install(checkpoint, plan.map.clone(), ep_group, esp_group)?;
        self.rank = comm.rank();
        Ok(())
    }

    /// Migrates `expert` to EP position `to_pos` without an eviction:
    /// detect (the caller's job) → fence → transfer → rebind.
    ///
    /// Every live rank of the world must call `migrate` with the same
    /// arguments, like any collective. The call:
    ///
    /// 1. validates the move and computes the new placement locally
    ///    (maps are SPMD-replicated, so every rank rejects a bad move
    ///    in lockstep before touching the network),
    /// 2. joins the world-wide migration fence
    ///    ([`Communicator::migration_fence`]) — the quiesce point:
    ///    every live rank is inside the fence, so no dispatch
    ///    addressed to the old owner can be in flight,
    /// 3. transfers the expert's weights rank-to-rank over a pair
    ///    broadcast (only the source and destination participate; the
    ///    bytes are copied verbatim, so weights stay bit-identical),
    /// 4. rebinds: installs the new [`ExpertMap`] everywhere and
    ///    drops stale forward state, so the next dispatch targets the
    ///    new owner.
    ///
    /// The world is **not** renumbered and no other expert moves.
    /// Because placement is pure (padded) data movement, a migrated
    /// run computes bit-identically to the unmigrated one.
    ///
    /// Requires `N_ESP == 1` (un-sharded local experts) — the regime
    /// the elastic trainer runs in, same as
    /// [`DistMoeLayer::checkpoint_global`].
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadConfig`] under ESP sharding or for an
    /// invalid move (unknown expert, out-of-range or unchanged
    /// position, emptied source), and propagates fence and transfer
    /// failures as [`MoeError::Comm`] — including
    /// [`CommError::MigrationConflict`] when a concurrent eviction
    /// wins the fence.
    pub fn migrate(&mut self, expert: usize, to_pos: usize, comm: &Communicator) -> Result<()> {
        if self.esp_group.size() != 1 {
            return Err(MoeError::BadConfig {
                field: "esp",
                reason: format!(
                    "migrate needs un-sharded experts (N_ESP == 1), have {}",
                    self.esp_group.size()
                ),
            });
        }
        let new_map = self.expert_map.migrated(expert, to_pos)?;
        let from_pos = self.expert_map.position_of(expert);
        let from_rank = self.ep_group.ranks()[from_pos];
        let to_rank = self.ep_group.ranks()[to_pos];

        let mut span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_ELASTIC_MIGRATE);
        span.attr("rank", self.rank);
        span.attr("expert", expert);
        span.attr("from", from_rank);
        span.attr("to", to_rank);

        comm.migration_fence(expert, from_rank, to_rank)?;

        // Transfer over a *world* broadcast rather than a pair
        // exchange: every rank shares the same collective outcome, so
        // a transfer fault cannot leave participants and bystanders
        // disagreeing about whether the new placement was installed.
        let (shapes, total) = self.weight_shapes();
        let mut flat;
        let mut source_local = None;
        if self.rank == from_rank {
            let Some(local) = self
                .expert_map
                .experts_on(from_pos)
                .iter()
                .position(|&e| e == expert)
            else {
                return Err(MoeError::BadConfig {
                    field: "migrate",
                    reason: format!("expert {expert} missing from its own position"),
                });
            };
            source_local = Some(local);
            flat = Vec::with_capacity(total);
            flatten_weights(self.shards[local].as_ref(), &mut flat);
        } else {
            flat = vec![0.0f32; total];
        }
        comm.world_group().broadcast(from_rank, &mut flat)?;

        if let Some(local) = source_local {
            self.shards.remove(local);
        }
        if self.rank == to_rank {
            // `migrated` appends the expert to the destination's list,
            // so the new shard goes to the end of ours.
            let shard = self.rebuild_shard(&unflatten_weights(&flat, &shapes)?, &self.esp_group)?;
            self.shards.push(shard);
            obs::counter_add(obs::names::MOE_MIGRATIONS, 1);
        }
        self.expert_map = new_map;
        self.state = None;
        Ok(())
    }

    /// Assembles the *full* layer checkpoint collectively: every rank
    /// contributes its local expert weights over an EP-group AllGather
    /// and all ranks return the same `E`-expert checkpoint (the gate is
    /// replicated, so it is exported locally).
    ///
    /// Requires `N_ESP == 1` (un-sharded local experts); the elastic
    /// trainer runs in exactly that regime.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadConfig`] under ESP sharding, and
    /// propagates collective failures.
    pub fn checkpoint_global(&self) -> Result<LayerCheckpoint> {
        if self.esp_group.size() != 1 {
            return Err(MoeError::BadConfig {
                field: "esp",
                reason: format!(
                    "checkpoint_global needs un-sharded experts (N_ESP == 1), have {}",
                    self.esp_group.size()
                ),
            });
        }
        let (shapes, per_expert) = self.weight_shapes();
        // The AllGather needs equal contributions, so under a
        // non-uniform placement every rank pads its flat weights to the
        // placement-wide slot count (the same padding the dispatch
        // AlltoAll uses).
        let slots = self.expert_map.slots_per_position();
        let mut flat = Vec::with_capacity(slots * per_expert);
        for shard in &self.shards {
            flatten_weights(shard.as_ref(), &mut flat);
        }
        flat.resize(slots * per_expert, 0.0);
        let gathered = self.ep_group.all_gather(&flat)?;

        let n_ep = self.ep_group.size();
        let mut experts: Vec<Vec<Tensor>> = vec![Vec::new(); self.config.num_experts];
        for p in 0..n_ep {
            let chunk = &gathered[p * flat.len()..(p + 1) * flat.len()];
            for (el, &e) in self.expert_map.experts_on(p).iter().enumerate() {
                experts[e] = unflatten_weights(&chunk[el * per_expert..], &shapes)?;
            }
        }
        Ok(LayerCheckpoint {
            gate_name: self.gate.name().to_string(),
            gate: self.gate.export_weights(),
            experts,
        })
    }
}
