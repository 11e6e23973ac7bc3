//! Elastic training: surviving *permanent* rank loss.
//!
//! [`ElasticTrainer`] is the workspace's one fault-tolerant trainer. It
//! snapshots the layer and routing RNG every
//! [`ElasticPolicy::snapshot_interval`] steps, and keeps a
//! *distributed* run alive when a rank dies for good. On a blamable
//! step failure it drives the full elastic pipeline:
//!
//! 1. **blame** — classify the fault onto a dead peer
//!    ([`CommError::RankDown`] names it; timeouts and abandoned ops are
//!    pinned on any peer already known dead);
//! 2. **evict** — survivors agree via
//!    [`Communicator::propose_evict`], which bumps the membership epoch
//!    and fences the old world;
//! 3. **reconfigure** — each survivor rebinds into the shrunken world
//!    ([`Communicator::reconfigured`]) with contiguous ranks;
//! 4. **re-shard** — the dead rank's experts are dealt round-robin
//!    across the survivors ([`ReshardPlan::round_robin`]) and every
//!    survivor restores its (new) expert set from the last snapshot;
//! 5. **resume** — routing RNG and step counter roll back to the
//!    snapshot and training continues on the smaller world.
//!
//! The property that makes this trustworthy (pinned by the elastic
//! tests): a 4-rank run that permanently loses a rank finishes with
//! weights **bit-identical** to a fresh 3-rank run started from the
//! same snapshot. Expert placement is pure data movement, so the
//! survivors' answer is *the* answer.
//!
//! Snapshots are collective ([`DistMoeLayer::checkpoint_global`]): all
//! ranks assemble the full expert set, so any survivor subset can
//! restore any expert. Rank 0 also persists each snapshot to disk when
//! a checkpoint directory is configured; recovery prefers the on-disk
//! copy (the restart path) but falls back to the in-memory snapshot —
//! with a typed error recorded, never a panic or silent zero weights —
//! when the file is truncated, NaN-bearing, or disagrees with memory.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use collectives::{CommError, Communicator, HybridTopology, ParallelDims};
use fsmoe::checkpoint::LayerCheckpoint;
use fsmoe::config::MoeConfig;
use fsmoe::dist::{DistMoeLayer, FaultPolicy};
use fsmoe::reshard::ReshardPlan;
use fsmoe::{MoeError, Result};
use tensor::{Tensor, TensorRng};

use crate::health::{drain_decision, GrayFailurePolicy, HealthAction, HealthMonitor};
use crate::imbalance::{ImbalanceDetector, MigrationDecision};
use crate::train::dist_train_step;

/// The flat elastic topology: one node, `n` GPUs, pure expert+data
/// parallelism (`ep == dp == n`, no MP or ESP sharding). EP position
/// equals rank, which is what lets an evicted *rank* map directly to an
/// evicted *expert-parallel position*.
///
/// # Errors
///
/// Returns an error when `n` is zero.
pub fn flat_topology(n: usize) -> Result<HybridTopology> {
    HybridTopology::new(
        1,
        n,
        ParallelDims {
            dp: n,
            mp: 1,
            ep: n,
            esp: 1,
        },
    )
    .map_err(MoeError::Comm)
}

/// How many evictions to survive before giving up and propagating the
/// failure.
const MAX_EVICTIONS: usize = 1;

/// Deadline for the eviction vote itself (longer than the op deadline —
/// survivors may reach the vote at different times).
const VOTE_DEADLINE: Duration = Duration::from_secs(5);

/// Knobs for the elastic pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticPolicy {
    /// Snapshot every this many steps (the rollback granularity).
    pub snapshot_interval: usize,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        ElasticPolicy {
            snapshot_interval: 2,
        }
    }
}

/// A consistent distributed snapshot: everything exact replay needs.
#[derive(Debug, Clone)]
struct ElasticSnapshot {
    step: usize,
    checkpoint: LayerCheckpoint,
    route_rng: TensorRng,
}

/// A fault-tolerant distributed training loop that survives permanent
/// rank loss by evict → reconfigure → re-shard → restore → resume.
#[derive(Debug)]
pub struct ElasticTrainer {
    comm: Communicator,
    layer: DistMoeLayer,
    policy: ElasticPolicy,
    route_rng: TensorRng,
    step: usize,
    snapshot: ElasticSnapshot,
    checkpoint_dir: Option<PathBuf>,
    evictions: usize,
    last_fallback: Option<MoeError>,
    rebalancer: Option<ImbalanceDetector>,
    migrations: usize,
    last_migration: Option<MigrationDecision>,
    health: Option<HealthMonitor>,
    gray: Option<GrayFailurePolicy>,
    /// EP positions currently quarantined (ascending, fleet-identical).
    quarantined: Vec<usize>,
    quarantines: usize,
}

/// What the post-step health check decided (internal control flow).
enum HealthOutcome {
    /// Healthy, logged, or quarantined: the step stands.
    Continue,
    /// A live slow rank was evicted; the clock rolled back, replay.
    Evicted,
}

impl ElasticTrainer {
    /// Builds the distributed layer over the flat topology and takes
    /// the initial collective snapshot (all ranks must call together).
    ///
    /// # Errors
    ///
    /// Propagates layer-construction and snapshot failures.
    pub fn new(
        config: &MoeConfig,
        comm: Communicator,
        seed: u64,
        route_rng: TensorRng,
        policy: ElasticPolicy,
    ) -> Result<Self> {
        Self::build(config, comm, seed, route_rng, policy, None)
    }

    /// Builds a trainer that *resumes* from `checkpoint` at `step` —
    /// the fresh-world half of the bit-identity property: a new, smaller
    /// world starting from the snapshot a shrunken run rolled back to.
    ///
    /// # Errors
    ///
    /// Propagates layer-construction and restore failures.
    pub fn resume(
        config: &MoeConfig,
        comm: Communicator,
        seed: u64,
        checkpoint: &LayerCheckpoint,
        route_rng: TensorRng,
        step: usize,
        policy: ElasticPolicy,
    ) -> Result<Self> {
        let from = Some((checkpoint, step));
        Self::build(config, comm, seed, route_rng, policy, from)
    }

    /// Builds the layer over the flat topology and the trainer around
    /// it: restored from `from`'s checkpoint at its step, or as seeded
    /// at step 0. The layer and `route_rng` are the first snapshot.
    fn build(
        config: &MoeConfig,
        comm: Communicator,
        seed: u64,
        route_rng: TensorRng,
        policy: ElasticPolicy,
        from: Option<(&LayerCheckpoint, usize)>,
    ) -> Result<Self> {
        let topo = flat_topology(comm.world_size())?;
        let mut layer = DistMoeLayer::gshard(config, &comm, &topo, seed)?;
        let (checkpoint, step) = match from {
            Some((checkpoint, step)) => {
                layer.restore_full(checkpoint)?;
                (checkpoint.clone(), step)
            }
            None => (layer.checkpoint_global()?, 0),
        };
        let snapshot = ElasticSnapshot {
            step,
            checkpoint,
            route_rng: route_rng.clone(),
        };
        Ok(ElasticTrainer {
            comm,
            layer,
            policy,
            route_rng,
            step,
            snapshot,
            checkpoint_dir: None,
            evictions: 0,
            last_fallback: None,
            rebalancer: None,
            migrations: 0,
            last_migration: None,
            health: None,
            gray: None,
            quarantined: Vec::new(),
            quarantines: 0,
        })
    }

    /// Also persists snapshots to `dir` (rank 0 writes, atomically) and
    /// prefers the on-disk copy during recovery.
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: PathBuf) -> Self {
        self.checkpoint_dir = Some(dir);
        self
    }

    /// Replaces the layer's AlltoAll retry/degradation policy.
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.layer.set_fault_policy(policy);
    }

    /// Enables automatic load rebalancing: after every completed step
    /// the fleet-wide expert loads feed `detector`, and a sustained-skew
    /// decision drives an eviction-free hot-expert migration
    /// ([`DistMoeLayer::migrate`]).
    ///
    /// SPMD: every rank must enable rebalancing with an identically
    /// configured detector, or ranks disagree about when to fence.
    #[must_use]
    pub fn with_rebalancing(mut self, detector: ImbalanceDetector) -> Self {
        self.rebalancer = Some(detector);
        self
    }

    /// Arms the gray-failure defense: after every completed step the
    /// per-rank self times (step wall time minus blocked-rendezvous
    /// wait) are all-reduced and fed to `monitor`, and its verdicts
    /// drive the escalation ladder — log, quarantine (hot experts drain
    /// off the slow rank, which also stops being a rebalancing
    /// destination), and finally a *live* eviction once `gray`'s
    /// keep-limping-vs-evict pricing says eviction wins.
    ///
    /// SPMD: every rank must arm an identically configured monitor and
    /// policy, or ranks walk different ladders and the vote never
    /// converges.
    #[must_use]
    pub fn with_health(mut self, monitor: HealthMonitor, gray: GrayFailurePolicy) -> Self {
        self.health = Some(monitor);
        self.gray = Some(gray);
        self
    }

    /// The health monitor, when armed (scores reflect the last step).
    pub fn health(&self) -> Option<&HealthMonitor> {
        self.health.as_ref()
    }

    /// EP positions currently quarantined, ascending.
    pub fn quarantined(&self) -> &[usize] {
        &self.quarantined
    }

    /// Quarantine escalations taken so far.
    pub fn quarantines(&self) -> usize {
        self.quarantines
    }

    /// Eviction-free expert migrations completed so far.
    pub fn migrations(&self) -> usize {
        self.migrations
    }

    /// The most recent migration decision acted on, if any.
    pub fn last_migration(&self) -> Option<MigrationDecision> {
        self.last_migration
    }

    /// The wrapped distributed layer.
    pub fn layer(&self) -> &DistMoeLayer {
        &self.layer
    }

    /// The current communicator (replaced on reconfiguration).
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// Steps completed (rolled back on recovery).
    pub fn step(&self) -> usize {
        self.step
    }

    /// The step of the latest snapshot.
    pub fn last_snapshot_step(&self) -> usize {
        self.snapshot.step
    }

    /// Evictions survived so far.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// The routing RNG as of now (cloned; used by the bit-identity
    /// tests to seed a fresh-world resume).
    pub fn route_rng(&self) -> TensorRng {
        self.route_rng.clone()
    }

    /// Token assignments dropped by graceful degradation — preserved
    /// across re-sharding, counted exactly once per lost exchange.
    pub fn dropped_tokens(&self) -> usize {
        self.layer.dropped_tokens()
    }

    /// The typed error behind the most recent disk-checkpoint fallback,
    /// if recovery ever had to distrust the on-disk copy.
    pub fn last_fallback(&self) -> Option<&MoeError> {
        self.last_fallback.as_ref()
    }

    /// Assembles the full layer checkpoint collectively (all live ranks
    /// must call together).
    ///
    /// # Errors
    ///
    /// Propagates collective failures.
    pub fn full_checkpoint(&self) -> Result<LayerCheckpoint> {
        self.layer.checkpoint_global()
    }

    fn snapshot_path(&self, step: usize) -> Option<PathBuf> {
        self.checkpoint_dir
            .as_ref()
            .map(|d| d.join(format!("elastic-step-{step}.json")))
    }

    fn maybe_snapshot(&mut self) -> Result<()> {
        if !self.step.is_multiple_of(self.policy.snapshot_interval)
            || self.step == self.snapshot.step
        {
            return Ok(());
        }
        let mut span = obs::span(obs::names::CAT_MODELS, obs::names::SPAN_SNAPSHOT);
        span.attr("step", self.step);
        let checkpoint = self.layer.checkpoint_global()?;
        if self.comm.rank() == 0 {
            if let Some(path) = self.snapshot_path(self.step) {
                checkpoint.save(&path)?;
            }
        }
        self.snapshot = ElasticSnapshot {
            step: self.step,
            checkpoint,
            route_rng: self.route_rng.clone(),
        };
        Ok(())
    }

    /// Pins a step failure on a dead peer, if the fault is the kind a
    /// dead peer causes. `RankDown` names the culprit directly; a
    /// timeout, abandoned exchange, poisoned group, or fenced world is
    /// blamed on any peer already known dead. Everything else (shape
    /// errors, local faults) is unblamable and propagates.
    fn blame(&self, err: &MoeError) -> Option<usize> {
        let comm_err = match err {
            MoeError::Comm(e) => e,
            _ => return None,
        };
        match comm_err {
            CommError::RankDown { rank } if *rank != self.comm.rank() => Some(*rank),
            CommError::Timeout { .. }
            | CommError::Abandoned { .. }
            | CommError::Poisoned { .. }
            | CommError::Reconfigured { .. } => {
                (0..self.comm.world_size()).find(|&r| r != self.comm.rank() && self.comm.is_dead(r))
            }
            // This rank itself is down, a lost eviction or migration
            // race, or a structural/config error: no peer to blame,
            // propagate.
            CommError::RankDown { .. }
            | CommError::EvictConflict { .. }
            | CommError::MigrationConflict { .. }
            | CommError::RankOutOfRange { .. }
            | CommError::InvalidGroup { .. }
            | CommError::NotAMember { .. }
            | CommError::BadBufferLength { .. }
            | CommError::BadParallelism { .. } => None,
        }
    }

    /// Loads the recovery checkpoint, preferring the on-disk snapshot.
    /// A truncated, NaN-bearing, missing, or memory-disagreeing file
    /// records a typed fallback (and the `elastic.checkpoint_fallbacks`
    /// counter) and yields the in-memory snapshot instead — recovery
    /// never panics on a bad file and never restores garbage.
    fn load_recovery_checkpoint(&mut self) -> LayerCheckpoint {
        if let Some(path) = self.snapshot_path(self.snapshot.step) {
            if path.exists() {
                match LayerCheckpoint::load(&path) {
                    Ok(ck) if ck == self.snapshot.checkpoint => return ck,
                    Ok(_) => self.note_fallback(MoeError::CorruptCheckpoint {
                        reason: format!(
                            "on-disk snapshot for step {} disagrees with memory",
                            self.snapshot.step
                        ),
                    }),
                    Err(e) => self.note_fallback(e),
                }
            }
        }
        self.snapshot.checkpoint.clone()
    }

    fn note_fallback(&mut self, err: MoeError) {
        obs::counter_add(obs::names::ELASTIC_CHECKPOINT_FALLBACKS, 1);
        self.last_fallback = Some(err);
    }

    /// The full elastic pipeline: evict `victim`, rebind into the
    /// shrunken world, deal its experts across the survivors, restore
    /// from the last snapshot, and roll the clock back to it.
    fn recover_from_eviction(&mut self, victim: usize) -> Result<()> {
        let mut span = obs::span(obs::names::CAT_MODELS, obs::names::SPAN_ELASTIC_RECONFIGURE);
        span.attr("victim", victim);
        span.attr("from_step", self.step);
        let mut vote_comm = self.comm.clone();
        vote_comm.set_deadline(Some(VOTE_DEADLINE));
        let epoch = match vote_comm.propose_evict(victim) {
            Ok(epoch) => epoch,
            // Another handle already drove the world past us — rebind.
            Err(CommError::Reconfigured { epoch }) => epoch,
            Err(e) => return Err(MoeError::Comm(e)),
        };
        let new_comm = self.comm.reconfigured().map_err(MoeError::Comm)?;
        span.attr("epoch", epoch);
        span.attr("survivors", new_comm.world_size());
        // Flat topology: the evicted rank IS the evicted EP position.
        // The uneven deal matters on the gray-failure path: a
        // quarantine drain thins the victim's list before eviction, so
        // its orphan count rarely divides over the survivors.
        let plan = ReshardPlan::round_robin_uneven(self.layer.expert_map(), victim)?;
        let checkpoint = self.load_recovery_checkpoint();
        let topo = flat_topology(new_comm.world_size())?;
        self.layer.reshard(&plan, &checkpoint, &new_comm, &topo)?;
        self.comm = new_comm;
        self.route_rng = self.snapshot.route_rng.clone();
        self.step = self.snapshot.step;
        self.evictions += 1;
        Ok(())
    }

    /// After a completed step: all-reduce this rank's expert loads so
    /// every rank sees identical fleet-wide totals, feed the detector,
    /// and on a sustained-skew decision migrate the hot expert. A
    /// migration that loses its fence to a concurrent eviction
    /// ([`CommError::MigrationConflict`]) is skipped, not fatal — the
    /// eviction path owns recovery and the detector re-fires after its
    /// cooldown.
    fn maybe_rebalance(&mut self) -> Result<()> {
        if self.rebalancer.is_none() {
            return Ok(());
        }
        // Per-rank routings differ; the decision must not. Summing over
        // the world gives every rank the same detector input.
        let Some(loads) = self.fleet_loads()? else {
            return Ok(());
        };
        let Some(detector) = self.rebalancer.as_mut() else {
            return Ok(());
        };
        // Quarantined positions are off-limits as destinations: the
        // rebalancer must not pile load back onto a slow rank.
        let Some(decision) =
            detector.observe_excluding(self.layer.expert_map(), &loads, &self.quarantined)
        else {
            return Ok(());
        };
        self.apply_migration(decision)
    }

    /// Executes a fenced migration, tolerating a lost fence race
    /// ([`CommError::MigrationConflict`] — the eviction path owns
    /// recovery and the decision re-fires later).
    fn apply_migration(&mut self, decision: MigrationDecision) -> Result<()> {
        match self.layer.migrate(decision.expert, decision.to, &self.comm) {
            Ok(()) => {
                self.migrations += 1;
                self.last_migration = Some(decision);
                Ok(())
            }
            Err(MoeError::Comm(CommError::MigrationConflict { .. })) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// All-reduces fleet-wide expert loads (identical on every rank).
    fn fleet_loads(&self) -> Result<Option<Vec<f64>>> {
        let Some(routing) = self.layer.last_routing() else {
            return Ok(None);
        };
        let mut local: Vec<f32> = routing.expert_loads().iter().map(|&l| l as f32).collect();
        self.comm
            .world_group()
            .all_reduce(&mut local)
            .map_err(MoeError::Comm)?;
        Ok(Some(local.iter().map(|&l| f64::from(l)).collect()))
    }

    /// Drains one hot expert off the lowest quarantined position onto
    /// the least-loaded healthy one ([`drain_decision`]).
    fn drain_quarantined(&mut self) -> Result<()> {
        let Some(loads) = self.fleet_loads()? else {
            return Ok(());
        };
        let Some(decision) = drain_decision(self.layer.expert_map(), &loads, &self.quarantined)
        else {
            return Ok(());
        };
        self.apply_migration(decision)
    }

    /// The post-step health check: all-reduce per-rank self times so
    /// every rank scores the identical vector, then walk the ladder on
    /// the monitor's verdict. Runs only when health is armed, and every
    /// branch is SPMD-deterministic.
    ///
    /// Returns `Err(RankDown{me})` when *this* rank is the priced-out
    /// victim: peers evict it, and the canonical self-down error tells
    /// the caller to stop stepping — exactly what a dead rank's caller
    /// sees.
    fn maybe_check_health(&mut self, self_us: f64) -> Result<HealthOutcome> {
        if self.health.is_none() {
            return Ok(HealthOutcome::Continue);
        }
        let me = self.comm.rank();
        let mut v = vec![0.0f32; self.comm.world_size()];
        v[me] = self_us as f32;
        self.comm
            .world_group()
            .all_reduce(&mut v)
            .map_err(MoeError::Comm)?;
        let times: Vec<f64> = v.iter().map(|&t| f64::from(t)).collect();
        let Some(monitor) = self.health.as_mut() else {
            return Ok(HealthOutcome::Continue);
        };
        match monitor.observe(&times) {
            None | Some(HealthAction::Log { .. }) => Ok(HealthOutcome::Continue),
            Some(HealthAction::Quarantine { rank, .. }) => {
                if !self.quarantined.contains(&rank) {
                    self.quarantined.push(rank);
                    self.quarantined.sort_unstable();
                    self.quarantines += 1;
                }
                self.drain_quarantined()?;
                Ok(HealthOutcome::Continue)
            }
            Some(HealthAction::EvictCandidate { rank, score }) => {
                self.consider_eviction(rank, score)
            }
        }
    }

    /// The ladder's last rung: price keep-limping vs evict, and only
    /// evict the live-but-slow rank when the arithmetic says so. Every
    /// pricing input is fleet-identical (all-reduced scores and medians,
    /// the shared config), so all ranks decide alike.
    fn consider_eviction(&mut self, victim: usize, score: f64) -> Result<HealthOutcome> {
        let defer = |health: &mut Option<HealthMonitor>| {
            if let Some(m) = health.as_mut() {
                m.defer();
            }
        };
        let Some(gray) = self.gray else {
            // No pricing policy: never auto-evict a live rank.
            defer(&mut self.health);
            return Ok(HealthOutcome::Continue);
        };
        let healthy_step_ms = self
            .health
            .as_ref()
            .map_or(0.0, HealthMonitor::median_self_us)
            / 1e3;
        let replay_steps = self.step - self.snapshot.step;
        let cost = gray.price(self.comm.world_size(), healthy_step_ms, score, replay_steps);
        if !cost.eviction_wins() || self.evictions >= MAX_EVICTIONS {
            defer(&mut self.health);
            return Ok(HealthOutcome::Continue);
        }
        obs::counter_add(obs::names::HEALTH_EVICTIONS, 1);
        if victim == self.comm.rank() {
            return Err(MoeError::Comm(CommError::RankDown { rank: victim }));
        }
        self.recover_from_eviction(victim)?;
        if let Some(m) = self.health.as_mut() {
            m.reset(self.comm.world_size());
        }
        self.quarantined.clear();
        Ok(HealthOutcome::Evicted)
    }

    /// Runs one training step, driving the elastic pipeline when a peer
    /// is down: retried steps replay from the last snapshot on the
    /// surviving world, so a returned loss is always a *completed* step.
    ///
    /// # Errors
    ///
    /// Propagates unblamable failures, and blamable ones once the
    /// eviction budget (one eviction) is spent.
    pub fn train_step(&mut self, input: &Tensor, target: &Tensor, lr: f32) -> Result<f32> {
        loop {
            // Self time = step wall time minus time spent blocked in
            // rendezvous waits: a browned-out rank's injected slowness
            // is self time, while its healthy peers mostly accumulate
            // *wait* — which the subtraction removes, so the slow rank
            // stands out instead of dragging everyone's score up.
            let wait_before = self.comm.blocked_wait_us(self.comm.rank());
            let wall_start = Instant::now();
            let result = self
                .maybe_snapshot()
                .and_then(|()| {
                    dist_train_step(&mut self.layer, input, target, lr, &mut self.route_rng)
                })
                .and_then(|loss| self.maybe_rebalance().map(|()| loss));
            let err = match result {
                Ok(loss) => {
                    self.step += 1;
                    let wall_us = wall_start.elapsed().as_micros() as u64;
                    let waited = self
                        .comm
                        .blocked_wait_us(self.comm.rank())
                        .saturating_sub(wait_before);
                    let self_us = wall_us.saturating_sub(waited) as f64;
                    // lint: allow(wallclock-decision) — the per-rank
                    // self time is all-reduced inside maybe_check_health
                    // before any verdict, so every rank scores the same
                    // fleet-wide vector; the wall-clock reading itself
                    // never steers a branch locally.
                    match self.maybe_check_health(self_us)? {
                        HealthOutcome::Continue => return Ok(loss),
                        // The live eviction rolled the clock back to
                        // the snapshot: replay the discarded steps on
                        // the shrunken world.
                        HealthOutcome::Evicted => continue,
                    }
                }
                Err(e) => e,
            };
            let Some(victim) = self.blame(&err) else {
                return Err(err);
            };
            if self.evictions >= MAX_EVICTIONS {
                return Err(err);
            }
            self.recover_from_eviction(victim)?;
        }
    }
}
