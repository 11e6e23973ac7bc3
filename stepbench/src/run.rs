//! Worlds, phases and the closed training loop of every rank.
//!
//! A run builds its 2-rank world several times (each build is one
//! `setup_s` sample), then trains in the last one: a first step checked
//! against the stage replay, then timed phases. Phases end when rank 0
//! sees their time is up; it publishes the step count every rank stops
//! at, which keeps the collectives of all ranks in lockstep.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use collectives::{run_world_within, CommWorld, Communicator, GroupComm};
use fsmoe::dist::DistMoeLayer;
use fsmoe::gate::GShardGate;
use models::{dist_train_step, ElasticTrainer};
use tensor::TensorRng;

use crate::replay::{check_same, real_step, replay_front, Replay};
use crate::trace::{thread_minor_faults, Span, SpanLog, Stage, MIGRATION, SNAPSHOT};
use crate::workload::{elastic_policy, gate_for, layer_seed, route_rng, Driver, Inputs, Workload};
use crate::Result;

/// Untimed steps before the first timed one (the first is also the
/// replay check).
pub const WARMUP: usize = 2;

/// Longest a world may run before the watchdog fails the run.
const WORLD_BUDGET: Duration = Duration::from_secs(170);

/// One timed phase of a world. Rank 0 closes it; every rank stops at
/// the step count rank 0 publishes.
#[derive(Debug)]
pub struct Phase {
    seconds: f64,
    limit: AtomicUsize,
}

impl Phase {
    /// A phase that lasts `seconds` (0 skips it).
    pub fn new(seconds: f64) -> Self {
        Phase {
            seconds,
            limit: AtomicUsize::new(usize::MAX),
        }
    }

    /// Whether the phase runs at all.
    fn active(&self) -> bool {
        self.seconds > 0.0
    }

    /// Whether `rank` runs the phase's step number `done`.
    ///
    /// Rank 0 closes the phase at the first step it is about to start
    /// after `end` once `ready` holds, by publishing `done + 1` as the
    /// limit: its peers cannot have finished step `done` without rank 0,
    /// so none of them is past it, and all run exactly `done + 1` steps.
    fn go(&self, rank: usize, done: usize, end: Instant, ready: bool) -> bool {
        if !self.active() {
            return false;
        }
        if rank == 0 && ready && Instant::now() >= end {
            let _ = self.limit.compare_exchange(
                usize::MAX,
                done + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        done < self.limit.load(Ordering::SeqCst)
    }
}

/// What one world does after set-up.
#[derive(Debug)]
pub struct Plan {
    /// Time zero of every span and set-up timestamp.
    pub epoch: Instant,
    /// Build everything, then return without training.
    pub setup_only: bool,
    /// Traced steps: real step plus stage replay, every step checked.
    pub traced: Phase,
    /// Untraced steps, timed as whole steps only.
    pub untraced: Phase,
    /// Train at least this many steps in total.
    pub min_steps: usize,
}

/// What one rank brings back from a world.
#[derive(Debug, Default)]
pub struct RankOut {
    /// Microseconds from the epoch until this rank was ready to step.
    pub setup_us: f64,
    /// Wall time of every untraced timed step.
    pub untraced_us: Vec<f64>,
    /// Loss of every step, in order.
    pub losses: Vec<f32>,
    /// Spans of the traced steps.
    pub spans: Vec<Span>,
    /// Steps whose exchange degraded (`dropped_tokens()` grew).
    pub degraded: usize,
    /// Capacity-drop ratio of every routed step.
    pub route_drop: Vec<f64>,
    /// Expert migrations over the run.
    pub migrations: usize,
    /// Steps that took a snapshot.
    pub snapshots: usize,
    /// Steps checked bit for bit against a replay.
    pub checked: usize,
    /// Size of the EP group the layer dispatched over.
    pub ep_group: usize,
    /// Replay mismatches and broken invariants.
    pub errors: Vec<String>,
}

/// Builds a world for `w`, runs `plan` on every rank, and returns the
/// per-rank outputs in rank order.
///
/// # Panics
///
/// Panics when a rank fails or the world outlives its watchdog budget:
/// ranks stuck in a collective cannot be unwound, so the process ends.
pub fn run_world(w: &Workload, seed: u64, plan: Plan) -> Vec<RankOut> {
    let w = w.clone();
    let plan = Arc::new(plan);
    run_world_within(CommWorld::new(w.ranks), WORLD_BUDGET, move |comm| {
        let rank = comm.rank();
        let out = match w.driver {
            Driver::Layer => LayerRank::run(comm, &w, seed, &plan),
            Driver::Elastic => ElasticRank::run(comm, &w, seed, &plan),
        };
        out.unwrap_or_else(|e| panic!("{} rank {rank}: {e}", w.name))
    })
}

/// Restarts the process's peak resident set once every rank has
/// dropped what it built only for checking (replica, replay state):
/// rank 0 returns freed heap to the OS and resets `VmHWM` between two
/// world barriers, so `peak_rss_mb` covers what is live from here on.
/// A failed reset is booked in `errors`, not returned, so that no peer
/// is left waiting at the second barrier.
fn restart_peak_rss(world: &GroupComm, rank: usize, errors: &mut Vec<String>) -> Result<()> {
    world.barrier()?;
    if rank == 0 {
        if let Err(e) = crate::bench::reset_peak_rss() {
            errors.push(e.to_string());
        }
    }
    world.barrier()?;
    Ok(())
}

/// Deadline of a phase that starts now.
fn phase_end(phase: &Phase) -> Instant {
    Instant::now() + Duration::from_secs_f64(phase.seconds)
}

/// One rank of a layer workload: the measured layer, the replica its
/// replay updates, and the rank's inputs and outputs.
struct LayerRank<'a> {
    w: &'a Workload,
    layer: DistMoeLayer,
    inputs: Inputs,
    rng: TensorRng,
    log: SpanLog,
    out: RankOut,
    step: usize,
}

impl LayerRank<'_> {
    fn run(comm: Communicator, w: &Workload, seed: u64, plan: &Plan) -> Result<RankOut> {
        let rank = comm.rank();
        let log = SpanLog::new(plan.epoch);
        // Only the traced phase wraps the gate and dispatcher; an
        // untraced run times the layer exactly as `gshard()` builds it,
        // with the program's own gate, ordering and dispatcher.
        let layer = if plan.traced.active() {
            crate::replay::timed_layer(w, seed, &comm, &log)?
        } else {
            DistMoeLayer::gshard(&w.cfg, &comm, &w.topology()?, layer_seed(seed))?
        };
        let inputs = Inputs::new(w, seed, rank)?;
        let out = RankOut {
            setup_us: log.now_us(),
            ep_group: layer.expert_map().n_ep(),
            ..RankOut::default()
        };
        if plan.setup_only {
            return Ok(out);
        }
        let mut me = LayerRank {
            w,
            layer,
            inputs,
            rng: route_rng(seed, rank),
            log,
            out,
            step: 0,
        };

        // Step 0 is the first replay check and a warm-up; the replica
        // then shadows the layer through the traced phase.
        let mut replica = DistMoeLayer::gshard(&w.cfg, &comm, &w.topology()?, layer_seed(seed))?;
        let mut replay = Replay::new(w, seed, &comm)?;
        let world = comm.world_group();
        me.checked_step(&mut replica, &mut replay, &world)?;
        me.log.discard_open();

        me.log.set_armed(true);
        let end = phase_end(&plan.traced);
        let mut done = 0usize;
        while plan.traced.go(rank, done, end, true) {
            me.checked_step(&mut replica, &mut replay, &world)?;
            me.log.close_step(me.step - 1);
            done += 1;
        }
        me.log.set_armed(false);
        drop(replica);
        drop(replay);
        restart_peak_rss(&world, rank, &mut me.out.errors)?;

        // Untraced: the user-facing step, timed whole.
        while me.step < WARMUP {
            me.plain_step(false)?;
        }
        let end = phase_end(&plan.untraced);
        let mut done = 0usize;
        while plan.untraced.go(rank, done, end, me.step >= plan.min_steps) {
            me.plain_step(true)?;
            done += 1;
        }
        me.out.spans = me.log.into_spans();
        Ok(me.out)
    }

    /// One real step checked bit for bit against its stage replay.
    fn checked_step(
        &mut self,
        replica: &mut DistMoeLayer,
        replay: &mut Replay,
        world: &GroupComm,
    ) -> Result<()> {
        let w = self.w;
        let (x, target) = self.inputs.batch(self.step, w.cfg.tokens())?;
        let mut replay_rng = self.rng.clone();
        let dropped = self.layer.dropped_tokens();
        // Both the real step and its replay start from a barrier, so the
        // waits inside each are the step's own imbalance, not skew
        // carried over from the previous call.
        world.barrier()?;
        let real = real_step(&mut self.layer, &x, &target, w.lr, &mut self.rng, &self.log)?;
        self.note_step(dropped, real.loss);
        world.barrier()?;
        let replayed = replay.step(replica, &x, &target, w.lr, &mut replay_rng, &self.log)?;
        if let Err(e) = check_same(&real, &replayed, &self.layer, replica) {
            self.out.errors.push(format!("step {}: {e}", self.step - 1));
        }
        self.out.checked += 1;
        Ok(())
    }

    /// One `models::dist_train_step`; a `timed` step records its wall
    /// time.
    fn plain_step(&mut self, timed: bool) -> Result<()> {
        let w = self.w;
        let (x, target) = self.inputs.batch(self.step, w.cfg.tokens())?;
        let dropped = self.layer.dropped_tokens();
        let start = Instant::now();
        let loss = dist_train_step(&mut self.layer, &x, &target, w.lr, &mut self.rng)?;
        let us = start.elapsed().as_secs_f64() * 1e6;
        if timed {
            self.out.untraced_us.push(us);
        }
        self.note_step(dropped, loss);
        Ok(())
    }

    /// Books a finished step: loss, capacity drops, degradation.
    fn note_step(&mut self, dropped_before: usize, loss: f32) {
        if let Some(routing) = self.layer.last_routing() {
            self.out.route_drop.push(routing.drop_rate());
        }
        self.out.degraded += usize::from(self.layer.dropped_tokens() > dropped_before);
        self.out.losses.push(loss);
        self.step += 1;
    }
}

/// How an elastic step is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Untimed, with the routing check.
    Warmup,
    /// A span, the front replay and the routing check.
    Traced,
    /// Wall time only.
    Timed,
}

/// One rank of `skew_elastic`: the trainer, a copy of its gate for the
/// front replay, and the rank's inputs and outputs.
struct ElasticRank<'a> {
    w: &'a Workload,
    trainer: ElasticTrainer,
    gate: GShardGate,
    inputs: Inputs,
    log: SpanLog,
    out: RankOut,
    step: usize,
}

impl ElasticRank<'_> {
    fn run(comm: Communicator, w: &Workload, seed: u64, plan: &Plan) -> Result<RankOut> {
        let rank = comm.rank();
        let log = SpanLog::new(plan.epoch);
        let (policy, detector) = elastic_policy();
        let trainer = ElasticTrainer::new(
            &w.cfg,
            comm,
            layer_seed(seed),
            route_rng(seed, rank),
            policy,
        )?
        .with_rebalancing(detector);
        let inputs = Inputs::new(w, seed, rank)?;
        let out = RankOut {
            setup_us: log.now_us(),
            ep_group: trainer.layer().expert_map().n_ep(),
            ..RankOut::default()
        };
        if plan.setup_only {
            return Ok(out);
        }
        let mut me = ElasticRank {
            w,
            trainer,
            gate: gate_for(w, seed).0,
            inputs,
            log,
            out,
            step: 0,
        };

        // Step 0: warm-up with the routing check, untimed.
        me.step(Mode::Warmup)?;
        me.log.discard_open();

        // Traced: the trainer's step timed whole and classified, the
        // gate and ordering replayed on the same batch. The phase runs
        // on until it has seen a migration, so the migration stall has a
        // sample.
        let end = phase_end(&plan.traced);
        let hard_end = end + Duration::from_secs_f64(plan.traced.seconds);
        let migrations_before = me.trainer.migrations();
        let mut done = 0usize;
        loop {
            let ready = me.trainer.migrations() > migrations_before || Instant::now() >= hard_end;
            if !plan.traced.go(rank, done, end, ready) {
                break;
            }
            me.step(Mode::Traced)?;
            me.log.close_step(me.step - 1);
            done += 1;
        }

        while me.step < WARMUP {
            me.step(Mode::Warmup)?;
            me.log.discard_open();
        }
        let world = me.trainer.comm().world_group();
        restart_peak_rss(&world, rank, &mut me.out.errors)?;
        let end = phase_end(&plan.untraced);
        let mut done = 0usize;
        while plan.untraced.go(rank, done, end, me.step >= plan.min_steps) {
            me.step(Mode::Timed)?;
            done += 1;
        }
        me.out.migrations = me.trainer.migrations();
        me.out.spans = me.log.into_spans();
        Ok(me.out)
    }

    /// One `ElasticTrainer::train_step`, run as `mode` says.
    fn step(&mut self, mode: Mode) -> Result<()> {
        let w = self.w;
        let step = self.step;
        self.step += 1;
        let (x, target) = self.inputs.batch(step, w.cfg.tokens())?;
        let trainer = &mut self.trainer;
        let out = &mut self.out;
        let mut replay_rng = trainer.route_rng();
        let migrations = trainer.migrations();
        let snapshot = trainer.last_snapshot_step();
        let dropped = trainer.dropped_tokens();
        if mode == Mode::Traced {
            trainer.comm().world_group().barrier()?;
        }
        let faults = thread_minor_faults();
        let start = self.log.now_us();
        let loss = trainer.train_step(&x, &target, w.lr)?;
        let end = self.log.now_us();
        let faults = thread_minor_faults().saturating_sub(faults);
        let mut class = 0u8;
        if trainer.last_snapshot_step() != snapshot {
            class |= SNAPSHOT;
            out.snapshots += 1;
        }
        if trainer.migrations() > migrations {
            class |= MIGRATION;
        }
        out.degraded += usize::from(trainer.dropped_tokens() > dropped);
        out.losses.push(loss);
        if mode == Mode::Timed {
            out.untraced_us.push(end - start);
            if let Some(routing) = trainer.layer().last_routing() {
                out.route_drop.push(routing.drop_rate());
            }
            return Ok(());
        }
        if mode == Mode::Traced {
            let mut span = Span::new(Stage::TrainStep, start, end);
            span.class = class;
            span.faults = faults;
            self.log.push(span);
        }
        let routing = replay_front(&self.gate, w.cfg.capacity(), &x, &mut replay_rng, &self.log)?;
        out.route_drop.push(routing.drop_rate());
        // A migration clears the saved routing; otherwise the trainer's
        // routing must be the replayed one.
        if let Some(actual) = trainer.layer().last_routing() {
            out.checked += 1;
            if actual != &routing {
                out.errors.push(format!(
                    "step {step}: trainer routing differs from the gate replay"
                ));
            }
        }
        Ok(())
    }
}
