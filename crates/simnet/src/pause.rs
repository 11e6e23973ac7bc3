//! Pricing control-plane pauses.
//!
//! Training stops for three control-plane events, and each one pays a
//! short list of phases that run strictly in sequence. Every phase is
//! priced with the same α–β models the rest of the simulator uses, and
//! every event is the same shape: a [`PhaseCost`].
//!
//! * **Reconfiguration** ([`price_reconfiguration`]) — a rank died for
//!   good (the elastic-membership protocol in DESIGN.md §6). *detect*:
//!   the collective deadline must expire before anyone blames the dead
//!   peer. *agree*: the survivors vote the victim out, an
//!   AllReduce-shaped exchange of one vote word. *reshard*: the
//!   orphaned expert weights move to their new owners over the
//!   AllGather-shaped global checkpoint. *restore*: every survivor
//!   reloads the rolled-back snapshot.
//! * **Migration** ([`price_migration`]) — one hot expert moves
//!   without an eviction (DESIGN.md §10). *quiesce*: the world-wide
//!   fence, an AllReduce of one fence word that drains in-flight
//!   collectives. *transfer*: the expert's weights go source →
//!   destination, priced on the AlltoAll model as the simulator's
//!   point-to-point stand-in. *rebind*: the destination rebuilds its
//!   shards and every rank installs the placement, pure local work.
//!   There is no deadline to sit out and no snapshot to reload, which
//!   is why a migration prices far below a reconfiguration for the
//!   same payload.
//! * **Gray failure** ([`GrayFailurePolicy::price`]) — a browned-out
//!   rank does not stop training, it *taxes* it: every step runs at the
//!   slow rank's pace. Evicting it pays the reconfiguration up front
//!   (with *detect* = 0: health scoring already named the rank, nobody
//!   sat out a deadline), then *replay* of the steps the rollback
//!   discarded, then the *resumed* horizon on one fewer rank, each step
//!   proportionally heavier. `ElasticTrainer` only evicts a live-but-slow
//!   rank once [`GrayFailureCost::eviction_wins`] says that beats
//!   limping.

use crate::{OpCosts, ResourceId, TaskGraph, TaskId};

/// A priced pause: named phases in ms, in execution order. Each phase
/// waits for the one before it, so the pause costs their sum.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    /// The event, and the prefix of its task names (`"reconfig"`,
    /// `"migrate"`, `"evict"`).
    pub label: &'static str,
    /// `(phase, ms)` pairs in execution order.
    pub phases: Vec<(&'static str, f64)>,
}

impl PhaseCost {
    /// Total pause: the phases summed left to right.
    pub fn total(&self) -> f64 {
        self.phases.iter().map(|&(_, ms)| ms).sum()
    }

    /// The cost of the phase called `name`, if the pause has one.
    pub fn phase(&self, name: &str) -> Option<f64> {
        self.phases
            .iter()
            .find_map(|&(phase, ms)| (phase == name).then_some(ms))
    }

    /// Appends the pause as a chain of tasks named `label.phase` on
    /// `resource` (the link every phase serialises on), after `deps`.
    /// Returns the final task — schedule the resumed training after it.
    ///
    /// # Panics
    ///
    /// Panics when the pause has no phases; every pricer emits at least
    /// one.
    pub fn add_tasks(
        &self,
        graph: &mut TaskGraph,
        resource: ResourceId,
        deps: &[TaskId],
    ) -> TaskId {
        let mut last: Option<TaskId> = None;
        for &(name, ms) in &self.phases {
            let after = last.as_ref().map_or(deps, std::slice::from_ref);
            last = Some(graph.add_task(format!("{}.{name}", self.label), resource, ms, after));
        }
        last.expect("a priced pause has at least one phase")
    }
}

/// Prices one reconfiguration event.
///
/// * `world` — surviving rank count (the vote spans the survivors).
/// * `deadline_ms` — the collective deadline; detection cannot be
///   faster than the deadline that declares the victim dead.
/// * `moved_bytes` — orphaned expert weights that change owner.
/// * `checkpoint_bytes` — full snapshot each survivor reloads.
///
/// The vote exchanges one 8-byte word per survivor.
pub fn price_reconfiguration(
    costs: &OpCosts,
    world: usize,
    deadline_ms: f64,
    moved_bytes: f64,
    checkpoint_bytes: f64,
) -> PhaseCost {
    let world = world.max(1) as f64;
    PhaseCost {
        label: "reconfig",
        phases: vec![
            ("detect", deadline_ms.max(0.0)),
            ("agree", costs.all_reduce.time(8.0 * world)),
            ("reshard", costs.all_gather.time(moved_bytes.max(0.0))),
            ("restore", costs.all_gather.time(checkpoint_bytes.max(0.0))),
        ],
    }
}

/// Prices one eviction-free expert migration.
///
/// * `world` — live rank count (the fence spans the whole world).
/// * `expert_bytes` — the migrated expert's weight payload.
/// * `rebind_ms` — local rebuild time on the destination (measured or
///   modeled; clamped to ≥ 0).
///
/// The fence exchanges one 8-byte word per rank.
pub fn price_migration(
    costs: &OpCosts,
    world: usize,
    expert_bytes: f64,
    rebind_ms: f64,
) -> PhaseCost {
    let world = world.max(1) as f64;
    PhaseCost {
        label: "migrate",
        phases: vec![
            ("quiesce", costs.all_reduce.time(8.0 * world)),
            ("transfer", costs.a2a.time(expert_bytes.max(0.0))),
            ("rebind", rebind_ms.max(0.0)),
        ],
    }
}

/// The two sides of the keep-limping-vs-evict comparison, in ms.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayFailureCost {
    /// Cost of doing nothing: the horizon run at the slow rank's pace.
    pub limp: f64,
    /// The eviction branch: the reconfiguration's phases (detect = 0),
    /// then `replay` and `resumed` on the shrunken world.
    pub evict: PhaseCost,
}

impl GrayFailureCost {
    /// Whether evicting the slow rank beats limping over the horizon.
    pub fn eviction_wins(&self) -> bool {
        self.evict.total() < self.limp
    }
}

/// The keep-limping-vs-evict inputs the trainer prices when its health
/// ladder names a rank as an eviction candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayFailurePolicy {
    /// α–β op costs to price the reconfiguration with.
    pub costs: OpCosts,
    /// How many future steps the comparison amortizes over. Short
    /// horizons favour limping (the reconfiguration never amortizes);
    /// long horizons favour eviction.
    pub horizon_steps: usize,
    /// Orphaned expert bytes an eviction would move.
    pub moved_bytes: f64,
    /// Snapshot bytes every survivor would reload.
    pub checkpoint_bytes: f64,
}

impl GrayFailurePolicy {
    /// Prices the crossover for one gray-failed rank.
    ///
    /// * `world` — current rank count, slow rank included.
    /// * `healthy_step_ms` — a step's cost when nobody limps.
    /// * `slowdown` — the slow rank's health score (1.0 = healthy, 2.0
    ///   = half speed); the whole fleet steps at this pace. Clamped to
    ///   ≥ 1.
    /// * `replay_steps` — how far the rollback would rewind (current
    ///   step minus snapshot step).
    ///
    /// Every input is identical on every rank of an SPMD program
    /// (scores are all-reduced, sizes derive from the config), so every
    /// rank prices the same crossover and the eviction decision is
    /// itself SPMD.
    #[must_use]
    pub fn price(
        &self,
        world: usize,
        healthy_step_ms: f64,
        slowdown: f64,
        replay_steps: usize,
    ) -> GrayFailureCost {
        let world = world.max(2) as f64;
        let healthy = healthy_step_ms.max(0.0);
        let horizon = self.horizon_steps as f64;
        // One fewer rank shoulders the same model: each step slows by
        // the lost rank's share.
        let shrunken_step = healthy * world / (world - 1.0);
        let mut evict = price_reconfiguration(
            &self.costs,
            world as usize - 1,
            0.0,
            self.moved_bytes,
            self.checkpoint_bytes,
        );
        evict.label = "evict";
        evict.phases.extend([
            ("replay", replay_steps as f64 * shrunken_step),
            ("resumed", horizon * shrunken_step),
        ]);
        GrayFailureCost {
            limp: horizon * healthy * slowdown.max(1.0),
            evict,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Engine, Testbed};

    const MOVED: f64 = 1e6;
    const CKPT: f64 = 4e6;

    fn gray(costs: OpCosts, horizon_steps: usize) -> GrayFailurePolicy {
        GrayFailurePolicy {
            costs,
            horizon_steps,
            moved_bytes: MOVED,
            checkpoint_bytes: CKPT,
        }
    }

    #[test]
    fn priced_numbers_are_pinned_bit_for_bit() {
        let costs = Testbed::a().costs;
        // The committed BENCH_migrate.json modeled values.
        let m = price_migration(&costs, 4, 65_536.0, 1.0);
        assert_eq!(m.phase("quiesce"), Some(0.51101584));
        assert_eq!(m.phase("transfer"), Some(0.301483456));
        assert_eq!(m.phase("rebind"), Some(1.0));
        assert_eq!(m.total(), 1.812499296);
        let r = price_reconfiguration(&costs, 3, 0.0, MOVED, CKPT);
        assert_eq!(r.total(), 2.3450118800000004);
        let g = gray(costs, 1000).price(4, 10.0, 2.0, 2);
        assert_eq!(g.limp, 20000.0);
        assert_eq!(g.evict.total(), 13362.345011880001);
        assert!(g.eviction_wins());
    }

    /// The two phase-list pricers the property checks below run over. Each
    /// (pricer, property) pair is one test, in the crate-root `reconfig` and
    /// `migrate` test modules.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Pricer {
        Reconfig,
        Migrate,
    }

    pub(crate) fn phases_follow_the_alpha_beta_models(pricer: Pricer) {
        let costs = Testbed::a().costs;
        let (cost, expected) = match pricer {
            Pricer::Reconfig => (
                price_reconfiguration(&costs, 4, 50.0, 1e6, 4e6),
                vec![
                    ("detect", 50.0),
                    ("agree", costs.all_reduce.time(32.0)),
                    ("reshard", costs.all_gather.time(1e6)),
                    ("restore", costs.all_gather.time(4e6)),
                ],
            ),
            Pricer::Migrate => (
                price_migration(&costs, 4, 2e6, 3.0),
                vec![
                    ("quiesce", costs.all_reduce.time(32.0)),
                    ("transfer", costs.a2a.time(2e6)),
                    ("rebind", 3.0),
                ],
            ),
        };
        assert_eq!(cost.phases, expected, "{}", cost.label);
        let sum = expected.iter().fold(0.0, |acc, &(_, ms)| acc + ms);
        assert_eq!(cost.total(), sum, "{}", cost.label);
    }

    pub(crate) fn cost_is_monotone_in_every_input(pricer: Pricer) {
        let costs = Testbed::b().costs;
        let reconfig = |w, d, m, c| price_reconfiguration(&costs, w, d, m, c).total();
        let migrate = |w, b, r| price_migration(&costs, w, b, r).total();
        let (base, bumped) = match pricer {
            Pricer::Reconfig => (
                reconfig(4, 50.0, 1e6, 4e6),
                vec![
                    reconfig(8, 50.0, 1e6, 4e6),
                    reconfig(4, 60.0, 1e6, 4e6),
                    reconfig(4, 50.0, 2e6, 4e6),
                    reconfig(4, 50.0, 1e6, 8e6),
                ],
            ),
            Pricer::Migrate => (
                migrate(4, 2e6, 3.0),
                vec![
                    migrate(8, 2e6, 3.0),
                    migrate(4, 4e6, 3.0),
                    migrate(4, 2e6, 6.0),
                ],
            ),
        };
        for (input, total) in bumped.into_iter().enumerate() {
            assert!(
                total > base,
                "{pricer:?}: raising input {input} must cost more"
            );
        }
    }

    pub(crate) fn degenerate_inputs_clamp_instead_of_poisoning(pricer: Pricer) {
        let costs = Testbed::a().costs;
        // Zero-byte collectives still pay their startup α.
        let (cost, expected) = match pricer {
            Pricer::Reconfig => (
                price_reconfiguration(&costs, 0, -1.0, -5.0, -5.0),
                vec![
                    ("detect", 0.0),
                    ("agree", costs.all_reduce.time(8.0)),
                    ("reshard", costs.all_gather.alpha),
                    ("restore", costs.all_gather.alpha),
                ],
            ),
            Pricer::Migrate => (
                price_migration(&costs, 0, -5.0, -2.0),
                vec![
                    ("quiesce", costs.all_reduce.time(8.0)),
                    ("transfer", costs.a2a.alpha),
                    ("rebind", 0.0),
                ],
            ),
        };
        assert_eq!(cost.phases, expected, "{}", cost.label);
        assert!(cost.total().is_finite(), "{}", cost.label);
    }

    /// The crossover's clamps; run as the crate-root `gray` test module's
    /// `degenerate_inputs_clamp_instead_of_poisoning`.
    pub(crate) fn gray_inputs_clamp_instead_of_poisoning() {
        // Sub-1.0 slowdown clamps to healthy pace; a 2-rank world is the
        // smallest that can lose a member.
        let policy = GrayFailurePolicy {
            costs: Testbed::a().costs,
            horizon_steps: 10,
            moved_bytes: -1.0,
            checkpoint_bytes: -1.0,
        };
        let c = policy.price(0, -5.0, 0.5, 0);
        assert!(c.limp >= 0.0);
        assert!(c.evict.total().is_finite());
        assert!(
            !c.eviction_wins(),
            "nothing to gain from evicting a healthy fleet: {c:?}"
        );
    }

    pub(crate) fn tasks_extend_the_critical_path_by_exactly_the_total(pricer: Pricer) {
        let costs = Testbed::a().costs;
        let (cost, names) = match pricer {
            Pricer::Reconfig => (
                price_reconfiguration(&costs, 4, 25.0, 1e6, 4e6),
                [
                    "reconfig.detect",
                    "reconfig.agree",
                    "reconfig.reshard",
                    "reconfig.restore",
                ]
                .as_slice(),
            ),
            Pricer::Migrate => (
                price_migration(&costs, 4, 1e6, 2.0),
                ["migrate.quiesce", "migrate.transfer", "migrate.rebind"].as_slice(),
            ),
        };
        let mut g = TaskGraph::new();
        let link = g.add_resource("node0.nic");
        let step = g.add_task("train.step", link, 3.0, &[]);
        let last = cost.add_tasks(&mut g, link, &[step]);
        let resume = g.add_task("train.resume", link, 3.0, &[last]);
        let emitted: Vec<&str> = g.tasks()[1..=names.len()]
            .iter()
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(emitted, names);
        let tl = Engine::new().simulate(&g).unwrap();
        assert!((tl.makespan() - (6.0 + cost.total())).abs() < 1e-9);
        assert!((tl.span(resume).start - (3.0 + cost.total())).abs() < 1e-9);
    }

    #[test]
    fn migration_prices_far_below_eviction_for_the_same_payload() {
        let costs = Testbed::a().costs;
        let migrate = price_migration(&costs, 4, 2e6, 3.0);
        // The eviction moves the same orphan payload but also sits out
        // the detection deadline and reloads a full snapshot.
        let evict = price_reconfiguration(&costs, 4, 50.0, 2e6, 8e6);
        assert!(
            migrate.total() < evict.total(),
            "migration {} should undercut eviction {}",
            migrate.total(),
            evict.total()
        );
    }

    #[test]
    fn severe_slowdown_over_a_long_horizon_flips_to_eviction() {
        let c = gray(Testbed::a().costs, 1000).price(4, 10.0, 2.0, 2);
        // Limp: 1000 × 10 × 2.0 = 20 s; evict: reconfig + ~1002 × 13.3 ms.
        assert!(c.eviction_wins(), "2× slowdown for 1000 steps: {c:?}");
    }

    #[test]
    fn mild_slowdown_over_a_short_horizon_keeps_limping() {
        let c = gray(Testbed::a().costs, 5).price(4, 10.0, 1.1, 2);
        // Limp: 5 × 11 = 55 ms; evict pays the reconfiguration alone
        // plus 7 steps at 4/3 weight — never amortized in 5 steps.
        assert!(!c.eviction_wins(), "1.1× for 5 steps: {c:?}");
    }

    #[test]
    fn breakeven_moves_with_the_horizon() {
        // The same slowdown that is not worth evicting over a short
        // horizon becomes worth it over a long one.
        let costs = Testbed::b().costs;
        let short = gray(costs, 10).price(4, 10.0, 1.6, 2);
        let long = gray(costs, 10_000).price(4, 10.0, 1.6, 2);
        assert!(!short.eviction_wins(), "{short:?}");
        assert!(long.eviction_wins(), "{long:?}");
    }

    #[test]
    fn reconfiguration_phases_match_the_protocol_minus_detection() {
        let costs = Testbed::a().costs;
        let c = gray(costs, 100).price(4, 10.0, 1.5, 2);
        let expected = price_reconfiguration(&costs, 3, 0.0, MOVED, CKPT);
        assert_eq!(c.evict.phases[..4], expected.phases[..]);
        assert_eq!(
            c.evict.phase("detect"),
            Some(0.0),
            "health scoring already detected; no deadline sit-out"
        );
    }

    #[test]
    fn eviction_branch_charges_the_shrunken_world_step_tax() {
        let costs = Testbed::a().costs;
        let c = gray(costs, 100).price(4, 12.0, 2.0, 3);
        let shrunken = 12.0 * 4.0 / 3.0;
        let resumed = c.evict.phase("resumed").unwrap();
        let replay = c.evict.phase("replay").unwrap();
        assert!((resumed - 100.0 * shrunken).abs() < 1e-9);
        assert!((replay - 3.0 * shrunken).abs() < 1e-9);
        assert!((c.limp - 100.0 * 24.0).abs() < 1e-9);
        let reconfigure = price_reconfiguration(&costs, 3, 0.0, MOVED, CKPT);
        assert_eq!(c.evict.total(), reconfigure.total() + replay + resumed);
    }

    #[test]
    fn monotone_in_slowdown_and_horizon() {
        let costs = Testbed::b().costs;
        let base = gray(costs, 100).price(4, 10.0, 1.5, 2);
        let slower = gray(costs, 100).price(4, 10.0, 2.5, 2);
        assert!(slower.limp > base.limp);
        assert_eq!(slower.evict.total(), base.evict.total());
        let longer = gray(costs, 200).price(4, 10.0, 1.5, 2);
        assert!(longer.limp > base.limp);
        assert!(longer.evict.total() > base.evict.total());
    }
}
