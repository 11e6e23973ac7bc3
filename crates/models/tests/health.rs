//! Gray-failure defense, end to end at the trainer level: a
//! browned-out (live but slow) rank walks the escalation ladder —
//! log → quarantine (hot expert drains off it) → priced live eviction —
//! and the survivors finish **bit-identical** to a fresh small world
//! started from the snapshot they rolled back to.

use std::time::Duration;

use collectives::{run_world_within, Brownout, CommError, CommWorld, FaultInjector};
use fsmoe::checkpoint::LayerCheckpoint;
use fsmoe::config::MoeConfig;
use fsmoe::MoeError;
use models::{ElasticPolicy, ElasticTrainer, GrayFailurePolicy, HealthMonitor, HealthPolicy};
use tensor::{Tensor, TensorRng};

const SEED: u64 = 33;
const LR: f32 = 0.1;
const BUDGET: Duration = Duration::from_secs(120);
/// Steps each run targets — comfortably past the deterministic ladder
/// timeline (log ≈ step 2, quarantine ≈ step 5, eviction ≈ step 8 with
/// the aggressive test policy below).
const TOTAL: usize = 12;

fn config(num_experts: usize) -> MoeConfig {
    MoeConfig::builder()
        .batch_size(1)
        .seq_len(6)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(num_experts)
        .top_k(2)
        .no_drop()
        .build()
        .unwrap()
}

fn rank_data(cfg: &MoeConfig, old_rank: usize) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seed_from(1000 + old_rank as u64);
    let x = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    let t = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    (x, t)
}

fn route_rng_for(old_rank: usize) -> TensorRng {
    TensorRng::seed_from(7000 + old_rank as u64)
}

fn world(n: usize) -> CommWorld {
    CommWorld::new(n).with_deadline(Duration::from_secs(5))
}

/// Aggressive ladder so tests escalate within a dozen steps.
fn health_policy() -> HealthPolicy {
    HealthPolicy {
        window: 2,
        threshold: 1.5,
        sustain: 2,
        cooldown: 1,
    }
}

/// A pricing policy whose long horizon makes eviction win against any
/// real brownout (the slow rank's score is enormous here).
fn gray_policy() -> GrayFailurePolicy {
    GrayFailurePolicy {
        costs: simnet::Testbed::a().costs,
        horizon_steps: 100_000,
        moved_bytes: 1e6,
        checkpoint_bytes: 4e6,
    }
}

/// Snapshot only at step 0, so a rollback always lands on the initial
/// state — the one step number the timing-dependent eviction step
/// cannot perturb, which is what lets the bit-identity half of the test
/// pin its reference.
fn policy_snapshot_once() -> ElasticPolicy {
    ElasticPolicy {
        snapshot_interval: 10_000,
    }
}

/// What a survivor reports at the end of the browned-out run.
#[derive(Debug, Clone)]
struct SurvivorReport {
    checkpoint: LayerCheckpoint,
    evictions: usize,
    quarantines: usize,
    migrations: usize,
    epoch: u64,
}

/// Runs the full gray-failure scenario: `n` ranks, `victim` browned out
/// (never killed), health + pricing armed on every rank. Returns `None`
/// for the self-evicted victim, a report for each survivor.
fn gray_run(cfg: &MoeConfig, n: usize, victim: usize) -> Vec<Option<SurvivorReport>> {
    let spec = Brownout::steady(Duration::from_millis(5));
    let comm_world = world(n).with_faults(FaultInjector::new().brownout(victim, spec, 11));
    run_world_within(comm_world, BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let rank = comm.rank();
            let mut trainer = ElasticTrainer::new(
                &cfg,
                comm,
                SEED,
                route_rng_for(rank),
                policy_snapshot_once(),
            )
            .unwrap()
            .with_health(HealthMonitor::new(n, health_policy()), gray_policy());
            let (x, t) = rank_data(&cfg, rank);
            while trainer.step() < TOTAL {
                match trainer.train_step(&x, &t, LR) {
                    Ok(_) => {}
                    // The canonical self-eviction exit: the fleet
                    // priced this rank out and is evicting it.
                    Err(MoeError::Comm(CommError::RankDown { rank: r })) if r == rank => {
                        assert_eq!(rank, victim, "only the slow rank may be priced out");
                        return None;
                    }
                    Err(e) => panic!("rank {rank}: unexpected {e:?}"),
                }
            }
            Some(SurvivorReport {
                checkpoint: trainer.full_checkpoint().unwrap(),
                evictions: trainer.evictions(),
                quarantines: trainer.quarantines(),
                migrations: trainer.migrations(),
                epoch: trainer.comm().membership_epoch(),
            })
        }
    })
}

/// **Headline property.** A 4-rank run whose rank 3 limps at ~5 ms per
/// collective walks the whole ladder (quarantine with a drain
/// migration, then a priced live eviction) and the three survivors
/// finish bit-identical to a fresh 3-rank run resumed from the same
/// initial snapshot.
#[test]
fn browned_out_rank_is_quarantined_then_evicted_bit_identically() {
    let cfg = config(12);
    let victim = 3usize;
    let results = gray_run(&cfg, 4, victim);

    assert!(
        results[victim].is_none(),
        "the slow rank must self-evict, got {:?}",
        results[victim]
    );
    let survivors: Vec<&SurvivorReport> = results.iter().flatten().collect();
    assert_eq!(survivors.len(), 3, "every healthy rank must finish");
    for s in &survivors {
        assert_eq!(s.evictions, 1, "exactly one live eviction: {s:?}");
        assert_eq!(s.epoch, 1, "one membership epoch bump: {s:?}");
        assert!(s.quarantines >= 1, "quarantine precedes eviction: {s:?}");
        assert!(
            s.migrations >= 1,
            "the quarantine must drain a hot expert: {s:?}"
        );
        assert_eq!(
            s.checkpoint, survivors[0].checkpoint,
            "survivors disagree on final weights"
        );
    }

    // Fresh small world from the same initial snapshot: the rollback
    // landed on step 0 (snapshot_interval > TOTAL), so new rank i
    // resumes old rank i's data and RNG stream (victim was the highest
    // rank, so survivor numbering is unchanged).
    let initial = run_world_within(world(4), BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let rank = comm.rank();
            let trainer = ElasticTrainer::new(
                &cfg,
                comm,
                SEED,
                route_rng_for(rank),
                policy_snapshot_once(),
            )
            .unwrap();
            trainer.full_checkpoint().unwrap()
        }
    });
    let fresh = run_world_within(world(3), BUDGET, {
        let cfg = cfg.clone();
        let snapshot = initial[0].clone();
        move |comm| {
            let old_rank = comm.rank();
            let mut trainer = ElasticTrainer::resume(
                &cfg,
                comm.clone(),
                SEED,
                &snapshot,
                route_rng_for(old_rank),
                0,
                policy_snapshot_once(),
            )
            .unwrap();
            let (x, t) = rank_data(&cfg, old_rank);
            while trainer.step() < TOTAL {
                trainer.train_step(&x, &t, LR).unwrap();
            }
            trainer.full_checkpoint().unwrap()
        }
    });
    assert_eq!(fresh[0], fresh[1]);
    assert_eq!(fresh[1], fresh[2]);
    assert_eq!(
        survivors[0].checkpoint, fresh[0],
        "gray-failure eviction must be bit-identical to the fresh small world"
    );
}

/// A healthy fleet with the defense armed never escalates: no
/// quarantines, no evictions, scores hugging 1.0 on every rank.
#[test]
fn healthy_fleet_with_defense_armed_never_escalates() {
    let cfg = config(6);
    let results = run_world_within(world(3), BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let rank = comm.rank();
            let mut trainer = ElasticTrainer::new(
                &cfg,
                comm,
                SEED,
                route_rng_for(rank),
                ElasticPolicy::default(),
            )
            .unwrap()
            // Default policy: threshold 1.75 with sustain 3 — scheduler
            // jitter on equal ranks must stay under it.
            .with_health(
                HealthMonitor::new(3, HealthPolicy::default()),
                gray_policy(),
            );
            let (x, t) = rank_data(&cfg, rank);
            for _ in 0..6 {
                trainer.train_step(&x, &t, LR).unwrap();
            }
            (
                trainer.quarantines(),
                trainer.evictions(),
                trainer.health().map(|m| m.quarantined().len()),
            )
        }
    });
    for (rank, &(quarantines, evictions, quarantined)) in results.iter().enumerate() {
        assert_eq!(quarantines, 0, "rank {rank} quarantined a healthy peer");
        assert_eq!(evictions, 0, "rank {rank} evicted a healthy peer");
        assert_eq!(quarantined, Some(0));
    }
}
