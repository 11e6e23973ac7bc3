//! Elastic-training properties: the headline bit-identity theorem
//! (survivors of an eviction compute exactly what a fresh smaller world
//! would, whether they roll back from disk or from memory), bit-exact
//! restart from an on-disk snapshot, and the multi-seed chaos soak
//! ci.sh runs under a hang watchdog. Exact obs-counter properties live
//! in `elastic_obs.rs` (their own process, so concurrent tests cannot
//! pollute counts).

use std::path::{Path, PathBuf};
use std::time::Duration;

use collectives::{run_world_within, CommWorld};
use fsmoe::checkpoint::LayerCheckpoint;
use fsmoe::config::MoeConfig;
use models::{ElasticPolicy, ElasticTrainer};
use tensor::{Tensor, TensorRng};

const SEED: u64 = 33;
const LR: f32 = 0.1;
const BUDGET: Duration = Duration::from_secs(120);

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

/// Fixed per-(old-)rank training data: the rank's identity, not its
/// current number, keys the data so a renumbered survivor keeps its own
/// stream.
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

/// A fresh, empty checkpoint directory unique to this process and `tag`.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsmoe-elastic-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a clean `n`-rank reference for `steps` steps; returns each
/// rank's (full checkpoint, route RNG) at the end — i.e. the state a
/// snapshot at `steps` would capture.
fn reference_state(cfg: &MoeConfig, n: usize, steps: usize) -> Vec<(LayerCheckpoint, TensorRng)> {
    run_world_within(world(n), BUDGET, {
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
            .unwrap();
            let (x, t) = rank_data(&cfg, rank);
            while trainer.step() < steps {
                trainer.train_step(&x, &t, LR).unwrap();
            }
            (trainer.full_checkpoint().unwrap(), trainer.route_rng())
        }
    })
}

/// The elastic run: `n` ranks, `victim` dies for good after completing
/// `die_after` steps, survivors evict + re-shard and run to `total`
/// steps. With `checkpoint_dir`, rank 0 persists every snapshot there
/// and recovery prefers the on-disk copy. Every survivor must finish
/// without a checkpoint fallback. Returns per-old-rank (final
/// checkpoint, evictions, epoch) for survivors, None for the victim.
fn elastic_run(
    cfg: &MoeConfig,
    n: usize,
    victim: usize,
    die_after: usize,
    total: usize,
    checkpoint_dir: Option<&Path>,
) -> Vec<Option<(LayerCheckpoint, usize, u64)>> {
    run_world_within(world(n), BUDGET, {
        let cfg = cfg.clone();
        let checkpoint_dir = checkpoint_dir.map(Path::to_path_buf);
        move |comm| {
            let rank = comm.rank();
            let mut trainer = ElasticTrainer::new(
                &cfg,
                comm,
                SEED,
                route_rng_for(rank),
                ElasticPolicy::default(),
            )
            .unwrap();
            if let Some(dir) = &checkpoint_dir {
                trainer = trainer.with_checkpoint_dir(dir.clone());
            }
            let (x, t) = rank_data(&cfg, rank);
            if rank == victim {
                while trainer.step() < die_after {
                    trainer.train_step(&x, &t, LR).unwrap();
                }
                trainer.comm().declare_dead(rank);
                return None;
            }
            while trainer.step() < total {
                trainer.train_step(&x, &t, LR).unwrap();
            }
            assert!(
                trainer.last_fallback().is_none(),
                "rank {rank} fell back from the checkpoint directory: {:?}",
                trainer.last_fallback()
            );
            Some((
                trainer.full_checkpoint().unwrap(),
                trainer.evictions(),
                trainer.comm().membership_epoch(),
            ))
        }
    })
}

/// **Headline property.** A 4-rank run that permanently loses rank 2
/// after step 5 finishes bit-identical to a fresh 3-rank run started
/// from the snapshot the survivors rolled back to — with each new rank
/// resuming the matching old rank's data and RNG stream. The rollback
/// reads the intact on-disk snapshot when a checkpoint directory is set
/// and the in-memory one otherwise; both land on the same bits.
#[test]
fn eviction_is_bit_identical_to_fresh_small_world() {
    // E = 12 so the orphaned 3 experts deal evenly over 3 survivors.
    let cfg = config(12);
    let (victim, die_after, total) = (2usize, 5usize, 8usize);
    // Snapshot cadence 2 ⇒ the survivors roll back to step 4.
    let snap_step = 4usize;

    let reference = reference_state(&cfg, 4, snap_step);
    let elastic = elastic_run(&cfg, 4, victim, die_after, total, None);
    let dir = scratch_dir("headline");
    let from_disk = elastic_run(&cfg, 4, victim, die_after, total, Some(&dir));
    assert!(
        dir.join("elastic-step-4.json").exists(),
        "the rollback target was persisted"
    );
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(from_disk, elastic, "disk rollback diverged from memory");

    // Fresh small world: survivors' old ranks, renumbered contiguously —
    // new rank i carries old rank survivors[i]'s data and RNG stream.
    let survivors: Vec<usize> = (0..4).filter(|&r| r != victim).collect();
    let fresh = run_world_within(world(3), BUDGET, {
        let cfg = cfg.clone();
        let snapshot = reference[0].0.clone();
        let rngs: Vec<TensorRng> = survivors.iter().map(|&r| reference[r].1.clone()).collect();
        let survivors = survivors.clone();
        move |comm| {
            let old_rank = survivors[comm.rank()];
            let mut trainer = ElasticTrainer::resume(
                &cfg,
                comm.clone(),
                SEED,
                &snapshot,
                rngs[comm.rank()].clone(),
                snap_step,
                ElasticPolicy::default(),
            )
            .unwrap();
            let (x, t) = rank_data(&cfg, old_rank);
            while trainer.step() < total {
                trainer.train_step(&x, &t, LR).unwrap();
            }
            trainer.full_checkpoint().unwrap()
        }
    });

    assert!(elastic[victim].is_none());
    for &old in &survivors {
        let (ckpt, evictions, epoch) = elastic[old].clone().expect("survivor finished");
        assert_eq!(evictions, 1);
        assert_eq!(epoch, 1);
        assert_eq!(
            ckpt, fresh[0],
            "survivor (old rank {old}) diverged from the fresh small world"
        );
    }
    // All fresh-world ranks agree with each other too (collective).
    assert_eq!(fresh[0], fresh[1]);
    assert_eq!(fresh[1], fresh[2]);
}

/// The same property at the smallest interesting scale: 3 ranks losing
/// rank 1 matches a fresh 2-rank run, with the victim dying on an even
/// step so the failure surfaces inside the snapshot collective.
#[test]
fn eviction_bit_identity_holds_from_snapshot_failure() {
    // E = 6: divisible by 3 and 2.
    let cfg = config(6);
    let (victim, die_after, total) = (1usize, 2usize, 5usize);
    // Victim dies after step 2; survivors fail in the step-2 snapshot
    // and roll back to the *initial* snapshot (step 0).
    let reference = reference_state(&cfg, 3, 0);
    let elastic = elastic_run(&cfg, 3, victim, die_after, total, None);
    // Step 0 is never persisted, so with a checkpoint directory the
    // rollback must still take the in-memory snapshot, without counting
    // the missing file as a fallback.
    let dir = scratch_dir("step0");
    let from_disk = elastic_run(&cfg, 3, victim, die_after, total, Some(&dir));
    assert!(!dir.join("elastic-step-0.json").exists());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(from_disk, elastic, "directory-backed run diverged");

    let survivors: Vec<usize> = (0..3).filter(|&r| r != victim).collect();
    let fresh = run_world_within(world(2), BUDGET, {
        let cfg = cfg.clone();
        let snapshot = reference[0].0.clone();
        let rngs: Vec<TensorRng> = survivors.iter().map(|&r| reference[r].1.clone()).collect();
        let survivors = survivors.clone();
        move |comm| {
            let old_rank = survivors[comm.rank()];
            let mut trainer = ElasticTrainer::resume(
                &cfg,
                comm.clone(),
                SEED,
                &snapshot,
                rngs[comm.rank()].clone(),
                0,
                ElasticPolicy::default(),
            )
            .unwrap();
            let (x, t) = rank_data(&cfg, old_rank);
            while trainer.step() < total {
                trainer.train_step(&x, &t, LR).unwrap();
            }
            trainer.full_checkpoint().unwrap()
        }
    });

    for &old in &survivors {
        let (ckpt, ..) = elastic[old].clone().expect("survivor finished");
        assert_eq!(ckpt, fresh[0], "old rank {old} diverged");
    }
}

/// Restarting from disk is bit-exact: a 1-rank run snapshotting every 3
/// steps to a checkpoint directory, and a second trainer resumed from
/// the step-6 file with the routing RNG as it stood after step 6, both
/// reach step 9 with identical weights.
#[test]
fn restart_from_disk_snapshot_is_bit_exact() {
    const INTERVAL: usize = 3;
    const STEPS: usize = 9;
    let cfg = config(3);
    let dir = scratch_dir("restart");
    let (x, t) = rank_data(&cfg, 0);
    let policy = ElasticPolicy {
        snapshot_interval: INTERVAL,
    };

    let (uninterrupted, rng_at_6) = run_world_within(world(1), BUDGET, {
        let (cfg, dir, x, t) = (cfg.clone(), dir.clone(), x.clone(), t.clone());
        move |comm| {
            let mut trainer = ElasticTrainer::new(&cfg, comm, SEED, route_rng_for(0), policy)
                .unwrap()
                .with_checkpoint_dir(dir.clone());
            let mut rng_at_6 = None;
            while trainer.step() < STEPS {
                trainer.train_step(&x, &t, LR).unwrap();
                if trainer.step() == 6 {
                    rng_at_6 = Some(trainer.route_rng());
                }
            }
            (trainer.full_checkpoint().unwrap(), rng_at_6.unwrap())
        }
    })
    .remove(0);

    let on_disk = LayerCheckpoint::load(&dir.join("elastic-step-6.json")).unwrap();
    let restarted = run_world_within(world(1), BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let mut trainer =
                ElasticTrainer::resume(&cfg, comm, SEED, &on_disk, rng_at_6.clone(), 6, policy)
                    .unwrap();
            while trainer.step() < STEPS {
                trainer.train_step(&x, &t, LR).unwrap();
            }
            trainer.full_checkpoint().unwrap()
        }
    })
    .remove(0);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(uninterrupted, restarted);
}

/// Chaos soak: many seeds × world sizes, every run must finish (the
/// watchdog turns a hang into a panic, which ci.sh distinguishes from
/// assertion failures by exit code) with one eviction, epoch 1, and all
/// survivors agreeing on the final weights.
///
/// World sizes 6 and 8 join in when `ELASTIC_SOAK_WIDE=1` (the ci.sh
/// chaos-soak stage sets it).
/// Gray-failure half of the chaos soak: persistent brownouts (slow,
/// never dead) across seeds, world sizes, severities, and pricing
/// horizons. The liveness property: every rank either finishes all its
/// steps or exits with the clean self-eviction error — no hang (a hang
/// trips the watchdog panic, which ci.sh's `timeout` wrapper
/// distinguishes from assertion failures via exit 124), no untyped
/// error. When an eviction does land, exactly the victim escalates and
/// every survivor agrees on the final weights.
#[test]
fn gray_failure_chaos_soak() {
    use collectives::{Brownout, CommError, FaultInjector};
    use fsmoe::MoeError;
    use models::{GrayFailurePolicy, HealthMonitor, HealthPolicy};

    for n in [3usize, 4] {
        for seed in 0u64..4 {
            let cfg = config(n * (n - 1));
            let victim = (seed as usize) % n;
            let mean_ms = 2 + 2 * (seed % 3);
            // Alternate pricing horizons: a long one prices eviction
            // in; a 1-step horizon can never amortize the
            // reconfiguration, so pricing defers forever and the whole
            // fleet must limp to completion instead.
            let horizon = if seed % 2 == 0 { 100_000 } else { 1 };
            let spec = Brownout {
                mean_delay: Duration::from_millis(mean_ms),
                jitter_pct: 25,
                stutter_every: 4,
                stutter_delay: Duration::from_millis(mean_ms),
                from_op: 2,
            };
            let comm_world =
                world(n).with_faults(FaultInjector::new().brownout(victim, spec, seed));
            let results = run_world_within(comm_world, BUDGET, {
                let cfg = cfg.clone();
                move |comm| {
                    let rank = comm.rank();
                    let policy = ElasticPolicy {
                        snapshot_interval: 10_000,
                    };
                    let mut trainer =
                        ElasticTrainer::new(&cfg, comm, SEED, route_rng_for(rank), policy)
                            .unwrap()
                            .with_health(
                                HealthMonitor::new(
                                    n,
                                    HealthPolicy {
                                        window: 2,
                                        threshold: 1.5,
                                        sustain: 2,
                                        cooldown: 1,
                                    },
                                ),
                                GrayFailurePolicy {
                                    costs: simnet::Testbed::a().costs,
                                    horizon_steps: horizon,
                                    moved_bytes: 1e6,
                                    checkpoint_bytes: 4e6,
                                },
                            );
                    let (x, t) = rank_data(&cfg, rank);
                    while trainer.step() < 8 {
                        match trainer.train_step(&x, &t, LR) {
                            Ok(_) => {}
                            Err(MoeError::Comm(CommError::RankDown { rank: r })) if r == rank => {
                                return None; // clean escalation exit
                            }
                            Err(e) => panic!("n={n} seed={seed} rank {rank}: {e:?}"),
                        }
                    }
                    Some((trainer.full_checkpoint().unwrap(), trainer.evictions()))
                }
            });
            let finished: Vec<_> = results.iter().flatten().collect();
            let escalated = results.iter().filter(|r| r.is_none()).count();
            if escalated == 0 {
                assert_eq!(finished.len(), n, "n={n} seed={seed}: all must finish");
            } else {
                assert_eq!(escalated, 1, "n={n} seed={seed}: only the victim escalates");
                assert!(
                    results[victim].is_none(),
                    "n={n} seed={seed}: the browned-out rank is the one evicted"
                );
                let (first, _) = finished[0];
                for (ckpt, evictions) in &finished {
                    assert_eq!(*evictions, 1, "n={n} seed={seed}");
                    assert_eq!(ckpt, first, "n={n} seed={seed}: survivors diverged");
                }
            }
        }
    }
}

#[test]
fn elastic_chaos_soak() {
    let mut sizes = vec![2usize, 3, 4];
    if std::env::var("ELASTIC_SOAK_WIDE").as_deref() == Ok("1") {
        sizes.extend([6, 8]);
    }
    for n in sizes {
        for seed in 0u64..8 {
            // E = n(n−1): divisible by both n and n−1, so the round-robin
            // deal stays uniform after any single eviction.
            let cfg = config(n * (n - 1));
            let victim = (seed as usize) % n;
            let die_after = 1 + (seed as usize % 3);
            let total = die_after + 3;
            let results = elastic_run(&cfg, n, victim, die_after, total, None);
            let survivors: Vec<_> = results.iter().flatten().collect();
            assert_eq!(
                survivors.len(),
                n - 1,
                "n={n} seed={seed}: every survivor must finish"
            );
            let (first_ckpt, _, _) = survivors[0];
            for (ckpt, evictions, epoch) in &survivors {
                assert_eq!(*evictions, 1, "n={n} seed={seed}");
                assert_eq!(*epoch, 1, "n={n} seed={seed}");
                assert_eq!(ckpt, first_ckpt, "n={n} seed={seed}: survivors diverged");
            }
        }
    }
}
