//! Throughput-recovery budget for the gray-failure defense.
//!
//! The robustness claim (DESIGN.md §11): a fleet carrying a
//! browned-out rank does not stay at the slow rank's pace — the health
//! monitor names the rank, the escalation ladder quarantines it, and
//! once the keep-limping-vs-evict pricing flips, the live rank is
//! evicted and training returns to full speed. This bench measures that
//! end to end on a real 4-rank world:
//!
//! 1. **healthy baseline** — 4 ranks, no faults: median step time;
//! 2. **brownout run** — rank 3 limps (~5 ms per collective), health +
//!    pricing armed: the fleet limps, detects, quarantines, evicts, and
//!    the bench takes the median of the first `RECOVERY_STEPS` steps
//!    *after* the eviction lands;
//! 3. **budget** — recovered step rate must be ≥ `RECOVERY_BUDGET`
//!    (90%) of the healthy-fleet step rate;
//! 4. **bit identity** — the survivors' final weights must equal a
//!    fresh 3-rank run resumed from the same snapshot (the eviction is
//!    a correct reconfiguration, not just a fast one).
//!
//! Results go to `BENCH_health.json` (override with the first
//! positional argument). Exits non-zero when recovery misses the
//! budget or bit identity fails.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use collectives::{run_world, Brownout, CommError, CommWorld, FaultInjector};
use fsmoe::checkpoint::LayerCheckpoint;
use fsmoe::config::MoeConfig;
use fsmoe::MoeError;
use jsonio::Json;
use models::{ElasticPolicy, ElasticTrainer, GrayFailurePolicy, HealthMonitor, HealthPolicy};
use tensor::{Tensor, TensorRng};

const SEED: u64 = 7;
const WORLD: usize = 4;
const VICTIM: usize = 3;
const LR: f32 = 0.05;
/// Steps timed for the healthy baseline (after warmup).
const HEALTHY_STEPS: usize = 24;
/// Post-eviction steps whose median must meet the budget — the "within
/// N steps of detection" window.
const RECOVERY_STEPS: usize = 20;
/// Recovered step rate must reach this fraction of the healthy rate.
const RECOVERY_BUDGET: f64 = 0.9;
const BROWNOUT_MS: u64 = 5;

fn config() -> MoeConfig {
    // 12 experts: 3 per rank healthy, 4 per rank after the eviction —
    // divisible both ways so the fresh-world comparison can build.
    MoeConfig::builder()
        .batch_size(1)
        .seq_len(8)
        .embed_dim(16)
        .hidden_dim(32)
        .num_experts(12)
        .top_k(2)
        .no_drop()
        .build()
        .expect("bench config")
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

/// Snapshot only at step 0 so the eviction's rollback always lands on
/// the initial state (the comparable snapshot for the fresh world).
fn policy() -> ElasticPolicy {
    ElasticPolicy {
        snapshot_interval: 100_000,
    }
}

fn health_policy() -> HealthPolicy {
    HealthPolicy {
        window: 2,
        threshold: 1.5,
        sustain: 2,
        cooldown: 1,
    }
}

fn gray_policy() -> GrayFailurePolicy {
    GrayFailurePolicy {
        costs: simnet::Testbed::a().costs,
        horizon_steps: 100_000,
        moved_bytes: 1e6,
        checkpoint_bytes: 4e6,
    }
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Healthy 4-rank fleet: median step time in ms (max across ranks — the
/// fleet moves at its slowest member's pace).
fn healthy_baseline(cfg: &MoeConfig) -> f64 {
    let results = run_world(CommWorld::new(WORLD), {
        let cfg = cfg.clone();
        move |comm| {
            let rank = comm.rank();
            let mut trainer = ElasticTrainer::new(&cfg, comm, SEED, route_rng_for(rank), policy())
                .expect("baseline trainer");
            let (x, t) = rank_data(&cfg, rank);
            for _ in 0..4 {
                trainer.train_step(&x, &t, LR).expect("warmup step");
            }
            let mut steps = Vec::new();
            for _ in 0..HEALTHY_STEPS {
                let start = Instant::now();
                trainer.train_step(&x, &t, LR).expect("baseline step");
                steps.push(start.elapsed().as_secs_f64() * 1e3);
            }
            median_ms(&mut steps)
        }
    });
    results.into_iter().fold(0.0f64, f64::max)
}

/// What a survivor of the brownout run reports.
struct Recovery {
    checkpoint: LayerCheckpoint,
    evict_step: usize,
    limp_ms: f64,
    recovered_ms: f64,
    quarantines: usize,
    migrations: usize,
}

/// The gray-failure run: rank `VICTIM` browned out, defense armed.
/// Survivors run `RECOVERY_STEPS` past the eviction and report limp and
/// recovered medians; the victim self-evicts and reports `None`.
fn brownout_run(cfg: &MoeConfig) -> Vec<Option<Recovery>> {
    let spec = Brownout::steady(Duration::from_millis(BROWNOUT_MS));
    let world = CommWorld::new(WORLD)
        .with_deadline(Duration::from_secs(5))
        .with_faults(FaultInjector::new().brownout(VICTIM, spec, 11));
    run_world(world, {
        let cfg = cfg.clone();
        move |comm| {
            let rank = comm.rank();
            let mut trainer = ElasticTrainer::new(&cfg, comm, SEED, route_rng_for(rank), policy())
                .expect("gray trainer")
                .with_health(HealthMonitor::new(WORLD, health_policy()), gray_policy());
            let (x, t) = rank_data(&cfg, rank);
            let mut limp = Vec::new();
            let mut recovered = Vec::new();
            let mut evict_step = 0usize;
            loop {
                let start = Instant::now();
                match trainer.train_step(&x, &t, LR) {
                    Ok(_) => {}
                    Err(MoeError::Comm(CommError::RankDown { rank: r })) if r == rank => {
                        assert_eq!(rank, VICTIM, "only the slow rank is priced out");
                        return None;
                    }
                    Err(e) => panic!("rank {rank}: {e:?}"),
                }
                let ms = start.elapsed().as_secs_f64() * 1e3;
                if trainer.evictions() == 0 {
                    limp.push(ms);
                } else {
                    if evict_step == 0 {
                        evict_step = trainer.step();
                        // The step that drove the eviction paid the
                        // whole reconfiguration + replay; the recovery
                        // window starts at the next step.
                        continue;
                    }
                    recovered.push(ms);
                    if recovered.len() >= RECOVERY_STEPS {
                        break;
                    }
                }
            }
            Some(Recovery {
                checkpoint: trainer.full_checkpoint().expect("survivor checkpoint"),
                evict_step,
                limp_ms: median_ms(&mut limp),
                recovered_ms: median_ms(&mut recovered),
                quarantines: trainer.quarantines(),
                migrations: trainer.migrations(),
            })
        }
    })
}

/// Fresh 3-rank run from the initial snapshot to `total` steps — the
/// bit-identity reference (victim was the highest rank, so survivor
/// numbering is unchanged).
fn fresh_reference(cfg: &MoeConfig, total: usize) -> LayerCheckpoint {
    let initial = run_world(CommWorld::new(WORLD), {
        let cfg = cfg.clone();
        move |comm| {
            let rank = comm.rank();
            let trainer = ElasticTrainer::new(&cfg, comm, SEED, route_rng_for(rank), policy())
                .expect("snapshot trainer");
            trainer.full_checkpoint().expect("initial checkpoint")
        }
    });
    let results = run_world(CommWorld::new(WORLD - 1), {
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
                policy(),
            )
            .expect("fresh resume");
            let (x, t) = rank_data(&cfg, old_rank);
            while trainer.step() < total {
                trainer.train_step(&x, &t, LR).expect("fresh step");
            }
            trainer.full_checkpoint().expect("fresh checkpoint")
        }
    });
    assert_eq!(results[0], results[1], "fresh world must agree");
    assert_eq!(results[1], results[2], "fresh world must agree");
    results.into_iter().next().expect("three fresh ranks")
}

fn main() {
    let out_path = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_health.json").to_string()
        });

    let cfg = config();
    let healthy_ms = healthy_baseline(&cfg);
    println!("healthy 4-rank fleet: median step {healthy_ms:.3} ms");

    let results = brownout_run(&cfg);
    assert!(
        results[VICTIM].is_none(),
        "the browned-out rank must be evicted"
    );
    let survivors: Vec<Recovery> = results.into_iter().flatten().collect();
    assert_eq!(survivors.len(), WORLD - 1, "every healthy rank must finish");
    let evict_step = survivors[0].evict_step;
    let limp_ms = survivors.iter().map(|s| s.limp_ms).fold(0.0f64, f64::max);
    let recovered_ms = survivors
        .iter()
        .map(|s| s.recovered_ms)
        .fold(0.0f64, f64::max);
    for s in &survivors {
        assert_eq!(s.evict_step, evict_step, "SPMD: one agreed eviction step");
        assert!(s.quarantines >= 1, "quarantine precedes the eviction");
        assert!(s.migrations >= 1, "the quarantine drained a hot expert");
    }

    // Step-rate recovery: healthy/limp/recovered medians compare step
    // rates directly (same per-rank batch; a step is a step).
    let limp_ratio = healthy_ms / limp_ms;
    let recovery_ratio = healthy_ms / recovered_ms;
    println!(
        "limping fleet: median step {limp_ms:.3} ms ({:.1}% of healthy rate)",
        limp_ratio * 100.0
    );
    println!(
        "evicted at step {evict_step}; recovered: median step {recovered_ms:.3} ms \
         over the next {RECOVERY_STEPS} steps ({:.1}% of healthy rate, budget {:.0}%)",
        recovery_ratio * 100.0,
        RECOVERY_BUDGET * 100.0
    );

    // Bit identity: the recovered run equals a fresh 3-rank world from
    // the same snapshot, run to the same step count.
    let total_steps = evict_step + RECOVERY_STEPS;
    let fresh = fresh_reference(&cfg, total_steps);
    let identical = survivors.iter().all(|s| s.checkpoint == fresh);
    println!("bit identity vs fresh 3-rank world at step {total_steps}: {identical}");

    let unix_time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let json = Json::obj(vec![
        ("bench", Json::from("health")),
        ("unix_time", Json::from(unix_time as f64)),
        ("world", Json::from(WORLD as f64)),
        ("brownout_ms", Json::from(BROWNOUT_MS as f64)),
        ("healthy_step_ms", Json::from(healthy_ms)),
        ("limp_step_ms", Json::from(limp_ms)),
        ("recovered_step_ms", Json::from(recovered_ms)),
        ("limp_ratio", Json::from(limp_ratio)),
        ("recovery_ratio", Json::from(recovery_ratio)),
        ("recovery_budget", Json::from(RECOVERY_BUDGET)),
        ("recovery_window_steps", Json::from(RECOVERY_STEPS as f64)),
        ("evict_step", Json::from(evict_step as f64)),
        ("bit_identical", Json::from(f64::from(u8::from(identical)))),
    ]);
    let text = json.to_string().expect("all benchmark numbers are finite");
    std::fs::write(&out_path, text + "\n").expect("write baseline json");
    println!("wrote {out_path}");

    assert!(
        identical,
        "survivors must match the fresh small world bit-for-bit"
    );
    assert!(
        recovery_ratio >= RECOVERY_BUDGET,
        "post-eviction step rate must recover ≥ {:.0}% of the healthy fleet \
         (got {:.1}%: healthy {healthy_ms:.3} ms vs recovered {recovered_ms:.3} ms)",
        RECOVERY_BUDGET * 100.0,
        recovery_ratio * 100.0
    );
}
