//! Replay self-test: on tiny shapes the stage replay must reproduce
//! `DistMoeLayer` exactly — outputs, input gradients and updated shards —
//! for EP=2/ESP=1 and EP=1/ESP=2 worlds with both FFN kinds. A change to
//! `fsmoe::dist` that the replay no longer mirrors fails here instead of
//! silently timing a different program.
//!
//! Run with `cargo test --release --manifest-path stepbench/Cargo.toml`.

use std::time::Instant;

use collectives::{run_world, CommWorld};
use fsmoe::config::{FfnKind, MoeConfig};
use fsmoe::dist::DistMoeLayer;
use stepbench::replay::{check_same, real_step, timed_layer, Replay};
use stepbench::trace::{SpanLog, Stage};
use stepbench::workload::{layer_seed, route_rng, Driver, Inputs, Workload};

const STEPS: usize = 3;

fn tiny(ep: usize, esp: usize, ffn: FfnKind, capacity: Option<f64>) -> Workload {
    let mut b = MoeConfig::builder();
    b.batch_size(2)
        .seq_len(8)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(4)
        .top_k(2)
        .ffn(ffn);
    match capacity {
        Some(f) => b.capacity_factor(f),
        None => b.no_drop(),
    };
    Workload {
        name: "tiny",
        cfg: b.build().unwrap(),
        ranks: 2,
        ep,
        esp,
        driver: Driver::Layer,
        lr: 0.1,
        loss_horizon: STEPS,
    }
}

/// Runs `STEPS` real steps with their replays on a 2-rank world and
/// returns each rank's check results plus whether the traced spans
/// covered every replayed stage. `replay_lr_scale` perturbs the
/// replica's update to prove the check can fail.
fn replay_world(w: Workload, replay_lr_scale: f32) -> Vec<(Vec<Result<(), String>>, bool)> {
    let seed = 5;
    run_world(CommWorld::new(w.ranks), move |comm| {
        let log = SpanLog::new(Instant::now());
        log.set_armed(true);
        let mut layer = timed_layer(&w, seed, &comm, &log).unwrap();
        let mut replica =
            DistMoeLayer::gshard(&w.cfg, &comm, &w.topology().unwrap(), layer_seed(seed)).unwrap();
        let mut replay = Replay::new(&w, seed, &comm).unwrap();
        let mut inputs = Inputs::new(&w, seed, comm.rank()).unwrap();
        let mut rng = route_rng(seed, comm.rank());
        let mut checks = Vec::new();
        let mut log = log;
        for step in 0..STEPS {
            let (x, t) = inputs.batch(step, w.cfg.tokens()).unwrap();
            let mut replay_rng = rng.clone();
            let real = real_step(&mut layer, &x, &t, w.lr, &mut rng, &log).unwrap();
            let lr = w.lr * replay_lr_scale;
            let replayed = replay
                .step(&mut replica, &x, &t, lr, &mut replay_rng, &log)
                .unwrap();
            checks.push(check_same(&real, &replayed, &layer, &replica).map_err(|e| e.to_string()));
            log.close_step(step);
        }
        let spans = log.into_spans();
        let covered = [
            Stage::Gate,
            Stage::A2a,
            Stage::ReplayA2a,
            Stage::OrderFwd,
            Stage::OrderBwd,
            Stage::EspAg,
            Stage::EspRs,
            Stage::Layout,
            Stage::ExpertFwd,
            Stage::ExpertBwd,
            Stage::Update,
        ]
        .iter()
        .all(|stage| spans.iter().any(|s| s.stage == *stage));
        (checks, covered)
    })
}

fn assert_replay_exact(w: Workload) {
    for (rank, (checks, covered)) in replay_world(w, 1.0).into_iter().enumerate() {
        for (step, check) in checks.iter().enumerate() {
            assert_eq!(check, &Ok(()), "rank {rank} step {step}");
        }
        assert!(covered, "rank {rank}: a stage went untimed");
    }
}

#[test]
fn ep2_esp1_gpt_replay_is_bit_identical() {
    assert_replay_exact(tiny(2, 1, FfnKind::Gpt, None));
}

#[test]
fn ep2_esp1_mixtral_replay_is_bit_identical() {
    assert_replay_exact(tiny(2, 1, FfnKind::Mixtral, Some(1.2)));
}

#[test]
fn ep1_esp2_gpt_replay_is_bit_identical() {
    assert_replay_exact(tiny(1, 2, FfnKind::Gpt, Some(1.2)));
}

#[test]
fn ep1_esp2_mixtral_replay_is_bit_identical() {
    assert_replay_exact(tiny(1, 2, FfnKind::Mixtral, None));
}

/// The check is not vacuous: a replica updated with another learning
/// rate diverges at the first step's weights and every later output.
#[test]
fn a_diverging_replay_is_reported() {
    for (checks, _) in replay_world(tiny(2, 1, FfnKind::Gpt, None), 2.0) {
        let first = checks[0].as_ref().unwrap_err();
        assert!(first.contains("updated weights"), "{first}");
        assert!(checks[1].is_err());
    }
}

/// The traced step decomposes `models::dist_train_step` without
/// changing its arithmetic: same losses, same updated weights.
#[test]
fn traced_step_matches_dist_train_step() {
    let w = tiny(2, 1, FfnKind::Gpt, None);
    let seed = 9;
    let out = run_world(CommWorld::new(w.ranks), move |comm| {
        let log = SpanLog::new(Instant::now());
        let topo = w.topology().unwrap();
        let mut traced = timed_layer(&w, seed, &comm, &log).unwrap();
        let mut plain = DistMoeLayer::gshard(&w.cfg, &comm, &topo, layer_seed(seed)).unwrap();
        let mut inputs = Inputs::new(&w, seed, comm.rank()).unwrap();
        let (mut r1, mut r2) = (route_rng(seed, comm.rank()), route_rng(seed, comm.rank()));
        let mut same = true;
        for step in 0..STEPS {
            let (x, t) = inputs.batch(step, w.cfg.tokens()).unwrap();
            let a = real_step(&mut traced, &x, &t, w.lr, &mut r1, &log)
                .unwrap()
                .loss;
            let b = models::dist_train_step(&mut plain, &x, &t, w.lr, &mut r2).unwrap();
            same &= a.to_bits() == b.to_bits();
        }
        let weights = |l: &DistMoeLayer| -> Vec<u32> {
            l.shards()
                .iter()
                .flat_map(|s| s.weights().into_iter().flat_map(|w| w.data().to_vec()))
                .map(f32::to_bits)
                .collect()
        };
        same && weights(&traced) == weights(&plain)
    });
    assert!(out.iter().all(|&same| same));
}
