//! Elastic re-sharding of the distributed layer: expert placement is
//! pure data movement (any placement of the same weights computes
//! bit-identical results), the collective global checkpoint assembles
//! all experts on every rank, and a real eviction redistributes the
//! dead rank's experts across the survivors.

use std::time::Duration;

use collectives::{run_world_within, CommWorld, HybridTopology, ParallelDims};
use fsmoe::checkpoint::LayerCheckpoint;
use fsmoe::config::MoeConfig;
use fsmoe::dist::DistMoeLayer;
use fsmoe::reshard::{ExpertMap, ReshardPlan};
use tensor::{Tensor, TensorRng};

const SEED: u64 = 91;
const BUDGET: Duration = Duration::from_secs(60);

/// Pure expert parallelism over `n` ranks on one node.
fn flat_topology(n: usize) -> HybridTopology {
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
    .unwrap()
}

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

fn input_block(cfg: &MoeConfig, rank: usize) -> Tensor {
    let mut rng = TensorRng::seed_from(4000 + rank as u64);
    rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0)
}

/// One forward+backward on `layer`, returning bit-comparable outputs.
fn run_step(layer: &mut DistMoeLayer, cfg: &MoeConfig, rank: usize) -> (Vec<f32>, Vec<f32>) {
    let x = input_block(cfg, rank);
    let mut route_rng = TensorRng::seed_from(42);
    let y = layer.forward(&x, &mut route_rng).unwrap();
    let grads = layer.backward(&y).unwrap();
    (y.data().to_vec(), grads.input.data().to_vec())
}

#[test]
fn placement_is_invariant() {
    // Same weights, two placements: the block layout and a scrambled
    // custom map. Outputs and input gradients must match bit-for-bit.
    let cfg = config(4);
    let reference = run_world_within(CommWorld::new(2), BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let topo = flat_topology(2);
            let mut layer = DistMoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
            run_step(&mut layer, &cfg, comm.rank())
        }
    });
    let scrambled = run_world_within(CommWorld::new(2), BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let topo = flat_topology(2);
            let mut layer = DistMoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
            let ckpt = layer.checkpoint_global().unwrap();
            let map = ExpertMap::from_lists(vec![vec![3, 1], vec![0, 2]]).unwrap();
            layer
                .reshard(&ReshardPlan::custom(map), &ckpt, &comm, &topo)
                .unwrap();
            assert!(!layer.expert_map().is_block());
            run_step(&mut layer, &cfg, comm.rank())
        }
    });
    assert_eq!(reference, scrambled, "placement changed the numbers");
}

#[test]
fn non_uniform_placement_is_invariant_too() {
    // The padded-slot dispatch path: position 0 hosts one expert,
    // position 1 hosts five (slots = 5, four pad blocks on position 0).
    // Bit-identity must survive the heaviest possible padding skew, and
    // a migration arriving at the same placement must agree with a
    // reshard arriving at it.
    let cfg = config(6);
    let reference = run_world_within(CommWorld::new(2), BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let topo = flat_topology(2);
            let mut layer = DistMoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
            run_step(&mut layer, &cfg, comm.rank())
        }
    });
    let lopsided = run_world_within(CommWorld::new(2), BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let topo = flat_topology(2);
            let mut layer = DistMoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
            let ckpt = layer.checkpoint_global().unwrap();
            let map = ExpertMap::from_lists(vec![vec![4], vec![0, 5, 1, 3, 2]]).unwrap();
            layer
                .reshard(&ReshardPlan::custom(map), &ckpt, &comm, &topo)
                .unwrap();
            assert!(!layer.expert_map().is_uniform());
            assert_eq!(layer.expert_map().slots_per_position(), 5);
            run_step(&mut layer, &cfg, comm.rank())
        }
    });
    assert_eq!(reference, lopsided, "padded placement changed the numbers");
    let migrated = run_world_within(
        CommWorld::new(2).with_deadline(Duration::from_secs(5)),
        BUDGET,
        {
            let cfg = cfg.clone();
            move |comm| {
                let topo = flat_topology(2);
                let mut layer = DistMoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
                // Block {0,1,2} | {3,4,5} -> move expert 1 across.
                layer.migrate(1, 1, &comm).unwrap();
                assert_eq!(layer.expert_map().experts_on(0), &[0, 2]);
                assert_eq!(layer.expert_map().experts_on(1), &[3, 4, 5, 1]);
                run_step(&mut layer, &cfg, comm.rank())
            }
        },
    );
    assert_eq!(reference, migrated, "migration changed the numbers");
}

#[test]
fn checkpoint_global_gathers_all_experts_identically() {
    let cfg = config(4);
    let ckpts: Vec<LayerCheckpoint> = run_world_within(CommWorld::new(2), BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let topo = flat_topology(2);
            let layer = DistMoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
            layer.checkpoint_global().unwrap()
        }
    });
    assert_eq!(ckpts[0], ckpts[1], "global checkpoint must be replicated");
    assert_eq!(ckpts[0].experts.len(), 4);
    // Experts are materialised identically on all ranks at build time,
    // so the gathered weights equal a fresh layer's local view.
    let restored = run_world_within(CommWorld::new(2), BUDGET, {
        let cfg = cfg.clone();
        let ckpt = ckpts[0].clone();
        move |comm| {
            let topo = flat_topology(2);
            let mut layer = DistMoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
            let before = run_step(&mut layer, &cfg, comm.rank());
            layer.restore_full(&ckpt).unwrap();
            let after = run_step(&mut layer, &cfg, comm.rank());
            before == after
        }
    });
    assert_eq!(restored, vec![true, true], "self-restore must be a no-op");
}

#[test]
fn eviction_reshards_across_survivors() {
    // 3 ranks × 2 experts; rank 1 dies. Survivors evict it, rebind, and
    // re-shard: experts {2, 3} are dealt round-robin onto old ranks
    // 0 and 2, and the shrunken layer still trains.
    let cfg = config(6);
    let results = run_world_within(
        CommWorld::new(3).with_deadline(Duration::from_secs(5)),
        BUDGET,
        move |comm| {
            let topo = flat_topology(3);
            let mut layer = DistMoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
            if comm.rank() == 1 {
                // The victim contributes its gather deposit but may see
                // the fence before collecting — either way it is gone.
                let _ = layer.checkpoint_global();
                comm.declare_dead(comm.rank());
                return None;
            }
            let ckpt = layer.checkpoint_global().unwrap();
            comm.propose_evict(1).unwrap();
            let new_comm = comm.reconfigured().unwrap();
            let new_topo = flat_topology(2);
            let plan = ReshardPlan::round_robin(layer.expert_map(), 1).unwrap();
            layer.reshard(&plan, &ckpt, &new_comm, &new_topo).unwrap();
            // Survivors keep their block plus a dealt orphan each.
            let expected: &[usize] = match new_comm.rank() {
                0 => &[0, 1, 2],
                _ => &[4, 5, 3],
            };
            assert_eq!(layer.expert_map().experts_on(new_comm.rank()), expected);
            let (y, gx) = run_step(&mut layer, &cfg, comm.rank());
            assert_eq!(y.len(), cfg.tokens() * cfg.embed_dim);
            assert_eq!(gx.len(), cfg.tokens() * cfg.embed_dim);
            assert!(y.iter().all(|v| v.is_finite()));
            Some(())
        },
    );
    assert_eq!(results, vec![Some(()), None, Some(())]);
}

#[test]
fn reshard_rejects_mismatched_plans() {
    let cfg = config(4);
    run_world_within(CommWorld::new(2), BUDGET, move |comm| {
        let topo = flat_topology(2);
        let mut layer = DistMoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        let ckpt = layer.checkpoint_global().unwrap();
        // Wrong expert count.
        let small = ExpertMap::block(2, 2).unwrap();
        assert!(layer
            .reshard(&ReshardPlan::custom(small), &ckpt, &comm, &topo)
            .is_err());
        // Wrong EP width for the topology.
        let wide = ExpertMap::block(4, 4).unwrap();
        assert!(layer
            .reshard(&ReshardPlan::custom(wide), &ckpt, &comm, &topo)
            .is_err());
        // A valid reshard still works afterwards.
        let same = ExpertMap::block(4, 2).unwrap();
        layer
            .reshard(&ReshardPlan::custom(same), &ckpt, &comm, &topo)
            .unwrap();
    });
}

#[test]
fn restore_full_rejects_foreign_checkpoints() {
    let cfg = config(4);
    run_world_within(CommWorld::new(2), BUDGET, move |comm| {
        let topo = flat_topology(2);
        let mut layer = DistMoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        let mut ckpt = layer.checkpoint_global().unwrap();
        ckpt.gate_name = "sigmoid".to_string();
        assert!(layer.restore_full(&ckpt).is_err());
        let mut ckpt = layer.checkpoint_global().unwrap();
        ckpt.experts.pop();
        assert!(layer.restore_full(&ckpt).is_err());
    });
}

#[test]
fn rejected_reshard_leaves_the_placement_unchanged() {
    // The checkpoint is checked before anything is installed: a reshard
    // that fails on a foreign gate keeps the old map, groups and shards.
    let cfg = config(4);
    run_world_within(CommWorld::new(2), BUDGET, move |comm| {
        let topo = flat_topology(2);
        let mut layer = DistMoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        let before = layer.expert_map().clone();
        let mut ckpt = layer.checkpoint_global().unwrap();
        ckpt.gate_name = "sigmoid".to_string();
        let scrambled = ExpertMap::from_lists(vec![vec![3, 1], vec![0, 2]]).unwrap();
        assert!(layer
            .reshard(&ReshardPlan::custom(scrambled), &ckpt, &comm, &topo)
            .is_err());
        assert_eq!(layer.expert_map(), &before);
    });
}

#[test]
fn rejected_restore_leaves_the_gate_unchanged() {
    // The expert shards are rebuilt before the gate is imported: a
    // checkpoint whose experts do not fit is refused without touching
    // the gate weights.
    let cfg = config(4);
    let untouched = run_world_within(CommWorld::new(2), BUDGET, move |comm| {
        let topo = flat_topology(2);
        let mut layer = DistMoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        let before = layer.checkpoint_global().unwrap();
        let mut bad = before.clone();
        for w in &mut bad.gate {
            *w = w.scale(2.0);
        }
        for expert in &mut bad.experts {
            expert[0] = Tensor::zeros(&[3, 3]);
        }
        let rejected = layer.restore_full(&bad).is_err();
        let after = layer.checkpoint_global().unwrap();
        rejected && after.gate == before.gate
    });
    assert_eq!(untouched, vec![true, true]);
}
