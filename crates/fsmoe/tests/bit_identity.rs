//! Bit identity of the distributed layer: under pure expert parallelism
//! (`N_ESP = 1`), every rank's `DistMoeLayer` output and input gradient
//! equal the single-process `MoeLayer` reference on that rank's token
//! block *exactly* — `assert_eq!` on the f32 data, not a tolerance. On a
//! one-rank world, where the rank hosts every expert, the expert weight
//! gradients are exact too.
//!
//! The padded dispatch rows the distributed layer computes on are zero,
//! and the grouped GEMM computes every row independently with
//! ascending-`k` accumulation, so padding never perturbs a bit.

use collectives::{run_ranks, HybridTopology, ParallelDims};
use fsmoe::config::{FfnKind, MoeConfig};
use fsmoe::dist::{DistMoeGrads, DistMoeLayer};
use fsmoe::layer::{MoeGrads, MoeLayer};
use tensor::{Tensor, TensorRng};

const SEED: u64 = 2024;

/// `ranks` GPUs on one node, pure expert parallelism.
fn ep_topology(ranks: usize) -> HybridTopology {
    HybridTopology::new(
        1,
        ranks,
        ParallelDims {
            dp: ranks,
            mp: 1,
            ep: ranks,
            esp: 1,
        },
    )
    .unwrap()
}

/// Top-2 over four experts; `capacity_factor` `None` is `f = *`.
fn config(ffn: FfnKind, capacity_factor: Option<f64>) -> MoeConfig {
    let mut b = MoeConfig::builder();
    b.batch_size(2)
        .seq_len(8)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(4)
        .top_k(2)
        .ffn(ffn);
    match capacity_factor {
        Some(f) => b.capacity_factor(f),
        None => b.no_drop(),
    };
    b.build().unwrap()
}

fn input_block(cfg: &MoeConfig, rank: usize) -> Tensor {
    let mut rng = TensorRng::seed_from(6000 + rank as u64);
    rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0)
}

fn grad_block(cfg: &MoeConfig, rank: usize) -> Tensor {
    let mut rng = TensorRng::seed_from(7000 + rank as u64);
    rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0)
}

/// The single-process layer on rank `rank`'s block.
fn reference(cfg: &MoeConfig, rank: usize) -> (Tensor, MoeGrads) {
    let mut layer = MoeLayer::gshard(cfg, &mut TensorRng::seed_from(SEED)).unwrap();
    let y = layer
        .forward(&input_block(cfg, rank), &mut TensorRng::seed_from(0))
        .unwrap();
    let grads = layer.backward(&grad_block(cfg, rank)).unwrap();
    (y, grads)
}

fn distributed(cfg: &MoeConfig, ranks: usize) -> Vec<(Tensor, DistMoeGrads)> {
    let cfg = cfg.clone();
    run_ranks(ranks, move |comm| {
        let topo = ep_topology(ranks);
        let mut layer = DistMoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        let y = layer
            .forward(
                &input_block(&cfg, comm.rank()),
                &mut TensorRng::seed_from(0),
            )
            .unwrap();
        let grads = layer.backward(&grad_block(&cfg, comm.rank())).unwrap();
        (y, grads)
    })
}

/// Asserts every rank of a `ranks`-rank world against the reference.
fn assert_bit_identical(cfg: &MoeConfig, ranks: usize) {
    let case = format!(
        "{:?}, f={:?}, {ranks} rank(s)",
        cfg.ffn, cfg.capacity_factor
    );
    for (rank, (y, grads)) in distributed(cfg, ranks).into_iter().enumerate() {
        let (want_y, want) = reference(cfg, rank);
        assert_eq!(y.data(), want_y.data(), "{case}: rank {rank} output");
        assert_eq!(
            grads.input.data(),
            want.input.data(),
            "{case}: rank {rank} input gradient"
        );
        if ranks > 1 {
            // Each rank's weight gradients sum over its peers' blocks
            // too, in a different order than one reference block.
            continue;
        }
        assert_eq!(grads.shards.len(), want.experts.len(), "{case}");
        for (e, (got, want)) in grads.shards.iter().zip(&want.experts).enumerate() {
            for (w, (g, r)) in got.iter().zip(want).enumerate() {
                assert_eq!(g.data(), r.data(), "{case}: expert {e} weight {w} gradient");
            }
        }
    }
}

#[test]
fn ep_only_distributed_layer_is_bit_identical_to_reference() {
    for ffn in [FfnKind::Gpt, FfnKind::Mixtral] {
        for capacity_factor in [None, Some(0.75)] {
            let cfg = config(ffn, capacity_factor);
            for ranks in [1usize, 2] {
                assert_bit_identical(&cfg, ranks);
            }
        }
    }
}

#[test]
fn capacity_factor_drops_tokens_in_the_pinned_config() {
    // Guards the test above: f = 0.75 must actually drop assignments,
    // or the capacity case would only repeat the no-drop one.
    let cfg = config(FfnKind::Gpt, Some(0.75));
    let mut layer = MoeLayer::gshard(&cfg, &mut TensorRng::seed_from(SEED)).unwrap();
    layer
        .forward(&input_block(&cfg, 0), &mut TensorRng::seed_from(0))
        .unwrap();
    let routing = layer.last_routing().unwrap();
    assert!(routing.assignments().len() < cfg.tokens() * cfg.top_k);
}
