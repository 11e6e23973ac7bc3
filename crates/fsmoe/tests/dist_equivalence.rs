//! The crate's central correctness claim: distributing the MoE layer
//! across ranks (EP AlltoAll + ESP sharding, Fig. 2 of the paper) never
//! changes the numbers. Every rank's distributed output must equal the
//! single-process reference on that rank's token block, and the
//! distributed weight gradients must equal the reference gradients
//! accumulated over all blocks.

use collectives::{run_ranks, HybridTopology, ParallelDims};
use fsmoe::config::{FfnKind, MoeConfig};
use fsmoe::dist::DistMoeLayer;
use fsmoe::layer::MoeLayer;
use tensor::{Tensor, TensorRng};

const SEED: u64 = 1234;

fn fig2_topology() -> HybridTopology {
    HybridTopology::new(
        2,
        2,
        ParallelDims {
            dp: 2,
            mp: 2,
            ep: 2,
            esp: 2,
        },
    )
    .unwrap()
}

fn config(ffn: FfnKind) -> MoeConfig {
    MoeConfig::builder()
        .batch_size(1)
        .seq_len(6)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(2)
        .top_k(1)
        .no_drop()
        .ffn(ffn)
        .build()
        .unwrap()
}

/// The per-rank input block, deterministic in the rank.
fn input_block(cfg: &MoeConfig, rank: usize) -> Tensor {
    let mut rng = TensorRng::seed_from(9000 + rank as u64);
    rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0)
}

fn reference_outputs(cfg: &MoeConfig, ranks: usize) -> Vec<(Tensor, Tensor)> {
    // (output, grad_input) per rank block, from the single-process layer
    let mut rng = TensorRng::seed_from(SEED);
    let mut layer = MoeLayer::gshard(cfg, &mut rng).unwrap();
    let mut route_rng = TensorRng::seed_from(0);
    (0..ranks)
        .map(|r| {
            let x = input_block(cfg, r);
            let y = layer.forward(&x, &mut route_rng).unwrap();
            let g = layer.backward(&Tensor::ones(y.dims())).unwrap();
            (y, g.input)
        })
        .collect()
}

#[test]
fn distributed_forward_matches_reference() {
    for ffn in [FfnKind::Gpt, FfnKind::Mixtral] {
        let cfg = config(ffn);
        let reference = reference_outputs(&cfg, 4);
        let cfg2 = cfg.clone();
        let results = run_ranks(4, move |comm| {
            let topo = fig2_topology();
            let mut layer = DistMoeLayer::gshard(&cfg2, &comm, &topo, SEED).unwrap();
            let x = input_block(&cfg2, comm.rank());
            let mut rng = TensorRng::seed_from(0);
            layer.forward(&x, &mut rng).unwrap()
        });
        for (rank, out) in results.iter().enumerate() {
            assert!(
                out.allclose(&reference[rank].0, 1e-4),
                "{ffn:?}: rank {rank} diverged, max diff {}",
                out.max_abs_diff(&reference[rank].0).unwrap()
            );
        }
    }
}

#[test]
fn distributed_backward_matches_reference() {
    let cfg = config(FfnKind::Gpt);
    let topo = fig2_topology();
    let reference = reference_outputs(&cfg, 4);
    let cfg2 = cfg.clone();
    let results = run_ranks(4, move |comm| {
        let mut layer = DistMoeLayer::gshard(&cfg2, &comm, &topo, SEED).unwrap();
        let x = input_block(&cfg2, comm.rank());
        let mut rng = TensorRng::seed_from(0);
        let y = layer.forward(&x, &mut rng).unwrap();
        let grads = layer.backward(&Tensor::ones(y.dims())).unwrap();
        (grads.input, grads.shards)
    });
    for (rank, (grad_input, _)) in results.iter().enumerate() {
        assert!(
            grad_input.allclose(&reference[rank].1, 1e-4),
            "rank {rank} input grad diverged"
        );
    }
}

#[test]
fn distributed_weight_grads_match_accumulated_reference() {
    let cfg = config(FfnKind::Gpt);
    let topo = fig2_topology();

    // reference: accumulate expert weight grads over all 4 blocks
    let mut rng = TensorRng::seed_from(SEED);
    let mut ref_layer = MoeLayer::gshard(&cfg, &mut rng).unwrap();
    let mut route_rng = TensorRng::seed_from(0);
    let mut acc: Vec<Vec<Tensor>> = ref_layer
        .experts()
        .iter()
        .map(|e| {
            e.weights()
                .iter()
                .map(|w| Tensor::zeros(w.dims()))
                .collect()
        })
        .collect();
    for r in 0..4 {
        let x = input_block(&cfg, r);
        let y = ref_layer.forward(&x, &mut route_rng).unwrap();
        let g = ref_layer.backward(&Tensor::ones(y.dims())).unwrap();
        for (a, b) in acc.iter_mut().zip(&g.experts) {
            for (aw, bw) in a.iter_mut().zip(b) {
                aw.add_assign(bw).unwrap();
            }
        }
    }

    let cfg2 = cfg.clone();
    let results = run_ranks(4, move |comm| {
        let mut layer = DistMoeLayer::gshard(&cfg2, &comm, &topo, SEED).unwrap();
        let x = input_block(&cfg2, comm.rank());
        let mut rng = TensorRng::seed_from(0);
        let y = layer.forward(&x, &mut rng).unwrap();
        let grads = layer.backward(&Tensor::ones(y.dims())).unwrap();
        (comm.rank(), grads.shards)
    });

    // rank r hosts expert (node index) with shard (local index):
    // node = r/2 → expert r/2; shard = r%2. GptFfn shards: w1 cols,
    // w2 rows of [shard*H/2, (shard+1)*H/2).
    let h = cfg.hidden_dim;
    for (rank, shards) in results {
        let expert = rank / 2;
        let s = rank % 2;
        let (lo, hi) = (s * h / 2, (s + 1) * h / 2);
        let got_w1 = &shards[0][0];
        let got_w2 = &shards[0][1];
        let want_w1 = acc[expert][0].slice_cols(lo, hi).unwrap();
        let want_w2 = acc[expert][1].slice_rows(lo, hi).unwrap();
        assert!(
            got_w1.allclose(&want_w1, 1e-3),
            "rank {rank} w1 grad diverged: {}",
            got_w1.max_abs_diff(&want_w1).unwrap()
        );
        assert!(got_w2.allclose(&want_w2, 1e-3), "rank {rank} w2 grad");
    }
}

#[test]
fn distributed_sgd_training_converges() {
    // end-to-end: run two training steps across ranks, loss must drop
    let cfg = config(FfnKind::Gpt);
    let topo = fig2_topology();
    let results = run_ranks(4, move |comm| {
        let mut layer = DistMoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        let x = input_block(&cfg, comm.rank());
        let mut rng = TensorRng::seed_from(0);
        let y0 = layer.forward(&x, &mut rng).unwrap().sum();
        for _ in 0..3 {
            let y = layer.forward(&x, &mut rng).unwrap();
            let grads = layer.backward(&Tensor::ones(y.dims())).unwrap();
            layer.apply_grads(&grads, 0.02).unwrap();
        }
        let y1 = layer.forward(&x, &mut rng).unwrap().sum();
        (y0, y1)
    });
    for (y0, y1) in results {
        assert!(y1 < y0, "loss should drop: {y1} !< {y0}");
    }
}
