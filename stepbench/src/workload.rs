//! The three benchmark workloads and the inputs each rank receives.
//!
//! All workloads are closed loops over a 2-rank world with one compute
//! thread per rank: a rank issues step `i + 1` when step `i` returns.
//! Inputs derive from the workload seed alone; the layer under test only
//! ever sees the generated tensors.

use collectives::{HybridTopology, ParallelDims};
use fsmoe::config::{FfnKind, MoeConfig};
use fsmoe::gate::GShardGate;
use fsmoe::gate::Gate;
use models::{ElasticPolicy, ImbalanceDetector};
use tensor::{Tensor, TensorRng};
use workloadgen::Distribution;

use crate::Result;

/// Which training-step entry point a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `DistMoeLayer` forward/backward/update (`models::dist_train_step`).
    Layer,
    /// `ElasticTrainer::train_step` with snapshots and rebalancing.
    Elastic,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Layer shape; `tokens()` is the per-rank batch.
    pub cfg: MoeConfig,
    /// Ranks in the measured world.
    pub ranks: usize,
    /// Expert-parallel degree.
    pub ep: usize,
    /// Expert-sharding degree.
    pub esp: usize,
    /// Step entry point.
    pub driver: Driver,
    /// SGD learning rate.
    pub lr: f32,
    /// `loss_final` is the mean rank loss after this many steps; every
    /// run trains at least this far, whatever `--seconds` says.
    pub loss_horizon: usize,
}

/// Snapshot cadence of `skew_elastic`.
pub const SNAPSHOT_INTERVAL: usize = 4;
/// Steps per hot-spot rotation of the drifting Zipf batches.
pub const DRIFT_PERIOD: usize = 24;
/// Zipf exponent of `skew_elastic`; milder skew never migrates.
pub const ZIPF_S: f64 = 2.0;
/// Input batches each rank cycles through on the layer workloads.
pub const BATCH_POOL: usize = 4;

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["ep_nodrop", "esp_mixtral", "skew_elastic"];

fn config(
    embed: usize,
    hidden: usize,
    experts: usize,
    capacity: Option<f64>,
    ffn: FfnKind,
) -> Result<MoeConfig> {
    let mut b = MoeConfig::builder();
    b.batch_size(4)
        .seq_len(256)
        .embed_dim(embed)
        .hidden_dim(hidden)
        .num_experts(experts)
        .top_k(2)
        .ffn(ffn);
    match capacity {
        Some(f) => b.capacity_factor(f),
        None => b.no_drop(),
    };
    Ok(b.build()?)
}

impl Workload {
    /// Looks a workload up by name.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown name.
    pub fn by_name(name: &str) -> Result<Workload> {
        let w = match name {
            "ep_nodrop" => Workload {
                name: "ep_nodrop",
                cfg: config(256, 256, 4, None, FfnKind::Gpt)?,
                ranks: 2,
                ep: 2,
                esp: 1,
                driver: Driver::Layer,
                lr: 0.05,
                loss_horizon: 8,
            },
            "esp_mixtral" => Workload {
                name: "esp_mixtral",
                cfg: config(256, 1024, 4, Some(1.2), FfnKind::Mixtral)?,
                ranks: 2,
                ep: 1,
                esp: 2,
                driver: Driver::Layer,
                lr: 0.05,
                loss_horizon: 8,
            },
            "skew_elastic" => Workload {
                name: "skew_elastic",
                cfg: config(128, 256, 8, Some(2.0), FfnKind::Gpt)?,
                ranks: 2,
                ep: 2,
                esp: 1,
                driver: Driver::Elastic,
                lr: 0.05,
                loss_horizon: 40,
            },
            other => return Err(format!("unknown workload {other:?}; known: {NAMES:?}").into()),
        };
        Ok(w)
    }

    /// The same per-rank problem on a single rank: the single-worker
    /// baseline behind `scaling_eff`.
    pub fn single_rank(&self) -> Workload {
        Workload {
            ranks: 1,
            ep: 1,
            esp: 1,
            ..self.clone()
        }
    }

    /// The hybrid topology of the world (MP groups mirror ESP groups).
    ///
    /// # Errors
    ///
    /// Returns an error when the degrees do not tile the world.
    pub fn topology(&self) -> Result<HybridTopology> {
        Ok(HybridTopology::new(
            1,
            self.ranks,
            ParallelDims {
                dp: self.ranks / self.esp,
                mp: self.esp,
                ep: self.ep,
                esp: self.esp,
            },
        )?)
    }

    /// Tokens one step processes across the world.
    pub fn world_tokens(&self) -> usize {
        self.ranks * self.cfg.tokens()
    }

    /// One-line description of the shape for the run record.
    pub fn shape(&self) -> String {
        let c = &self.cfg;
        let f = c
            .capacity_factor
            .map_or_else(|| "*".to_string(), |f| f.to_string());
        format!(
            "{:?} ranks={} ep={} esp={} E={} k={} M={} H={} f={} tokens/rank={} T={} driver={:?}",
            c.ffn,
            self.ranks,
            self.ep,
            self.esp,
            c.num_experts,
            c.top_k,
            c.embed_dim,
            c.hidden_dim,
            f,
            c.tokens(),
            c.capacity(),
            self.driver
        )
    }
}

/// Seed of the layer weights, shared by every rank.
pub fn layer_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED
}

fn rank_seed(seed: u64, rank: usize, salt: u64) -> u64 {
    layer_seed(seed) ^ (rank as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ salt
}

/// The gate `DistMoeLayer::gshard` builds from `layer_seed(seed)`: gate
/// weights are drawn first from the same stream and never trained, so
/// this copy routes exactly like the layer's own gate.
pub fn gate_for(w: &Workload, seed: u64) -> (GShardGate, TensorRng) {
    let mut rng = TensorRng::seed_from(layer_seed(seed));
    let gate = GShardGate::new(w.cfg.embed_dim, w.cfg.num_experts, w.cfg.top_k, &mut rng);
    (gate, rng)
}

/// The routing RNG of one rank (the deterministic gate never draws from
/// it, but the layer API threads it through).
pub fn route_rng(seed: u64, rank: usize) -> TensorRng {
    TensorRng::seed_from(rank_seed(seed, rank, 0x2007))
}

/// The elastic policy and rebalancer of `skew_elastic`.
pub fn elastic_policy() -> (ElasticPolicy, ImbalanceDetector) {
    (
        ElasticPolicy {
            snapshot_interval: SNAPSHOT_INTERVAL,
            ..ElasticPolicy::default()
        },
        ImbalanceDetector::new(3, 1.1, 24),
    )
}

/// Candidate tokens probed per calibration round, per expert.
const PROBES_PER_EXPERT: usize = 16;
/// Calibration rounds before an unreachable expert is an error.
const CALIBRATION_ROUNDS: usize = 64;

/// Drifting Zipf batches from a gate-calibrated token pool: the
/// `workloadgen::WorkloadGen` method with calibration and sampling split.
///
/// Calibration probes the gate with random tokens and pools each under
/// the expert it routes to first; it runs from a seed shared by every
/// rank, so all ranks hold the same pools and the same hot expert (the
/// gate's attractor) and their skews add up fleet-wide instead of
/// cancelling. Sampling then draws from a per-rank stream, so ranks see
/// different tokens.
#[derive(Debug, Clone)]
pub struct SkewGen {
    pools: Vec<Vec<Vec<f32>>>,
    attractor: usize,
    rng: TensorRng,
    embed_dim: usize,
}

impl SkewGen {
    /// Calibrates against `gate` from `shared_seed`; samples from
    /// `rank_seed`.
    ///
    /// # Errors
    ///
    /// Returns an error when some expert attracts no probe, and
    /// propagates routing failures.
    pub fn calibrate(
        gate: &dyn Gate,
        embed_dim: usize,
        shared_seed: u64,
        rank_seed: u64,
    ) -> Result<Self> {
        let experts = gate.num_experts();
        let mut rng = TensorRng::seed_from(shared_seed);
        let mut pools: Vec<Vec<Vec<f32>>> = vec![Vec::new(); experts];
        for _ in 0..CALIBRATION_ROUNDS {
            let probes = experts * PROBES_PER_EXPERT;
            let input = rng.uniform(&[probes, embed_dim], -1.0, 1.0);
            let routing = gate.route(&input, probes, &mut rng)?;
            let mut best: Vec<Option<(f32, usize)>> = vec![None; probes];
            for a in routing.assignments() {
                if best[a.token].is_none_or(|(w, _)| a.weight > w) {
                    best[a.token] = Some((a.weight, a.expert));
                }
            }
            for (token, choice) in best.iter().enumerate() {
                if let Some((_, e)) = choice {
                    pools[*e]
                        .push(input.data()[token * embed_dim..(token + 1) * embed_dim].to_vec());
                }
            }
            if pools.iter().all(|p| !p.is_empty()) {
                break;
            }
        }
        if let Some(e) = pools.iter().position(Vec::is_empty) {
            return Err(format!("gate never routed a calibration probe to expert {e}").into());
        }
        let attractor = (0..experts)
            .max_by_key(|&e| (pools[e].len(), usize::MAX - e))
            .unwrap_or(0);
        Ok(SkewGen {
            pools,
            attractor,
            rng: TensorRng::seed_from(rank_seed),
            embed_dim,
        })
    }

    /// The `(tokens, M)` batch of step `step`: experts drawn from the
    /// drifting Zipf weights, tokens from their pools.
    ///
    /// # Errors
    ///
    /// Propagates tensor construction failures.
    pub fn batch(&mut self, step: usize, tokens: usize) -> Result<Tensor> {
        let dist = Distribution::Drifting {
            s: ZIPF_S,
            period: DRIFT_PERIOD,
        };
        let weights = dist.weights(step, self.pools.len(), self.attractor);
        let total: f64 = weights.iter().sum();
        let mut rows = Vec::with_capacity(tokens * self.embed_dim);
        for _ in 0..tokens {
            let mut u = f64::from(self.rng.uniform_scalar()) * total;
            let expert = weights
                .iter()
                .position(|&w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(weights.len() - 1);
            let pool = &self.pools[expert];
            rows.extend_from_slice(&pool[self.rng.index(pool.len())]);
        }
        Ok(Tensor::from_vec(rows, &[tokens, self.embed_dim])?)
    }
}

/// One rank's input stream.
#[derive(Debug)]
pub enum Inputs {
    /// Gaussian tokens and targets, cycled from a fixed pool.
    Pool(Vec<(Tensor, Tensor)>),
    /// Drifting Zipf batches with a fixed Gaussian target.
    Skew {
        /// The calibrated generator.
        gen: Box<SkewGen>,
        /// Regression target of every step.
        target: Tensor,
    },
}

impl Inputs {
    /// Builds rank `rank`'s inputs for `w` from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates generator calibration failures.
    pub fn new(w: &Workload, seed: u64, rank: usize) -> Result<Inputs> {
        let dims = [w.cfg.tokens(), w.cfg.embed_dim];
        let mut rng = TensorRng::seed_from(rank_seed(seed, rank, 0x1A9));
        Ok(match w.driver {
            Driver::Layer => Inputs::Pool(
                (0..BATCH_POOL)
                    .map(|_| (rng.normal(&dims, 0.0, 1.0), rng.normal(&dims, 0.0, 1.0)))
                    .collect(),
            ),
            Driver::Elastic => {
                let (gate, _) = gate_for(w, seed);
                let gen = SkewGen::calibrate(
                    &gate,
                    w.cfg.embed_dim,
                    layer_seed(seed) ^ 0xCA1,
                    rank_seed(seed, rank, 0x5A3),
                )?;
                Inputs::Skew {
                    gen: Box::new(gen),
                    target: rng.normal(&dims, 0.0, 1.0),
                }
            }
        })
    }

    /// The `(input, target)` pair of step `step`.
    ///
    /// # Errors
    ///
    /// Propagates batch construction failures.
    pub fn batch(&mut self, step: usize, tokens: usize) -> Result<(Tensor, Tensor)> {
        match self {
            Inputs::Pool(pool) => Ok(pool[step % pool.len()].clone()),
            Inputs::Skew { gen, target } => Ok((gen.batch(step, tokens)?, target.clone())),
        }
    }
}
