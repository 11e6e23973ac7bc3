//! End-to-end MoE model assembly and iteration scheduling.
//!
//! This crate composes everything below it into the paper's evaluation
//! setting: transformer layers (attention + MoE) stacked into real-model
//! shapes (GPT2-XL-MoE, Mixtral-7B, Mixtral-22B), iterated forward and
//! backward under each of the six schedules, with the per-schedule
//! Gradient-AllReduce policy applied across layers — everything the
//! Figs. 6–8 and Tables 2/5/6 experiments need.
//!
//! Layer composition follows the paper's generalized-layer definition
//! (§5.2): one MoE layer plus the dense operations (attention) before
//! the next MoE layer.

pub mod attention;
pub mod block;
pub mod breakdown;
pub mod elastic;
pub mod health;
pub mod imbalance;
pub mod iteration;
pub mod layerspec;
pub mod pipeline;
pub mod presets;
pub mod train;

pub use elastic::{flat_topology, ElasticPolicy, ElasticTrainer};
pub use health::{drain_decision, GrayFailurePolicy, HealthAction, HealthMonitor, HealthPolicy};
pub use imbalance::{ImbalanceDetector, MigrationDecision};
pub use iteration::{build_iteration_graph, iteration_time, plan_iteration, IterationPlan};
pub use layerspec::{attention_backward_time, attention_forward_time, TransformerLayerSpec};
pub use presets::ModelPreset;
pub use train::dist_train_step;
