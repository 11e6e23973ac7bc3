//! Online profiling of MoE sub-modules (paper §3.2 and §6.2, Fig. 5).
//!
//! FSMoE's generic scheduler never reads a sub-module's implementation;
//! it *profiles* each task across input sizes and fits the α–β linear
//! model the optimizer consumes. This crate reproduces that pipeline
//! twice over:
//!
//! * [`microbench`] replays the paper's nccl-tests / torch.matmul
//!   micro-benchmarks against the calibrated simulator (deterministic
//!   multiplicative noise stands in for run-to-run jitter), then
//!   [`fit_cost_model`] recovers α, β and the r² values the Fig. 5
//!   captions report;
//! * [`cpu`] measures *real wall-clock time* of this machine's GEMM
//!   (the `tensor` crate's matmul) and fits the same model — the genuine
//!   online-profiling path a user of the library runs on new hardware;
//! * [`comm`] does the same for the in-tree collectives, timing the real
//!   thread-backed data plane over a payload sweep so the communication
//!   α–β coefficients are measured, not assumed.

pub mod comm;
pub mod cpu;
pub mod microbench;

use numopt::LinearFit;
use simnet::CostModel;

/// A fitted performance model plus its goodness of fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedModel {
    /// The recovered α–β model.
    pub model: CostModel,
    /// Coefficient of determination of the fit.
    pub r_squared: f64,
}

/// Fits `t = α + n·β` to `(workload, time)` samples.
///
/// # Errors
///
/// Propagates [`numopt::OptError`] for degenerate sample sets.
pub fn fit_cost_model(samples: &[(f64, f64)]) -> numopt::Result<FittedModel> {
    let xs: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let fit = LinearFit::fit(&xs, &ys)?;
    Ok(FittedModel {
        model: CostModel::new(fit.intercept, fit.slope),
        r_squared: fit.r_squared,
    })
}

/// Serialises this crate's wall-clock tests: a test that fits a model
/// to measured times must not share the cores with another test's
/// sweep, or the sibling's load lands in its samples.
#[cfg(test)]
pub(crate) fn timing_guard() -> parking_lot::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<parking_lot::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| parking_lot::Mutex::new(())).lock()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_exact_model() {
        let m = CostModel::new(0.3, 2.0e-7);
        let samples: Vec<(f64, f64)> = (1..=20)
            .map(|i| {
                let n = i as f64 * 1.0e5;
                (n, m.time(n))
            })
            .collect();
        let f = fit_cost_model(&samples).unwrap();
        assert!((f.model.alpha - 0.3).abs() < 1e-9);
        assert!((f.model.beta - 2.0e-7).abs() < 1e-15);
        assert!(f.r_squared > 1.0 - 1e-12);
    }

    #[test]
    fn fit_rejects_degenerate_samples() {
        assert!(fit_cost_model(&[]).is_err());
        assert!(fit_cost_model(&[(1.0, 1.0)]).is_err());
    }
}
