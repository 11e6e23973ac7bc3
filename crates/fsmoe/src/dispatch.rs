//! AlltoAll dispatch algorithms (the paper's *Dispatch*/*Combine*
//! sub-modules, §3.1).
//!
//! The paper pre-implements its AlltoAll algorithms behind one interface
//! so users can swap them "without impacting our scheduler". The
//! [`Dispatcher`] trait is that interface, and [`NcclA2A`] — the default
//! single-phase NCCL AlltoAll — is the algorithm the live layer runs.
//!
//! Hetu's 1-D hierarchical (1DH) and the Tutel/DeepSpeed 2-D
//! hierarchical (2DH) algorithms deliver the same permutation over
//! different links. They are priced in `scheduler::dispatch_cost` and on
//! the `simnet` timelines, but not run in-process: the rank threads of
//! one process share one memory, so there is no intra-/inter-node link
//! asymmetry for a hierarchical exchange to exploit.

use collectives::GroupComm;

use crate::Result;

/// Process-group context a dispatcher runs over.
#[derive(Debug)]
pub struct DispatchCtx<'a> {
    /// The full EP group.
    pub ep_group: &'a GroupComm,
}

impl<'a> DispatchCtx<'a> {
    /// A context over the flat EP group.
    pub fn flat(ep_group: &'a GroupComm) -> Self {
        DispatchCtx { ep_group }
    }

    /// Advances the EP group past one abandoned logical exchange (see
    /// [`GroupComm::skip_op`]).
    ///
    /// The degradation path calls this after giving up on an AlltoAll so
    /// this rank's *later* collectives on the same group cannot
    /// rendezvous with a straggler's stale deposit for the abandoned one.
    pub fn skip_op(&self) {
        self.ep_group.skip_op();
    }
}

/// An AlltoAll algorithm.
pub trait Dispatcher: std::fmt::Debug + Send {
    /// Short identifier used in logs and the scheduler's cost tables.
    fn name(&self) -> &'static str;

    /// Performs the AlltoAll permutation of `data` (which must divide
    /// evenly into `ep_group.size()` chunks).
    ///
    /// # Errors
    ///
    /// Returns an error on bad buffer lengths or a failed exchange.
    fn all_to_all(&self, data: &[f32], ctx: &DispatchCtx<'_>) -> Result<Vec<f32>>;
}

/// The default NCCL AlltoAll: one flat exchange over the EP group.
#[derive(Debug, Clone, Copy, Default)]
pub struct NcclA2A;

impl Dispatcher for NcclA2A {
    fn name(&self) -> &'static str {
        "nccl_a2a"
    }

    fn all_to_all(&self, data: &[f32], ctx: &DispatchCtx<'_>) -> Result<Vec<f32>> {
        Ok(ctx.ep_group.all_to_all(data)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(NcclA2A.name(), "nccl_a2a");
    }
}
