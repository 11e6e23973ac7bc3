//! In-memory span recording around calls into the layers.
//!
//! Every span is recorded from this package's own code: either around a
//! public call the benchmark makes (`DistMoeLayer::forward`, a stage of
//! the replay, `ElasticTrainer::train_step`) or inside a wrapper the
//! layer accepts as an injected module ([`TimedGate`] through
//! `DistMoeLayer::with_gate`, [`TimedDispatcher`] through
//! `DistMoeLayer::set_dispatcher`). Spans stay in memory until the run
//! ends; the run writes them out as a Chrome trace.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fsmoe::dispatch::{DispatchCtx, Dispatcher};
use fsmoe::gate::Gate;
use fsmoe::routing::Routing;
use tensor::{Tensor, TensorRng};

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// One whole real training step (forward, loss, backward, update).
    Step,
    /// `DistMoeLayer::forward`.
    Forward,
    /// The benchmark's MSE loss and its gradient.
    Loss,
    /// `DistMoeLayer::backward`.
    Backward,
    /// `DistMoeLayer::apply_grads`.
    Update,
    /// `ElasticTrainer::train_step`.
    TrainStep,
    /// A gate call (`Gate::route`).
    Gate,
    /// An AlltoAll of the real step, through the injected dispatcher.
    A2a,
    /// An AlltoAll of the stage replay.
    ReplayA2a,
    /// Ordering and inverse ordering in the forward pass.
    OrderFwd,
    /// `combine_backward` and `order_backward`.
    OrderBwd,
    /// ESP AllGather.
    EspAg,
    /// ESP ReduceScatter.
    EspRs,
    /// Dispatch-layout ↔ grouped-layout row copies.
    Layout,
    /// Grouped expert GEMM, forward.
    ExpertFwd,
    /// Grouped expert GEMM, backward.
    ExpertBwd,
}

impl Stage {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Step => "step",
            Stage::Forward => "forward",
            Stage::Loss => "loss",
            Stage::Backward => "backward",
            Stage::Update => "update",
            Stage::TrainStep => "train_step",
            Stage::Gate => "gate",
            Stage::A2a => "a2a",
            Stage::ReplayA2a => "replay.a2a",
            Stage::OrderFwd => "order.fwd",
            Stage::OrderBwd => "order.bwd",
            Stage::EspAg => "esp.ag",
            Stage::EspRs => "esp.rs",
            Stage::Layout => "layout",
            Stage::ExpertFwd => "expert.fwd",
            Stage::ExpertBwd => "expert.bwd",
        }
    }

    /// Collectives rendezvous with peers, so their spans split into
    /// wait and busy time.
    pub fn is_collective(self) -> bool {
        matches!(
            self,
            Stage::A2a | Stage::ReplayA2a | Stage::EspAg | Stage::EspRs
        )
    }
}

/// One recorded span. Times are microseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Training step the span belongs to (set when the step closes).
    pub step: usize,
    /// What was measured.
    pub stage: Stage,
    /// Entry time.
    pub start_us: f64,
    /// Exit time.
    pub end_us: f64,
    /// Bytes handed to a collective (0 elsewhere).
    pub bytes: u64,
    /// Useful share of the work: routed rows for a collective or the
    /// expert GEMM, 0 elsewhere.
    pub useful: u64,
    /// Total rows the useful count is out of.
    pub rows: u64,
    /// Members of the collective's group (1 for non-collectives).
    pub group: usize,
    /// Floating-point operations, for the expert GEMM.
    pub flops: f64,
    /// Step class bits for [`Stage::TrainStep`] ([`SNAPSHOT`],
    /// [`MIGRATION`]).
    pub class: u8,
    /// Minor page faults the calling thread took during a whole step.
    pub faults: u64,
}

/// [`Span::class`] bit: the step took a collective snapshot.
pub const SNAPSHOT: u8 = 1;
/// [`Span::class`] bit: the step ended with an expert migration.
pub const MIGRATION: u8 = 2;

impl Span {
    /// A plain span with no counts attached.
    pub fn new(stage: Stage, start_us: f64, end_us: f64) -> Self {
        Span {
            step: 0,
            stage,
            start_us,
            end_us,
            bytes: 0,
            useful: 0,
            rows: 0,
            group: 1,
            flops: 0.0,
            class: 0,
            faults: 0,
        }
    }

    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// One rank's span log, shared by the benchmark loop and the wrappers
/// it injects into the layer.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    armed: Arc<AtomicBool>,
    open: Arc<Mutex<Vec<Span>>>,
    closed: Vec<Span>,
}

impl SpanLog {
    /// An unarmed log whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            armed: Arc::new(AtomicBool::new(false)),
            open: Arc::new(Mutex::new(Vec::new())),
            closed: Vec::new(),
        }
    }

    /// Microseconds from the epoch to now.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Turns recording on or off. The injected wrappers forward calls
    /// untimed while the log is unarmed.
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::SeqCst);
    }

    /// Whether recording is on.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// Records `span` into the current (open) step.
    pub fn push(&self, span: Span) {
        self.open
            .lock()
            .expect("span log poisoned by a panicking rank")
            .push(span);
    }

    /// Runs `f` and records it as a plain `stage` span.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = self.now_us();
        let out = f();
        self.push(Span::new(stage, start, self.now_us()));
        out
    }

    /// Closes the open step: its spans get `step` and move to the
    /// finished list.
    pub fn close_step(&mut self, step: usize) {
        let mut open = self
            .open
            .lock()
            .expect("span log poisoned by a panicking rank");
        for mut span in open.drain(..) {
            span.step = step;
            self.closed.push(span);
        }
    }

    /// Drops the spans of the open step (a step that is not reported).
    pub fn discard_open(&self) {
        self.open
            .lock()
            .expect("span log poisoned by a panicking rank")
            .clear();
    }

    /// Every closed span, in recording order.
    pub fn into_spans(self) -> Vec<Span> {
        self.closed
    }
}

/// Minor page faults of the calling thread so far (0 where
/// `/proc/thread-self/stat` is unavailable): fresh pages the allocator
/// hands out cost a fault each on first touch.
pub fn thread_minor_faults() -> u64 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; minflt is
            // the 10th field overall, the 8th after it.
            let rest = &stat[stat.rfind(')')? + 2..];
            rest.split(' ').nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Counts rows of a row-major `(rows, width)` buffer that are not all
/// zero: the rows that carry a routed token rather than capacity
/// padding.
pub fn nonzero_rows(data: &[f32], width: usize) -> u64 {
    data.chunks_exact(width.max(1))
        .filter(|row| row.iter().any(|&v| v != 0.0))
        .count() as u64
}

/// A gate wrapper that times every `route` call.
#[derive(Debug)]
pub struct TimedGate<G> {
    inner: G,
    log: SpanLog,
}

impl<G> TimedGate<G> {
    /// Wraps `inner`, recording into `log` while it is armed.
    pub fn new(inner: G, log: SpanLog) -> Self {
        TimedGate { inner, log }
    }
}

impl<G: Gate> Gate for TimedGate<G> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn num_experts(&self) -> usize {
        self.inner.num_experts()
    }

    fn route(
        &self,
        input: &Tensor,
        capacity: usize,
        rng: &mut TensorRng,
    ) -> fsmoe::Result<Routing> {
        if !self.log.armed() {
            return self.inner.route(input, capacity, rng);
        }
        self.log
            .time(Stage::Gate, || self.inner.route(input, capacity, rng))
    }

    fn flops(&self, tokens: usize) -> f64 {
        self.inner.flops(tokens)
    }

    fn export_weights(&self) -> Vec<Tensor> {
        self.inner.export_weights()
    }

    fn import_weights(&mut self, weights: &[Tensor]) -> fsmoe::Result<()> {
        self.inner.import_weights(weights)
    }
}

/// A dispatcher wrapper that times every AlltoAll of the real step and
/// counts its bytes.
#[derive(Debug)]
pub struct TimedDispatcher<D> {
    inner: D,
    log: SpanLog,
}

impl<D> TimedDispatcher<D> {
    /// Wraps `inner`, recording into `log` while it is armed.
    pub fn new(inner: D, log: SpanLog) -> Self {
        TimedDispatcher { inner, log }
    }
}

impl<D: Dispatcher> Dispatcher for TimedDispatcher<D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn all_to_all(&self, data: &[f32], ctx: &DispatchCtx<'_>) -> fsmoe::Result<Vec<f32>> {
        if !self.log.armed() {
            return self.inner.all_to_all(data, ctx);
        }
        let start = self.log.now_us();
        let out = self.inner.all_to_all(data, ctx);
        let mut span = Span::new(Stage::A2a, start, self.log.now_us());
        span.bytes = std::mem::size_of_val(data) as u64;
        span.group = ctx.ep_group.size();
        self.log.push(span);
        out
    }
}
