//! Group communicators and the collective state machine.
//!
//! The rendezvous here is *fault-aware*: every wait is bounded by the
//! group's deadline (when armed), dead ranks (killed by fault injection
//! or declared dead) fail the collective with [`CommError::RankDown`]
//! instead of hanging every peer, and a rank that panics mid-collective
//! poisons the group so peers get [`CommError::Poisoned`] immediately.
//!
//! It is also *sequence-aware*: each rank carries a monotonic per-group
//! op id (advanced on completion, or explicitly by
//! [`GroupComm::skip_op`] when a caller abandons an exchange), and every
//! rendezvous round is stamped with the id it belongs to. Deposits from
//! different logical collectives therefore can never mix — a straggler
//! arriving behind the stream gets [`CommError::Abandoned`] instead of
//! cross-wiring its stale payload into a peer's *next* collective.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::fault::FaultAction;
use crate::world::WorldCtrl;
use crate::{CommError, Result};

/// How often waiting ranks re-check world fault state (dead ranks,
/// poisoning, membership fences) even without a notification. Bounds the
/// detection latency for ranks blocked on *other* groups than the one a
/// fault hit.
// lint: allow(deadline-literals) — poll cadence for fault re-checks, not an op budget
pub(crate) const FAULT_POLL: Duration = Duration::from_millis(25);

/// Which collective the group is currently executing, used to detect SPMD
/// violations (two ranks calling different collectives on one group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpTag {
    AllReduce,
    AllGather,
    ReduceScatter,
    AllToAll,
    Broadcast,
    Barrier,
}

impl OpTag {
    fn name(self) -> &'static str {
        match self {
            OpTag::AllReduce => obs::names::SPAN_ALL_REDUCE,
            OpTag::AllGather => obs::names::SPAN_ALL_GATHER,
            OpTag::ReduceScatter => obs::names::SPAN_REDUCE_SCATTER,
            OpTag::AllToAll => obs::names::SPAN_ALL_TO_ALL,
            OpTag::Broadcast => obs::names::SPAN_BROADCAST,
            OpTag::Barrier => obs::names::SPAN_BARRIER,
        }
    }
}

#[derive(Debug)]
enum Phase {
    /// Ranks are depositing inputs; `usize` counts arrivals.
    Collecting(usize),
    /// Outputs are ready; members drain them (slot goes to `None`).
    Distributing,
}

#[derive(Debug)]
struct OpState {
    phase: Phase,
    tag: Option<OpTag>,
    /// Op id of the current (or most recently opened) round. Monotone:
    /// a round is only ever claimed by a rank whose op id is ≥ it.
    round_id: u64,
    inputs: Vec<Option<Vec<f32>>>,
    outputs: Vec<Option<Vec<f32>>>,
    /// Set when a member panicked mid-collective (or violated SPMD);
    /// permanent — the rendezvous state is indeterminate afterwards.
    poisoned: Option<usize>,
}

/// Process-global group-instance counter: every [`GroupInner`] gets a
/// unique id, shared by all ranks bound to it (the inner is one `Arc`).
/// Distinct groups over the *same* rank set (e.g. a dp group and the
/// world group on a 1-node layout) have independent op streams, so the
/// id is part of every op key — (ranks, epoch, op_id) alone would
/// collide across them.
static NEXT_GID: AtomicU64 = AtomicU64::new(1);

/// Shared state for one communication group.
#[derive(Debug)]
pub(crate) struct GroupInner {
    /// This group instance's process-unique id (see [`NEXT_GID`]).
    gid: u64,
    ranks: Vec<usize>,
    state: Mutex<OpState>,
    cond: Condvar,
    ctrl: Arc<WorldCtrl>,
    /// Per-member op-stream position (indexed by group index): how many
    /// logical collectives the member has completed or skipped. Lives in
    /// the shared inner so every handle a rank binds to the group sees
    /// one consistent stream.
    streams: Vec<AtomicU64>,
    /// Per-member marker of the last op-stream position *attempted*
    /// (stored as position + 1, so 0 means "never"). Re-attempting a
    /// position is what the `collectives.retries` counter measures.
    attempts: Vec<AtomicU64>,
}

impl GroupInner {
    pub(crate) fn new(ranks: Vec<usize>, ctrl: &Arc<WorldCtrl>) -> Self {
        let n = ranks.len();
        GroupInner {
            gid: NEXT_GID.fetch_add(1, Ordering::Relaxed),
            ranks,
            state: Mutex::new(OpState {
                phase: Phase::Collecting(0),
                tag: None,
                round_id: 0,
                inputs: vec![None; n],
                outputs: vec![None; n],
                poisoned: None,
            }),
            cond: Condvar::new(),
            ctrl: Arc::clone(ctrl),
            streams: (0..n).map(|_| AtomicU64::new(0)).collect(),
            attempts: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Wakes every waiter blocked on this group's condvar, so world-wide
    /// events (deaths, membership fences) are observed promptly.
    pub(crate) fn wake_all(&self) {
        self.cond.notify_all();
    }
}

/// Bumps the per-error-kind obs counter for a failed collective, and —
/// on the one unrecoverable kind, `Poisoned` (a peer panicked
/// mid-collective) — captures a flight-recorder post-mortem (no-op
/// unless `$FLIGHT_DUMP` is set). Shared by every error exit out of
/// [`GroupComm::run`], so early fault-gate failures count like
/// rendezvous failures.
fn record_error_counters(err: &CommError) {
    let counter = match err {
        CommError::Timeout { .. } => Some(obs::names::COLLECTIVES_TIMEOUTS),
        CommError::Abandoned { .. } => Some(obs::names::COLLECTIVES_ABANDONED),
        CommError::Poisoned { .. } => Some(obs::names::COLLECTIVES_POISONED),
        CommError::RankDown { .. } => Some(obs::names::COLLECTIVES_RANK_DOWN),
        _ => None,
    };
    if let Some(name) = counter {
        obs::counter_add(name, 1);
    }
    if matches!(err, CommError::Poisoned { .. }) {
        obs::flight::try_dump("poisoned");
    }
}

/// Poisons the group when the holder's thread unwinds mid-collective, so
/// peers error out instead of waiting forever. Declared before the state
/// guard, so during a panic the mutex is released first.
struct PoisonOnPanic<'a> {
    inner: &'a GroupInner,
    rank: usize,
}

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = self.inner.state.lock();
            if st.poisoned.is_none() {
                st.poisoned = Some(self.rank);
            }
            drop(st);
            self.inner.cond.notify_all();
        }
    }
}

/// A communicator bound to one rank's membership in one group.
///
/// All collectives block until every member of the group has joined the
/// call, exactly like their NCCL counterparts — except that an armed
/// deadline ([`GroupComm::set_deadline`], inherited from
/// [`crate::CommWorld::with_deadline`]) converts an absent peer into
/// [`CommError::Timeout`], and a peer known dead into
/// [`CommError::RankDown`]. The semantics follow the MPI/NCCL
/// definitions; see each method.
#[derive(Debug, Clone)]
pub struct GroupComm {
    inner: Arc<GroupInner>,
    /// This rank's index *within the group* (dense, 0-based).
    index: usize,
    /// This rank's global rank (for diagnostics).
    global_rank: usize,
    /// Per-collective deadline; `None` waits forever.
    deadline: Option<Duration>,
}

impl GroupComm {
    pub(crate) fn new(
        inner: Arc<GroupInner>,
        global_rank: usize,
        deadline: Option<Duration>,
    ) -> Result<Self> {
        let index = inner
            .ranks
            .iter()
            .position(|&r| r == global_rank)
            .ok_or(CommError::NotAMember { rank: global_rank })?;
        Ok(GroupComm {
            inner,
            index,
            global_rank,
            deadline,
        })
    }

    /// Number of ranks in the group.
    pub fn size(&self) -> usize {
        self.inner.ranks.len()
    }

    /// This rank's dense index within the group.
    pub fn group_index(&self) -> usize {
        self.index
    }

    /// This rank's global rank.
    pub fn global_rank(&self) -> usize {
        self.global_rank
    }

    /// The global ranks composing the group, in group-index order.
    pub fn ranks(&self) -> &[usize] {
        &self.inner.ranks
    }

    /// The collective deadline currently armed on this handle.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Arms (or disarms, with `None`) the per-collective deadline.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// Advances this rank's op stream past one logical collective
    /// *without* running it.
    ///
    /// Callers that give up on an exchange (e.g. the degradation path in
    /// `fsmoe::dist` after its retry budget) use this to declare the op
    /// abandoned: peers still trying to run it observe the advanced
    /// stream and fail fast with [`CommError::Abandoned`] instead of
    /// rendezvousing their stale deposit with this rank's *next*
    /// collective. Only call between collectives — never with a deposit
    /// outstanding (the collectives' error paths guarantee this by
    /// withdrawing before returning).
    pub fn skip_op(&self) {
        self.inner.streams[self.index].fetch_add(1, Ordering::Relaxed);
        obs::counter_add(obs::names::COLLECTIVES_SKIPPED_OPS, 1);
    }

    /// This rank's position in the group's op stream: how many logical
    /// collectives it has completed or skipped ([`GroupComm::skip_op`]).
    pub fn op_stream_position(&self) -> u64 {
        self.inner.streams[self.index].load(Ordering::Relaxed)
    }

    /// Blocks on the condvar for one bounded step (never longer than the
    /// remaining deadline or the fault-poll interval). The time actually
    /// spent blocked is accumulated into the world's per-rank
    /// blocked-wait counter — the raw signal behind
    /// [`crate::Communicator::blocked_wait_us`].
    fn wait_step(&self, st: &mut MutexGuard<'_, OpState>, deadline: Option<Instant>) {
        let dur = match deadline {
            Some(d) => d.saturating_duration_since(Instant::now()).min(FAULT_POLL),
            None => FAULT_POLL,
        };
        if dur.is_zero() {
            return; // caller re-checks and reports the timeout
        }
        let waited = Instant::now();
        let _ = self.inner.cond.wait_for(st, dur);
        self.inner
            .ctrl
            .add_blocked_wait(self.global_rank, waited.elapsed().as_micros() as u64);
    }

    /// First group member that is dead world-wide and has not deposited
    /// an input this round — the op can never complete.
    fn blocking_dead_member(&self, st: &OpState) -> Option<usize> {
        self.inner
            .ranks
            .iter()
            .enumerate()
            .find(|&(i, &r)| st.inputs[i].is_none() && self.inner.ctrl.is_dead(r))
            .map(|(_, &r)| r)
    }

    /// Removes this rank's deposit so an abandoned op leaves the group
    /// reusable (retries re-enter a clean Collecting state).
    fn withdraw(&self, st: &mut OpState) {
        if let Phase::Collecting(c) = &mut st.phase {
            if st.inputs[self.index].take().is_some() {
                *c -= 1;
            }
            if *c == 0 {
                st.tag = None;
            }
        }
    }

    /// Drops outputs owed to dead ranks and, if the drain is complete,
    /// resets the group for the next collective.
    fn settle_drain(&self, st: &mut OpState) {
        if !matches!(st.phase, Phase::Distributing) {
            return;
        }
        for (i, &r) in self.inner.ranks.iter().enumerate() {
            if self.inner.ctrl.is_dead(r) {
                st.outputs[i] = None;
            }
        }
        if st.outputs.iter().all(Option::is_none) {
            st.phase = Phase::Collecting(0);
            st.tag = None;
            self.inner.cond.notify_all();
        }
    }

    /// Global ranks the caller is still waiting on.
    fn waiting_on(&self, st: &OpState) -> Vec<usize> {
        match st.phase {
            Phase::Collecting(_) => self
                .inner
                .ranks
                .iter()
                .enumerate()
                .filter(|&(i, _)| st.inputs[i].is_none() && i != self.index)
                .map(|(_, &r)| r)
                .collect(),
            Phase::Distributing => self
                .inner
                .ranks
                .iter()
                .enumerate()
                .filter(|&(i, _)| st.outputs[i].is_some())
                .map(|(_, &r)| r)
                .collect(),
        }
    }

    /// [`GroupComm::run_inner`] wrapped in fault injection and
    /// observability: exactly one success span per completed op (error
    /// and withdraw/retry paths record *no* span), stamped with the op's
    /// world-wide key ([`obs::names::op_key`]) so `obs::attrib` can
    /// stitch per-rank timelines; a `collectives.retries` increment
    /// whenever an op-stream position is attempted again; per-error-kind
    /// counters; and a flight-recorder dump on the one unrecoverable
    /// error (`Poisoned`).
    ///
    /// The injector consult lives *here*, before the span opens — an
    /// injected straggler delay is this rank arriving late, not wire
    /// time, so the span start must be the true arrival time. The
    /// preceding dead/fence gates replicate [`GroupComm::run_inner`]'s
    /// own (which it keeps — faults must never be consumed by a rank
    /// that could not have run the op anyway).
    fn run<F>(&self, tag: OpTag, mut input: Vec<f32>, compute: F) -> Result<Vec<f32>>
    where
        F: FnOnce(&[Vec<f32>]) -> Vec<Vec<f32>>,
    {
        if let Err(err) = self.fault_gates(&mut input) {
            record_error_counters(&err);
            return Err(err);
        }

        let pos = self.op_stream_position();
        let marker = self.inner.attempts[self.index].swap(pos + 1, Ordering::Relaxed);
        if marker == pos + 1 {
            obs::counter_add(obs::names::COLLECTIVES_RETRIES, 1);
        }
        let bytes = input.len() * std::mem::size_of::<f32>();
        // Adaptive budgets override the static deadline: the controller
        // sizes this op's budget to its name and payload. Timing starts
        // *after* the fault gates — an injected straggler delay is this
        // rank arriving late, and must not feed back into the budget as
        // wire time.
        let adaptive = self.inner.ctrl.adaptive().cloned();
        let budget = match &adaptive {
            Some(ctl) => Some(ctl.budget(tag.name(), bytes)),
            None => self.deadline,
        };
        let started = Instant::now();
        // Key epoch captured *before* the rendezvous: a live eviction can
        // bump the world epoch between this op's completion and the span
        // commit below, and a commit-time read would stamp the late-waking
        // rank's span with the new epoch — splitting one world-wide op
        // across two keys.
        let epoch = self.inner.ctrl.epoch();
        let span = obs::deferred_span(obs::names::CAT_COLLECTIVES, tag.name());
        match self.run_inner(tag, input, compute, budget) {
            Ok(out) => {
                if let Some(ctl) = &adaptive {
                    // Success-only: error paths measure the failure
                    // mode, not the op's cost, and would poison p99.
                    let elapsed = started.elapsed();
                    ctl.observe(tag.name(), elapsed);
                    if obs::is_enabled() {
                        let name = obs::names::deadline_budget_ms(tag.name());
                        obs::set_gauge(&name, budget.unwrap_or_default().as_secs_f64() * 1e3);
                    }
                }
                let mut span = span;
                if obs::is_enabled() {
                    span.attr("rank", self.global_rank);
                    span.attr("group", format_args!("{:?}", self.inner.ranks));
                    span.attr("op_id", pos);
                    span.attr("bytes", bytes);
                    span.attr(
                        "op_key",
                        obs::names::op_key(self.inner.gid, epoch, &self.inner.ranks, pos),
                    );
                }
                span.commit();
                Ok(out)
            }
            Err(err) => {
                span.cancel();
                record_error_counters(&err);
                Err(err)
            }
        }
    }

    /// The pre-rendezvous fault gates [`GroupComm::run`] applies before
    /// its collective span opens: dead-rank fail-fast, eviction fence,
    /// then the injector consult — exactly the order `run_inner` used to
    /// apply them, so faults are never consumed by a rank that could not
    /// have run the op anyway.
    fn fault_gates(&self, input: &mut [f32]) -> Result<()> {
        let ctrl = &self.inner.ctrl;
        if ctrl.is_dead(self.global_rank) {
            return Err(CommError::RankDown {
                rank: self.global_rank,
            });
        }
        if let Some(err) = ctrl.reconfig_error() {
            return Err(err);
        }
        if let Some(injector) = ctrl.injector() {
            let action = injector.on_collective(self.global_rank);
            if action.is_some() {
                obs::counter_add(obs::names::COLLECTIVES_FAULTS_INJECTED, 1);
            }
            match action {
                Some(FaultAction::Kill) => {
                    ctrl.mark_dead(self.global_rank);
                    self.inner.cond.notify_all();
                    return Err(CommError::RankDown {
                        rank: self.global_rank,
                    });
                }
                Some(FaultAction::Delay(d)) => std::thread::sleep(d),
                Some(FaultAction::DropPayload) => input.iter_mut().for_each(|v| *v = 0.0),
                None => {}
            }
        }
        Ok(())
    }

    /// The core rendezvous: deposit `input`, wait for all members, let the
    /// last arrival compute all outputs with `compute`, then take ours.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::RankDown`] when this rank or a peer is dead,
    /// [`CommError::Timeout`] when the armed deadline expires,
    /// [`CommError::Poisoned`] when a member panicked mid-collective, and
    /// [`CommError::Abandoned`] when peers have already skipped past this
    /// rank's op in the group's op stream.
    ///
    /// # Panics
    ///
    /// Panics when members concurrently issue different collectives on the
    /// same group (an SPMD violation); the group is poisoned first so
    /// peers error out rather than deadlock.
    fn run_inner<F>(
        &self,
        tag: OpTag,
        input: Vec<f32>,
        compute: F,
        budget: Option<Duration>,
    ) -> Result<Vec<f32>>
    where
        F: FnOnce(&[Vec<f32>]) -> Vec<Vec<f32>>,
    {
        let ctrl = &self.inner.ctrl;
        // Redundant with [`GroupComm::run`]'s gates, deliberately: the
        // checks are cheap, and keeping them here means no path into the
        // rendezvous can skip them.
        if ctrl.is_dead(self.global_rank) {
            return Err(CommError::RankDown {
                rank: self.global_rank,
            });
        }
        if let Some(err) = ctrl.reconfig_error() {
            // The world was fenced by a completed eviction: no collective
            // on it can ever complete again.
            return Err(err);
        }

        let op = tag.name();
        let started = Instant::now();
        let deadline = budget.map(|d| started + d);
        let expired = |deadline: Option<Instant>| deadline.is_some_and(|d| Instant::now() >= d);
        let n = self.size();
        let _poison_guard = PoisonOnPanic {
            inner: &self.inner,
            rank: self.global_rank,
        };
        let mut st = self.inner.state.lock();

        // Wait out the drain of a previous collective. Dead ranks never
        // take their outputs, so scrub them as we go.
        loop {
            if let Some(rank) = st.poisoned {
                return Err(CommError::Poisoned { rank });
            }
            if let Some(err) = ctrl.reconfig_error() {
                return Err(err);
            }
            self.settle_drain(&mut st);
            if matches!(st.phase, Phase::Collecting(_)) {
                break;
            }
            if expired(deadline) {
                let waiting_on = self.waiting_on(&st);
                return Err(CommError::Timeout {
                    op,
                    waiting_on,
                    deadline: budget.unwrap_or_default(),
                    elapsed: started.elapsed(),
                });
            }
            self.wait_step(&mut st, deadline);
        }

        // Op-stream check: deposits from different logical collectives
        // must never mix. Behind the round → peers provably abandoned
        // our op (the stream only advances) and no retry can succeed.
        // Ahead of the round → the open round belongs to an op *we*
        // already skipped; flush its stale deposits so their owners get
        // `Abandoned` instead of cross-wiring into our exchange.
        let my_id = self.inner.streams[self.index].load(Ordering::Relaxed);
        if my_id < st.round_id {
            return Err(CommError::Abandoned {
                op,
                op_id: my_id,
                stream_id: st.round_id,
            });
        }
        if my_id > st.round_id {
            if st.tag.is_some() {
                for slot in st.inputs.iter_mut() {
                    *slot = None;
                }
                st.phase = Phase::Collecting(0);
                st.tag = None;
                self.inner.cond.notify_all();
            }
            st.round_id = my_id;
        }

        debug_assert_eq!(st.round_id, my_id, "round claimed at the caller's op id");
        match st.tag {
            None => st.tag = Some(tag),
            Some(t) if t == tag => {}
            Some(t) => {
                st.poisoned = Some(self.global_rank);
                let ranks = self.inner.ranks.clone();
                drop(st);
                self.inner.cond.notify_all();
                panic!(
                    "SPMD violation on group {:?}: rank {} called {:?} while {:?} in flight",
                    ranks, self.global_rank, tag, t
                );
            }
        }

        st.inputs[self.index] = Some(input);
        let arrived = match &mut st.phase {
            Phase::Collecting(c) => {
                *c += 1;
                *c
            }
            Phase::Distributing => unreachable!("waited out distribution above"),
        };

        if arrived == n {
            let inputs: Vec<Vec<f32>> = st
                .inputs
                .iter_mut()
                // lint: allow(unwrap) — arrived == n holds here, and
                // every arrival deposits its input before incrementing.
                .map(|s| s.take().expect("all inputs deposited"))
                .collect();
            let outputs = compute(&inputs);
            assert_eq!(outputs.len(), n, "compute must yield one output per rank");
            for (slot, out) in st.outputs.iter_mut().zip(outputs) {
                *slot = Some(out);
            }
            st.phase = Phase::Distributing;
            self.inner.cond.notify_all();
        } else {
            loop {
                // A completed exchange always wins: once the op's compute
                // has run and our output is waiting, a fence or death
                // verdict observed afterwards belongs to a *later* op.
                // Erroring here would orphan an op every peer already
                // recorded as a world-wide success — a live eviction
                // racing the victim's wake-up from its final collective
                // would leave the op's key with a missing participant.
                if matches!(st.phase, Phase::Distributing) && st.outputs[self.index].is_some() {
                    break;
                }
                if let Some(rank) = st.poisoned {
                    self.withdraw(&mut st);
                    return Err(CommError::Poisoned { rank });
                }
                if let Some(err) = ctrl.reconfig_error() {
                    self.withdraw(&mut st);
                    self.inner.cond.notify_all();
                    return Err(err);
                }
                if st.round_id != my_id {
                    // A peer that had already skipped our op flushed this
                    // round (our deposit is gone) and claimed the group
                    // for a later collective.
                    self.withdraw(&mut st);
                    return Err(CommError::Abandoned {
                        op,
                        op_id: my_id,
                        stream_id: st.round_id,
                    });
                }
                if !matches!(st.phase, Phase::Collecting(_)) {
                    break;
                }
                if let Some(rank) = self.blocking_dead_member(&st) {
                    self.withdraw(&mut st);
                    self.inner.cond.notify_all();
                    return Err(CommError::RankDown { rank });
                }
                if expired(deadline) {
                    let waiting_on = self.waiting_on(&st);
                    self.withdraw(&mut st);
                    self.inner.cond.notify_all();
                    return Err(CommError::Timeout {
                        op,
                        waiting_on,
                        deadline: budget.unwrap_or_default(),
                        elapsed: started.elapsed(),
                    });
                }
                self.wait_step(&mut st, deadline);
            }
        }

        let Some(out) = st.outputs[self.index].take() else {
            // Distribution is underway but our slot is already gone:
            // only `settle_drain` scrubs slots, and only for ranks the
            // fleet marked dead — this rank was evicted while it slept
            // and a peer drained its output. Too late to claim the
            // result; exit with the verdict.
            self.settle_drain(&mut st);
            self.inner.cond.notify_all();
            return Err(CommError::RankDown {
                rank: self.global_rank,
            });
        };
        self.settle_drain(&mut st);
        // The op completed for this rank: advance its stream position.
        self.inner.streams[self.index].store(my_id + 1, Ordering::Relaxed);
        Ok(out)
    }

    /// Element-wise sum across the group; every rank ends with the total.
    ///
    /// Used for MP output combination and — crucially for the paper's §5 —
    /// the Gradient-AllReduce of data-parallel training.
    ///
    /// # Errors
    ///
    /// Returns deadline/fault errors; see `GroupComm::run` internals
    /// ([`CommError::Timeout`], [`CommError::RankDown`],
    /// [`CommError::Poisoned`]).
    ///
    /// # Panics
    ///
    /// Panics if members pass buffers of different lengths.
    pub fn all_reduce(&self, data: &mut [f32]) -> Result<()> {
        let out = self.run(OpTag::AllReduce, data.to_vec(), |inputs| {
            let len = inputs[0].len();
            for inp in inputs {
                assert_eq!(inp.len(), len, "all_reduce buffers must match in length");
            }
            let mut sum = vec![0.0f32; len];
            for inp in inputs {
                for (s, v) in sum.iter_mut().zip(inp) {
                    *s += v;
                }
            }
            vec![sum; inputs.len()]
        })?;
        data.copy_from_slice(&out);
        Ok(())
    }

    /// Concatenates every rank's buffer in group-index order; every rank
    /// receives the concatenation.
    ///
    /// This is the paper's ESP-AllGather (§2.2): it replicates dispatched
    /// tokens to all expert shards in the ESP group.
    ///
    /// # Errors
    ///
    /// Returns deadline/fault errors ([`CommError::Timeout`],
    /// [`CommError::RankDown`], [`CommError::Poisoned`]).
    pub fn all_gather(&self, data: &[f32]) -> Result<Vec<f32>> {
        self.run(OpTag::AllGather, data.to_vec(), |inputs| {
            let cat: Vec<f32> = inputs.iter().flatten().copied().collect();
            vec![cat; inputs.len()]
        })
    }

    /// Sums all buffers element-wise, then scatters the sum: rank `i`
    /// receives the `i`-th of `size` equal slices.
    ///
    /// This is the paper's ESP-ReduceScatter: it aggregates expert-shard
    /// outputs and splits the result back to the dispatch layout.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::BadBufferLength`] when the buffer does not
    /// divide evenly by the group size, plus deadline/fault errors.
    pub fn reduce_scatter(&self, data: &[f32]) -> Result<Vec<f32>> {
        let n = self.size();
        if !data.len().is_multiple_of(n) {
            return Err(CommError::BadBufferLength {
                op: "reduce_scatter",
                len: data.len(),
                group_size: n,
            });
        }
        self.run(OpTag::ReduceScatter, data.to_vec(), |inputs| {
            let len = inputs[0].len();
            let chunk = len / inputs.len();
            let mut sum = vec![0.0f32; len];
            for inp in inputs {
                assert_eq!(inp.len(), len, "reduce_scatter buffers must match");
                for (s, v) in sum.iter_mut().zip(inp) {
                    *s += v;
                }
            }
            (0..inputs.len())
                .map(|i| sum[i * chunk..(i + 1) * chunk].to_vec())
                .collect()
        })
    }

    /// Splits each rank's buffer into `size` equal chunks and transposes:
    /// rank `i` receives chunk `i` from every rank, concatenated in group
    /// order.
    ///
    /// This is AlltoAll Dispatch/Combine (§2.2), the operation expert
    /// parallelism uses to move tokens to their experts and back.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::BadBufferLength`] when the buffer does not
    /// divide evenly by the group size, plus deadline/fault errors.
    pub fn all_to_all(&self, data: &[f32]) -> Result<Vec<f32>> {
        let n = self.size();
        if !data.len().is_multiple_of(n) {
            return Err(CommError::BadBufferLength {
                op: "all_to_all",
                len: data.len(),
                group_size: n,
            });
        }
        self.run(OpTag::AllToAll, data.to_vec(), |inputs| {
            let len = inputs[0].len();
            let chunk = len / inputs.len();
            (0..inputs.len())
                .map(|dst| {
                    let mut out = Vec::with_capacity(len);
                    for src in inputs {
                        assert_eq!(src.len(), len, "all_to_all buffers must match");
                        out.extend_from_slice(&src[dst * chunk..(dst + 1) * chunk]);
                    }
                    out
                })
                .collect()
        })
    }

    /// Copies `root`'s buffer (by group index) to every rank.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::RankOutOfRange`] when `root` is not a valid
    /// group index, plus deadline/fault errors.
    pub fn broadcast(&self, root: usize, data: &mut [f32]) -> Result<()> {
        let n = self.size();
        if root >= n {
            return Err(CommError::RankOutOfRange {
                rank: root,
                world_size: n,
            });
        }
        let out = self.run(OpTag::Broadcast, data.to_vec(), move |inputs| {
            vec![inputs[root].clone(); inputs.len()]
        })?;
        data.copy_from_slice(&out);
        Ok(())
    }

    /// Blocks until every member of the group has reached the barrier.
    ///
    /// # Errors
    ///
    /// Returns deadline/fault errors ([`CommError::Timeout`],
    /// [`CommError::RankDown`], [`CommError::Poisoned`]).
    pub fn barrier(&self) -> Result<()> {
        let _ = self.run(OpTag::Barrier, Vec::new(), |inputs| {
            vec![Vec::new(); inputs.len()]
        })?;
        Ok(())
    }
}
