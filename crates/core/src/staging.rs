//! The staging-area runtime (paper Stages 2–4, Fig. 5).
//!
//! The staging area runs as its own SPMD program: each rank owns one
//! [`transport::StagingEndpoint`], a share of the compute ranks (from the
//! `Route()` inverse map), and a full set of operator instances. Per I/O
//! step each rank:
//!
//! 1. gathers the fetch requests of the compute ranks it serves,
//! 2. builds global [`Aggregates`] with one small staging-wide exchange,
//! 3. `initialize`s every operator,
//! 4. pulls chunks in the order/pacing of its [`transport::PullPolicy`]
//!    and fans them out to a pool of decode+map workers,
//! 5. completes each operator's combine → shuffle → reduce → finalize.
//!
//! # The pull → decode → map pipeline (stage 4)
//!
//! Each staging process runs "multiple threads that exploit concurrency
//! in different parts of the execution flow" (paper §IV-C). Stage 4 is a
//! three-role pipeline over two event queues:
//!
//! ```text
//!  puller ──(idx, src, bytes)──▶ bounded ──▶ decode+map ──┐
//!    │  policy order + pacing     work         worker 0   │
//!    ▼  RDMA get                  queue           ⋮       ├──▶ unbounded ──▶ collector
//!                                   └───────▶ worker N-1 ─┘     results        │
//!                                   unpack → map_chunk×ops       queue    slots[idx] = out
//! ```
//!
//! The *puller* issues RDMA gets serially in policy order and blocks on
//! the bounded work queue — its capacity (`max_inflight`) is the
//! back-pressure bound on pulled-but-unmapped bytes, so the streaming
//! memory footprint stays at a few chunks no matter how fast the network
//! outruns the operators. Each *worker* unpacks a chunk (a zero-copy
//! borrow of the pull buffer via [`ffs::decode_view`]) and runs every
//! operator's [`crate::op::ChunkMapper`] on it. The *collector* (the
//! `run_step` thread) files each worker's output into a slot indexed by
//! the chunk's position in the policy order, then merges slots **in
//! index order** — so the per-operator intermediate streams, and
//! therefore every downstream combine/shuffle/reduce result, are
//! bit-identical regardless of worker count or completion interleaving.
//!
//! All waiting is condvar-based (queue parking, [`PullPolicy::wait_ready`]);
//! there are no sleep-poll loops in this pipeline.
//!
//! The worker count is the `PREDATA_MAP_WORKERS` environment variable
//! (default 4, minimum 1; see [`map_workers`]) — the ablation knob for
//! the decode+map scaling experiments.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use transport::evq::{EventQueue, PollError};

use ffs::AttrList;
use minimpi::{Comm, World};
use transport::{
    Epoch, FetchRequest, Membership, MembershipPlan, PullPolicy, RetryPolicy, Router,
    StagingEndpoint, TransportError,
};

use crate::admit::AdmitControl;
use crate::agg::Aggregates;
use crate::chunk::{ChunkError, PackedChunk};
use crate::op::{complete_pipeline_traced, ChunkMapper, MapCtx, OpCtx, OpResult, StreamOp, Tagged};

/// Mark every chunk of an abandoned step explicitly truncated, so a
/// failed/timed-out step leaves terminal lineage records rather than
/// dangling entries. No-op unless lineage recording is on.
fn truncate_lineage(requests: &[FetchRequest], step: u64) {
    for r in requests {
        obs::lineage::truncate(r.src_rank as u64, step);
    }
}

/// Staging-side failures.
#[derive(Debug)]
pub enum StagingError {
    Transport(TransportError),
    Chunk(ChunkError),
    /// A request arrived for a step other than the one being gathered —
    /// compute ranks must move through steps in lockstep.
    StepSkew {
        expected: u64,
        got: u64,
    },
    /// Filesystem setup failed (e.g. the output directory could not be
    /// created).
    Io(std::io::Error),
    /// The staging thread for this rank panicked. The panic payload is
    /// swallowed by the thread boundary; the rank identifies the culprit.
    WorkerPanicked(usize),
    /// The collector saw one result per chunk yet a policy-order slot was
    /// never filled — a duplicate slot index, i.e. a pipeline bug. Names
    /// the missing index so the report pinpoints the chunk.
    SlotMissing {
        index: usize,
        n_chunks: usize,
    },
}

impl std::fmt::Display for StagingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StagingError::Transport(e) => write!(f, "staging transport: {e}"),
            StagingError::Chunk(e) => write!(f, "staging decode: {e}"),
            StagingError::StepSkew { expected, got } => {
                write!(f, "request step skew: gathering step {expected}, got {got}")
            }
            StagingError::Io(e) => write!(f, "staging io: {e}"),
            StagingError::WorkerPanicked(rank) => {
                write!(f, "staging rank {rank} panicked")
            }
            StagingError::SlotMissing { index, n_chunks } => {
                write!(
                    f,
                    "policy-order slot {index} of {n_chunks} never reported \
                     (duplicate slot index in the pipeline)"
                )
            }
        }
    }
}

impl std::error::Error for StagingError {
    /// The wrapped transport/decode/io failure, so error chains render
    /// across crate boundaries (`anyhow`-style `{:#}` displays and the
    /// report's failure column both walk `source()`).
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StagingError::Transport(e) => Some(e),
            StagingError::Chunk(e) => Some(e),
            StagingError::Io(e) => Some(e),
            StagingError::StepSkew { .. }
            | StagingError::WorkerPanicked(_)
            | StagingError::SlotMissing { .. } => None,
        }
    }
}

impl From<TransportError> for StagingError {
    fn from(e: TransportError) -> Self {
        StagingError::Transport(e)
    }
}

impl From<ChunkError> for StagingError {
    fn from(e: ChunkError) -> Self {
        StagingError::Chunk(e)
    }
}

impl From<std::io::Error> for StagingError {
    fn from(e: std::io::Error) -> Self {
        StagingError::Io(e)
    }
}

/// Decode+map worker threads per staging rank: the `PREDATA_MAP_WORKERS`
/// environment variable, defaulting to 4 and clamped to at least 1.
pub fn map_workers() -> usize {
    std::env::var("PREDATA_MAP_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or(4)
}

/// One finished (or failed) unit of pipeline work, filed by the slot
/// index the chunk holds in the policy-ordered pull list.
enum WorkerOut {
    Mapped {
        idx: usize,
        src_rank: usize,
        bytes: u64,
        /// `map_chunk` output of every operator, in operator order.
        per_op: Vec<Vec<Tagged>>,
    },
    DecodeErr(ChunkError),
    PullErr(TransportError),
    /// The chunk's pull exhausted its retries on a *transient* error:
    /// the step continues without it (degradation ladder rung 1).
    Skipped {
        idx: usize,
        src_rank: usize,
    },
}

/// A collected chunk's contribution: source rank, pulled bytes, per-op
/// mapper output.
type ChunkSlot = (usize, u64, Vec<Vec<Tagged>>);

/// What ended up in one policy-order slot.
enum SlotOutcome {
    Mapped(ChunkSlot),
    /// Pull retries exhausted; the chunk is excluded from the merge and
    /// its lineage marked [`obs::lineage::Stage::Truncated`].
    Skipped {
        src_rank: usize,
    },
}

/// Callback at a membership epoch boundary: `(epoch, my_rank)`, invoked
/// on every staging rank at the first step of the new epoch, between
/// two staging-wide barriers. Index handoff rides on this — a leaving
/// rank exports its committed shards, the successor republishes them —
/// with whatever shared state the hook closes over.
pub type EpochHook = dyn Fn(&Epoch, usize) + Send + Sync;

/// Static configuration of the staging area.
#[derive(Clone)]
pub struct StagingConfig {
    /// Number of compute ranks feeding the area.
    pub n_compute: usize,
    /// Directory for operator outputs.
    pub out_dir: PathBuf,
    /// Deadline for gathering one step's requests.
    pub gather_timeout: Duration,
    /// Retry policy for fetch-request receives and `rdma_get` pulls
    /// (`PREDATA_RETRY`; its deadline is the per-step pull budget).
    pub retry: RetryPolicy,
    /// Elastic membership schedule (`PREDATA_MEMBERSHIP`); `None` means
    /// every rank serves every step. Ranks outside the step's epoch stay
    /// in the collectives (they must — the world is one communicator)
    /// but serve no compute ranks and pull nothing.
    pub membership: Option<Arc<Membership>>,
    /// Invoked at each epoch boundary (index handoff; see [`EpochHook`]).
    pub on_epoch: Option<Arc<EpochHook>>,
    /// Overload admission control (`PREDATA_ADMIT`) — degradation-ladder
    /// rung 4; `None` never sheds.
    pub admit: Option<Arc<AdmitControl>>,
}

impl StagingConfig {
    pub fn new(n_compute: usize, out_dir: impl Into<PathBuf>) -> Self {
        StagingConfig {
            n_compute,
            out_dir: out_dir.into(),
            gather_timeout: Duration::from_secs(30),
            retry: RetryPolicy::from_env(),
            membership: MembershipPlan::from_env().map(|p| {
                Arc::new(
                    Membership::from_plan(&p).unwrap_or_else(|e| panic!("PREDATA_MEMBERSHIP: {e}")),
                )
            }),
            on_epoch: None,
            admit: AdmitControl::from_env(),
        }
    }
}

/// What one staging rank did for one step.
#[derive(Debug)]
pub struct StepReport {
    pub step: u64,
    /// Chunks this rank pulled.
    pub chunks: usize,
    /// Bulk bytes this rank pulled.
    pub bytes_pulled: u64,
    /// Compute ranks in pull order (for scheduling-policy inspection).
    pub pull_order: Vec<usize>,
    /// Compute ranks whose chunks were abandoned after retry
    /// exhaustion: the step's outputs exclude them (and say so in
    /// lineage). Empty on a healthy step.
    pub truncated: Vec<usize>,
    /// Operators shed by admission control this step (ladder rung 4):
    /// their mappers ran as no-ops, so their outputs cover no data.
    pub deferred: Vec<String>,
    /// Membership epoch version this step ran under (`None` without a
    /// membership schedule).
    pub epoch: Option<u64>,
    /// Per-operator results.
    pub results: Vec<OpResult>,
}

impl StepReport {
    /// Whether this step ran degraded (chunks truncated or operators
    /// shed by admission control).
    pub fn is_degraded(&self) -> bool {
        !self.truncated.is_empty() || !self.deferred.is_empty()
    }
}

/// One staging rank: endpoint + communicator + operators + policy.
pub struct StagingRank {
    comm: Comm,
    endpoint: StagingEndpoint,
    router: Arc<dyn Router>,
    policy: Box<dyn PullPolicy>,
    ops: Vec<Box<dyn StreamOp>>,
    cfg: StagingConfig,
    /// Requests that arrived early for future steps.
    stashed: Vec<FetchRequest>,
}

impl StagingRank {
    /// Create one staging rank, creating `cfg.out_dir` if needed.
    ///
    /// Fails with [`StagingError::Io`] when the output directory cannot
    /// be created — a misconfigured path must surface at startup, not as
    /// mysterious per-step write failures later.
    pub fn new(
        mut comm: Comm,
        endpoint: StagingEndpoint,
        router: Arc<dyn Router>,
        policy: Box<dyn PullPolicy>,
        ops: Vec<Box<dyn StreamOp>>,
        cfg: StagingConfig,
    ) -> Result<Self, StagingError> {
        std::fs::create_dir_all(&cfg.out_dir)?;
        // An attached fault plan covers the staging-wide collectives
        // too: every collective entry consults `FaultKind::Collective`
        // under the ambient retry policy. Injection happens only at
        // entry, before any message moves, and exhaustion *proceeds
        // anyway* — a rank unilaterally abandoning a collective would
        // deadlock its peers; the exhaustion is still counted
        // (`transport.retry_exhausted{op=collective}`) for the ladder.
        if let Some(plan) = endpoint.fault_plan() {
            let plan = Arc::clone(plan);
            let retry = cfg.retry.clone();
            comm.set_collective_gate(Arc::new(move |_op, rank, seq| {
                let _ = retry.run("collective", (rank << 32) ^ seq, |_| {
                    match plan.inject_collective(rank, seq) {
                        Some(e) => Err(e),
                        None => Ok(()),
                    }
                });
            }));
        }
        Ok(StagingRank {
            comm,
            endpoint,
            router,
            policy,
            ops,
            cfg,
            stashed: Vec::new(),
        })
    }

    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Membership bookkeeping at the top of a step. When a new epoch
    /// opens at `step`, every rank synchronizes, the epoch hook runs
    /// (index handoff), and only then does anyone serve the new epoch —
    /// in-flight pulls of earlier steps already completed against the
    /// old owners, and this step's requests route to the new ones.
    /// Returns the epoch version the step runs under.
    fn enter_epoch(&self, step: u64) -> Option<u64> {
        let membership = self.cfg.membership.as_ref()?;
        if let Some(opening) = membership.epoch_opening_at(step) {
            // Barrier-bracketed: the handoff must not race the old
            // epoch's tail nor the new epoch's first gather.
            self.comm.barrier();
            if let Some(hook) = &self.cfg.on_epoch {
                hook(opening, self.comm.rank());
            }
            self.comm.barrier();
            let reg = obs::global();
            reg.gauge("membership.epoch", &[])
                .set(opening.version as i64);
            if self.comm.rank() == 0 {
                reg.counter("membership.joins", &[])
                    .add(opening.joined.len() as u64);
                reg.counter("membership.leaves", &[])
                    .add(opening.left.len() as u64);
                reg.counter("membership.evictions", &[])
                    .add(opening.evicted.len() as u64);
                // Compute ranks whose owner changed across the boundary:
                // their chunks re-route from this step on.
                let moved = (0..self.cfg.n_compute)
                    .filter(|&c| {
                        self.router.route(c, step) != self.router.route(c, step.saturating_sub(1))
                    })
                    .count();
                reg.counter("membership.reroutes", &[]).add(moved as u64);
            }
        }
        Some(membership.epoch_at(step).version)
    }

    /// Process one I/O step end to end.
    pub fn run_step(&mut self, step: u64) -> Result<StepReport, StagingError> {
        let epoch = self.enter_epoch(step);
        let served = self
            .router
            .served_by(self.comm.rank(), self.cfg.n_compute, step);

        // --- Stage 2a: gather this step's requests ---
        let gather_span = obs::span!("gather", step);
        let mut pending: Vec<FetchRequest> = Vec::with_capacity(served.len());
        let mut keep = Vec::new();
        for r in self.stashed.drain(..) {
            if r.io_step == step {
                pending.push(r);
            } else {
                keep.push(r);
            }
        }
        self.stashed = keep;
        // Receives retry in slices of the gather deadline: a missed
        // slice is a retry (`transport.retries{op=recv}`), the spent
        // deadline is exhaustion. The overall budget stays
        // `gather_timeout`, as before retries existed.
        let recv_retry = self.cfg.retry.clone().deadline(self.cfg.gather_timeout);
        let recv_slice =
            (self.cfg.gather_timeout / recv_retry.max_attempts()).max(Duration::from_millis(1));
        while pending.len() < served.len() {
            let endpoint = &self.endpoint;
            let r = match recv_retry.run("recv", step, |_| endpoint.recv_request(recv_slice)) {
                Ok(r) => r,
                Err(e) => {
                    truncate_lineage(&pending, step);
                    return Err(e.into());
                }
            };
            if r.io_step == step {
                pending.push(r);
            } else if r.io_step > step {
                self.stashed.push(r);
            } else {
                truncate_lineage(&pending, step);
                return Err(StagingError::StepSkew {
                    expected: step,
                    got: r.io_step,
                });
            }
        }
        drop(gather_span);

        // --- Overload admission control (degradation-ladder rung 4) ---
        //
        // The decision consumes typed health signals, not raw values:
        // `obs::live::local_signals` carries this rank's queue pressure
        // (known the moment the gather closes) and the prior step's
        // simulation blocked-fraction (perturbation monitor, populated
        // under `PREDATA_LINEAGE`), plus — when the live plane is on —
        // the latest cluster-level advisories. The signal values are
        // the same numbers the raw path used, so the shed decision (and
        // every data byte downstream) is identical with the plane off.
        // Overload sheds the configured non-critical operators for this
        // step: their mappers become no-ops (the decode+map stage does
        // none of their work) while their collective phases still run,
        // so an asymmetrically-loaded area never deadlocks. Outputs of
        // shed operators are truncated — computed over no data — rather
        // than back-pressuring the simulation.
        let mut deferred: Vec<String> = Vec::new();
        if let Some(admit) = &self.cfg.admit {
            let signals =
                obs::live::local_signals(self.comm.rank() as u64, step, pending.len() as u64);
            if admit.overloaded_signals(&signals) {
                deferred = self
                    .ops
                    .iter()
                    .map(|op| op.name())
                    .filter(|n| admit.defers(n))
                    .map(String::from)
                    .collect();
                if !deferred.is_empty() {
                    let reg = obs::global();
                    reg.counter("staging.admission_triggers", &[]).inc();
                    reg.counter("staging.admission_deferred_ops", &[])
                        .add(deferred.len() as u64);
                }
            }
        }

        // --- Stage 2b: aggregate attached partial results globally ---
        let agg_span = obs::span!("aggregate", step);
        let local: Vec<(usize, AttrList)> = pending
            .iter()
            .map(|r| (r.src_rank, r.attrs.clone()))
            .collect();
        let agg = Aggregates::build(&local, &self.comm);
        let ctx = OpCtx {
            comm: &self.comm,
            out_dir: &self.cfg.out_dir,
            step,
            n_compute: self.cfg.n_compute,
            agg: Some(&agg),
        };
        for op in &mut self.ops {
            op.initialize(&agg, &ctx);
        }
        drop(agg_span);

        // --- Stage 3 + 4a: scheduled pulls, parallel decode+map ---
        //
        // See the module docs for the pipeline picture: one puller feeds
        // a bounded work queue (back-pressure bounds the streaming memory
        // footprint at a few chunks), `map_workers()` workers decode and
        // run every operator's mapper, and this thread collects their
        // outputs into position-indexed slots for a deterministic merge.
        self.policy.order(&mut pending);
        let n_chunks = pending.len();
        let mut mapped: Vec<Vec<Tagged>> = (0..self.ops.len()).map(|_| Vec::new()).collect();
        let mut bytes_pulled = 0u64;
        let mut pull_order = Vec::with_capacity(n_chunks);
        let mut truncated = Vec::new();
        let mut pull_err: Option<TransportError> = None;
        let mut decode_err: Option<StagingError> = None;
        // Wall time of the whole rank-local phase (pull + decode + map).
        // This is the span the live plane's straggler detector compares
        // across ranks: stage 4b below is collective — every rank waits
        // for the slowest inside it — so only 4a carries a per-rank
        // imbalance signal.
        let map_phase_started = Instant::now();
        if n_chunks > 0 {
            // Map state frozen by `initialize`, shareable across workers.
            // Operators shed by admission control get a no-op mapper:
            // the work stays unmapped, not queued for later.
            struct ShedMapper;
            impl ChunkMapper for ShedMapper {
                fn map_chunk(&self, _chunk: &PackedChunk, _ctx: &MapCtx) -> Vec<Tagged> {
                    Vec::new()
                }
            }
            let mappers: Vec<Arc<dyn ChunkMapper>> = self
                .ops
                .iter()
                .map(|op| {
                    if deferred.iter().any(|d| d == op.name()) {
                        Arc::new(ShedMapper) as Arc<dyn ChunkMapper>
                    } else {
                        op.mapper()
                    }
                })
                .collect();
            let map_ctx = ctx.map_ctx();
            let n_workers = map_workers().min(n_chunks);
            // slots[i] belongs to pending[i]; filled in completion order,
            // merged in index order.
            let mut slots: Vec<Option<SlotOutcome>> = (0..n_chunks).map(|_| None).collect();
            let step_started = Instant::now();
            let work: EventQueue<(usize, usize, Arc<[u8]>)> =
                EventQueue::bounded(self.policy.max_inflight().max(1));
            let results: EventQueue<WorkerOut> = EventQueue::unbounded();
            // Raised when this thread abandons the step (timeout or
            // error); parked threads are woken by closing `work`.
            let cancelled = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let endpoint = &self.endpoint;
                let policy = &self.policy;
                let retry = &self.cfg.retry;
                let gather_timeout = self.cfg.gather_timeout;
                let (work, results) = (&work, &results);
                let (cancelled, mappers, pending) = (&cancelled, &mappers, &pending);
                // Puller: RDMA gets, serially, in policy order and pacing.
                scope.spawn(move || {
                    for (idx, req) in pending.iter().enumerate() {
                        // Condvar/deadline park inside the policy; the
                        // short tick only bounds cancellation latency.
                        let wait_started = obs::lineage::enabled().then(Instant::now);
                        while !policy.wait_ready(Duration::from_millis(25)) {
                            if cancelled.load(Ordering::Acquire) {
                                return;
                            }
                        }
                        // The policy deferral is the chunk's scheduling
                        // wait — the rate/phase control the paper bounds
                        // interference with.
                        if let Some(t) = wait_started {
                            obs::lineage::record_wait(
                                req.src_rank as u64,
                                step,
                                obs::lineage::Stage::PullScheduled,
                                t.elapsed().as_nanos() as u64,
                            );
                        }
                        // Pulls retry under the *step's* remaining
                        // deadline budget: transient errors (timeouts,
                        // stale handles, injected faults) back off and
                        // re-attempt; exhausting them skips this chunk —
                        // degradation, not abort. A non-retryable error,
                        // or the work queue closing under a blocked
                        // send, abandons the step.
                        let salt = ((req.src_rank as u64) << 32) ^ step;
                        let remaining = retry
                            .step_deadline()
                            .saturating_sub(step_started.elapsed())
                            .max(Duration::from_millis(1));
                        let plan = endpoint.fault_plan();
                        let pull_span = obs::span!("pull", step);
                        match retry.clone().deadline(remaining).run("pull", salt, |_| {
                            if let Some(p) = plan {
                                if let Some(e) =
                                    p.inject_pull(req.src_rank as u64, step, req.handle)
                                {
                                    return Err(e);
                                }
                            }
                            endpoint.rdma_get(req)
                        }) {
                            // Blocking send parks under back-pressure and
                            // wakes with `Closed` if the step is abandoned.
                            Ok(buf) => {
                                drop(pull_span);
                                if work.send((idx, req.src_rank, buf)).is_err() {
                                    return;
                                }
                            }
                            Err(e) if RetryPolicy::is_retryable(&e) => {
                                pull_span.cancel();
                                results.submit(WorkerOut::Skipped {
                                    idx,
                                    src_rank: req.src_rank,
                                });
                            }
                            Err(e) => {
                                pull_span.cancel();
                                results.submit(WorkerOut::PullErr(e));
                                return;
                            }
                        }
                    }
                    // All pulls issued: workers drain the queue, then exit.
                    work.close();
                });
                // Decode+map workers.
                for worker in 0..n_workers {
                    scope.spawn(move || {
                        // Per-worker utilization: busy (decode+map) time
                        // accumulates locally, flushed once at exit.
                        let mut busy_ns = 0u64;
                        loop {
                            match work.recv_waited(gather_timeout) {
                                Ok(((idx, src_rank, buf), queued)) => {
                                    if cancelled.load(Ordering::Acquire) {
                                        continue; // abandoned: discard undecoded
                                    }
                                    let decode_span = obs::span!("decode", step);
                                    let out = match PackedChunk::unpack(&buf) {
                                        Ok(chunk) => {
                                            busy_ns += decode_span.elapsed_ns();
                                            drop(decode_span);
                                            let bytes = buf.len() as u64;
                                            drop(buf); // chunk owns its data now
                                                       // `queued` is how long the pulled
                                                       // bytes sat awaiting a worker.
                                            obs::lineage::record_wait(
                                                src_rank as u64,
                                                step,
                                                obs::lineage::Stage::Decoded,
                                                queued.as_nanos() as u64,
                                            );
                                            let map_span = obs::span!("map", step);
                                            let per_op = mappers
                                                .iter()
                                                .map(|m| m.map_chunk(&chunk, &map_ctx))
                                                .collect();
                                            busy_ns += map_span.elapsed_ns();
                                            obs::lineage::record(
                                                src_rank as u64,
                                                step,
                                                obs::lineage::Stage::Mapped,
                                            );
                                            WorkerOut::Mapped {
                                                idx,
                                                src_rank,
                                                bytes,
                                                per_op,
                                            }
                                        }
                                        Err(e) => WorkerOut::DecodeErr(e),
                                    };
                                    results.submit(out);
                                }
                                Err(PollError::Closed) => break,
                                Err(PollError::Timeout) => {
                                    if cancelled.load(Ordering::Acquire) {
                                        break;
                                    }
                                }
                            }
                        }
                        if busy_ns > 0 {
                            obs::global()
                                .counter(
                                    "staging.worker_busy_ns",
                                    &[("worker", &worker.to_string())],
                                )
                                .add(busy_ns);
                        }
                    });
                }
                // Collector: exactly one message arrives per chunk unless
                // a role fails; the first failure abandons the step.
                let mut filled = 0usize;
                while filled < n_chunks {
                    match results.poll(gather_timeout) {
                        None => {
                            pull_err = Some(TransportError::Timeout);
                            break;
                        }
                        Some(WorkerOut::Mapped {
                            idx,
                            src_rank,
                            bytes,
                            per_op,
                        }) => {
                            slots[idx] = Some(SlotOutcome::Mapped((src_rank, bytes, per_op)));
                            filled += 1;
                        }
                        Some(WorkerOut::Skipped { idx, src_rank }) => {
                            slots[idx] = Some(SlotOutcome::Skipped { src_rank });
                            filled += 1;
                        }
                        Some(WorkerOut::DecodeErr(e)) => {
                            decode_err = Some(StagingError::Chunk(e));
                            break;
                        }
                        Some(WorkerOut::PullErr(e)) => {
                            pull_err = Some(e);
                            break;
                        }
                    }
                }
                // Wake anything still parked so the scope can join. On
                // the success path both are no-ops.
                cancelled.store(true, Ordering::Release);
                work.close();
            });
            // Queue-depth high-water marks: how far the puller ran ahead
            // of the workers (work) and the workers ahead of the
            // collector (results) this step.
            obs::global()
                .gauge("staging.work_queue_hwm", &[])
                .record_max(work.high_water() as i64);
            obs::global()
                .gauge("staging.results_queue_hwm", &[])
                .record_max(results.high_water() as i64);
            if let Some(e) = decode_err {
                truncate_lineage(&pending, step);
                return Err(e);
            }
            if let Some(e) = pull_err {
                truncate_lineage(&pending, step);
                return Err(StagingError::Transport(e));
            }
            // Deterministic merge: slot order == policy order, so the
            // concatenated per-operator streams (and everything downstream
            // of combine) are identical for every worker count. Skipped
            // chunks leave the merge entirely — excluded, counted, and
            // terminally marked in lineage, never silently half-applied.
            for (index, slot) in slots.into_iter().enumerate() {
                match slot {
                    None => {
                        truncate_lineage(&pending, step);
                        return Err(StagingError::SlotMissing { index, n_chunks });
                    }
                    Some(SlotOutcome::Skipped { src_rank }) => {
                        obs::lineage::truncate(src_rank as u64, step);
                        obs::global().counter("staging.truncated_chunks", &[]).inc();
                        truncated.push(src_rank);
                    }
                    Some(SlotOutcome::Mapped((src_rank, bytes, per_op))) => {
                        pull_order.push(src_rank);
                        bytes_pulled += bytes;
                        for (i, items) in per_op.into_iter().enumerate() {
                            mapped[i].extend(items);
                        }
                    }
                }
            }
        }
        let compute_span_ns = if n_chunks > 0 {
            map_phase_started.elapsed().as_nanos() as u64
        } else {
            0
        };

        // --- Stage 4b: combine / shuffle / reduce / finalize per op ---
        let mut results = Vec::with_capacity(self.ops.len());
        for (op, m) in self.ops.iter_mut().zip(mapped) {
            results.push(complete_pipeline_traced(op.as_mut(), m, &ctx, &pull_order));
        }
        // Lineage catch-all: the first operator's in-phase marks win
        // (first-write-wins); this closes every record even for op-less
        // runs, and `written` here means "the step's outputs — including
        // any merged bp files keyed by staging rank — are committed".
        if obs::lineage::enabled() {
            for &src in &pull_order {
                obs::lineage::record(src as u64, step, obs::lineage::Stage::Shuffled);
                obs::lineage::record(src as u64, step, obs::lineage::Stage::Reduced);
                obs::lineage::record(src as u64, step, obs::lineage::Stage::Written);
            }
        }

        // --- Live telemetry tick (PREDATA_LIVE; default off) ---
        //
        // One sampler tick per rank per step, and — when a frame
        // exchange is due — an `allgather` of this rank's POD frame.
        // The collective only exists when the plane is enabled, so a
        // disabled run's collective count (and the deterministic tests
        // pinned to it) is untouched; every rank runs every step from 0
        // regardless of membership (inactive ranks idle in the
        // collectives), so the exchange is symmetric by construction.
        if obs::live::enabled() {
            let rank = self.comm.rank() as u64;
            obs::live::step_end(
                rank,
                step,
                obs::live::StepStats {
                    backlog: n_chunks as u64,
                    compute_span_ns,
                    shed_ops: deferred.len() as u64,
                    truncated: truncated.len() as u64,
                },
            );
            if obs::live::frame_due(step) {
                if let Some(local) = obs::live::local_frame(rank, step) {
                    let frames = self.comm.allgather(local);
                    obs::live::ingest_frames(step, &frames);
                }
            }
        }

        Ok(StepReport {
            step,
            chunks: n_chunks,
            bytes_pulled,
            pull_order,
            truncated,
            deferred,
            epoch,
            results,
        })
    }
}

/// Factory signature for per-rank operator sets.
pub type OpsFactory = dyn Fn(usize) -> Vec<Box<dyn StreamOp>> + Send + Sync;
/// Factory signature for per-rank pull policies.
pub type PolicyFactory = dyn Fn(usize) -> Box<dyn PullPolicy> + Send + Sync;

/// What one staging rank's thread produces: its per-step reports, or
/// the error that stopped it.
type RankOutcome = Result<Vec<StepReport>, StagingError>;

/// Orchestrates a whole staging area on threads: its own "MPI program",
/// launched independently from the simulation (paper §IV-C).
pub struct StagingArea {
    /// `(rank, handle)` so a panicked thread can be blamed by rank.
    handles: Vec<(usize, std::thread::JoinHandle<RankOutcome>)>,
}

impl StagingArea {
    /// Launch one thread per staging endpoint, each processing steps
    /// `0..n_steps`. `ops` and `policy` build each rank's instances.
    pub fn spawn(
        endpoints: Vec<StagingEndpoint>,
        router: Arc<dyn Router>,
        ops: Arc<OpsFactory>,
        policy: Arc<PolicyFactory>,
        cfg: StagingConfig,
        n_steps: u64,
    ) -> StagingArea {
        let n = endpoints.len();
        let (_world, comms) = World::with_size(n);
        let handles = endpoints
            .into_iter()
            .zip(comms)
            .map(|(endpoint, comm)| {
                let router = Arc::clone(&router);
                let ops = Arc::clone(&ops);
                let policy = Arc::clone(&policy);
                let cfg = cfg.clone();
                let rank = comm.rank();
                let handle = std::thread::Builder::new()
                    .name(format!("staging{}", endpoint.rank()))
                    .spawn(move || {
                        let mut sr =
                            StagingRank::new(comm, endpoint, router, policy(rank), ops(rank), cfg)?;
                        (0..n_steps).map(|s| sr.run_step(s)).collect()
                    })
                    .expect("spawn staging thread");
                (rank, handle)
            })
            .collect();
        StagingArea { handles }
    }

    /// Wait for every staging rank; returns per-rank step reports. A
    /// panicking rank surfaces as [`StagingError::WorkerPanicked`] in its
    /// report slot instead of crashing the harness; the other ranks'
    /// results are still returned.
    ///
    /// On the way out, honours the obs export contract: writes a JSON
    /// metrics snapshot when `PREDATA_METRICS` names a path, and flushes
    /// the Chrome trace when `PREDATA_TRACE` is set.
    pub fn join(self) -> Vec<Result<Vec<StepReport>, StagingError>> {
        let reports = self
            .handles
            .into_iter()
            .map(|(rank, h)| h.join().unwrap_or(Err(StagingError::WorkerPanicked(rank))))
            .collect();
        if let Some(path) = obs::metrics_export_path() {
            if let Err(e) = std::fs::write(&path, obs::global().snapshot().to_json()) {
                eprintln!("warning: PREDATA_METRICS snapshot to {path:?} failed: {e}");
            }
        }
        if let Err(e) = obs::trace::flush() {
            eprintln!("warning: PREDATA_TRACE flush failed: {e}");
        }
        obs::live::flush();
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PredataClient;
    use crate::ops::HistogramOp;
    use crate::schema::make_particle_pg;
    use transport::{BlockRouter, Fabric, FifoPolicy, LargestFirstPolicy};

    fn out_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("staging-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// 4 compute ranks → 2 staging ranks, histogram over column 0,
    /// 2 steps. Verifies counts, routing, and streaming.
    #[test]
    fn end_to_end_histogram_two_steps() {
        let n_compute = 4;
        let n_staging = 2;
        let (_fabric, computes, stagings) = Fabric::new(n_compute, n_staging, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, n_staging));
        let dir = out_dir("e2e");

        let area = StagingArea::spawn(
            stagings,
            Arc::clone(&router),
            Arc::new(|_| vec![Box::new(HistogramOp::new(vec![0], 4)) as Box<dyn StreamOp>]),
            Arc::new(|_| Box::new(FifoPolicy::default()) as Box<dyn PullPolicy>),
            StagingConfig::new(n_compute, &dir),
            2,
        );

        // Compute side: each rank writes 8 particles per step, x spread
        // uniformly over [0, 16).
        let clients: Vec<PredataClient> = computes
            .into_iter()
            .map(|e| {
                PredataClient::new(
                    e,
                    Arc::clone(&router),
                    vec![Arc::new(HistogramOp::new(vec![0], 4))],
                )
            })
            .collect();
        for step in 0..2u64 {
            for (r, c) in clients.iter().enumerate() {
                let rows: Vec<f64> = (0..4)
                    .flat_map(|i| vec![(r * 4 + i) as f64, 0., 0., 0., 0., 0., r as f64, i as f64])
                    .collect();
                c.write_pg(make_particle_pg(r as u64, step, rows)).unwrap();
            }
        }

        let reports = area.join();
        let mut total_hist = vec![0u64; 4];
        for rank_reports in reports {
            let steps = rank_reports.expect("staging rank succeeded");
            assert_eq!(steps.len(), 2);
            for rep in steps {
                assert_eq!(rep.chunks, 2, "block router: 2 compute ranks each");
                for res in &rep.results {
                    if let Some(ffs::Value::ArrU64(bins)) = res.values.get("hist_x") {
                        for (i, b) in bins.iter().enumerate() {
                            total_hist[i] += b;
                        }
                    }
                }
            }
        }
        // 16 values 0..16 per step × 2 steps over 4 bins of width 4.
        assert_eq!(total_hist, vec![8, 8, 8, 8]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pull_policy_controls_order() {
        let n_compute = 3;
        let (_fabric, computes, stagings) = Fabric::new(n_compute, 1, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, 1));
        let dir = out_dir("order");

        let area = StagingArea::spawn(
            stagings,
            Arc::clone(&router),
            Arc::new(|_| Vec::new()),
            Arc::new(|_| Box::new(LargestFirstPolicy) as Box<dyn PullPolicy>),
            StagingConfig::new(n_compute, &dir),
            1,
        );

        // Rank r writes r+1 particles → sizes 1 < 2 < 3.
        let clients: Vec<PredataClient> = computes
            .into_iter()
            .map(|e| PredataClient::new(e, Arc::clone(&router), vec![]))
            .collect();
        for (r, c) in clients.iter().enumerate() {
            c.write_pg(make_particle_pg(r as u64, 0, vec![0.0; (r + 1) * 8]))
                .unwrap();
        }

        let reports = area.join();
        let rep = &reports[0].as_ref().unwrap()[0];
        assert_eq!(rep.pull_order, vec![2, 1, 0], "largest chunk first");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_request_times_out() {
        let (_fabric, _computes, stagings) = Fabric::new(2, 1, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(2, 1));
        let dir = out_dir("timeout");
        let mut cfg = StagingConfig::new(2, &dir);
        cfg.gather_timeout = Duration::from_millis(30);
        let area = StagingArea::spawn(
            stagings,
            router,
            Arc::new(|_| Vec::new()),
            Arc::new(|_| Box::new(FifoPolicy::default()) as Box<dyn PullPolicy>),
            cfg,
            1,
        );
        // Nobody writes: staging must fail with a timeout, not hang.
        let reports = area.join();
        assert!(matches!(
            reports[0],
            Err(StagingError::Transport(TransportError::Timeout))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An operator that panics inside the pipeline must surface as
    /// `WorkerPanicked(rank)` for that rank only — not crash the harness.
    #[test]
    fn panicking_rank_reports_worker_panicked() {
        struct PanicOp;
        impl crate::op::StreamOp for PanicOp {
            fn name(&self) -> &str {
                "panic"
            }
            fn initialize(&mut self, _agg: &Aggregates, _ctx: &OpCtx) {
                panic!("operator bug");
            }
            fn mapper(&self) -> Arc<dyn ChunkMapper> {
                unreachable!()
            }
            fn reduce(&mut self, _tag: u64, _items: Vec<bytes::Bytes>, _ctx: &OpCtx) {}
            fn finalize(&mut self, _ctx: &OpCtx) -> crate::op::OpResult {
                crate::op::OpResult::default()
            }
        }

        let n_compute = 2;
        let (_fabric, computes, stagings) = Fabric::new(n_compute, 2, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, 2));
        let dir = out_dir("panic");
        let area = StagingArea::spawn(
            stagings,
            Arc::clone(&router),
            // Only rank 1 gets the panicking operator.
            Arc::new(|rank| {
                if rank == 1 {
                    vec![Box::new(PanicOp) as Box<dyn StreamOp>]
                } else {
                    Vec::new()
                }
            }),
            Arc::new(|_| Box::new(FifoPolicy::default()) as Box<dyn PullPolicy>),
            StagingConfig::new(n_compute, &dir),
            1,
        );
        let clients: Vec<PredataClient> = computes
            .into_iter()
            .map(|e| PredataClient::new(e, Arc::clone(&router), vec![]))
            .collect();
        for (r, c) in clients.iter().enumerate() {
            c.write_pg(make_particle_pg(r as u64, 0, vec![0.0; 8]))
                .unwrap();
        }
        let reports = area.join();
        assert!(matches!(reports[1], Err(StagingError::WorkerPanicked(1))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn early_requests_for_future_steps_are_stashed() {
        let n_compute = 2;
        let (_fabric, computes, stagings) = Fabric::new(n_compute, 1, None);
        let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n_compute, 1));
        let dir = out_dir("stash");
        let clients: Vec<PredataClient> = computes
            .into_iter()
            .map(|e| PredataClient::new(e, Arc::clone(&router), vec![]))
            .collect();

        // Rank 0 races ahead: writes step 0 AND step 1 before rank 1
        // writes step 0.
        clients[0]
            .write_pg(make_particle_pg(0, 0, vec![0.0; 8]))
            .unwrap();
        clients[0]
            .write_pg(make_particle_pg(0, 1, vec![0.0; 8]))
            .unwrap();
        clients[1]
            .write_pg(make_particle_pg(1, 0, vec![0.0; 8]))
            .unwrap();
        clients[1]
            .write_pg(make_particle_pg(1, 1, vec![0.0; 8]))
            .unwrap();

        let area = StagingArea::spawn(
            stagings,
            router,
            Arc::new(|_| Vec::new()),
            Arc::new(|_| Box::new(FifoPolicy::default()) as Box<dyn PullPolicy>),
            StagingConfig::new(n_compute, &dir),
            2,
        );
        let reports = area.join();
        let steps = reports
            .into_iter()
            .next()
            .unwrap()
            .expect("both steps complete");
        assert_eq!(steps.len(), 2);
        assert!(steps.iter().all(|s| s.chunks == 2));
        std::fs::remove_dir_all(&dir).ok();
    }
}
