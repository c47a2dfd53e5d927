//! Benchmark-side tracing: spans recorded around the calls the benchmark
//! makes into the middleware, and inside decorators it hands to the
//! middleware (`StreamOp`, `ChunkMapper`, `ComputeSideOp`, `PullPolicy`).
//! Nothing here reaches inside a crate; every boundary is a public call.
//!
//! Spans are kept in memory and written out once, at the end of the run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ffs::AttrList;
use predata_core::agg::Aggregates;
use predata_core::chunk::PackedChunk;
use predata_core::op::{ChunkMapper, ComputeSideOp, MapCtx, OpCtx, OpResult, StreamOp, Tagged};
use transport::{FetchRequest, PullPolicy};

/// One recorded span. `req` is the request the span belongs to (a step
/// or a query id), shared by every span of that request.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store with one time base.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Reserve a span id, for a parent whose end is not known yet.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span; returns its id. A `parent` of 0 is a root.
    pub fn span(&self, name: &str, parent: u64, req: u64, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.reserve();
        self.span_with_id(id, name, parent, req, start_ns, end_ns);
        id
    }

    pub fn span_with_id(
        &self,
        id: u64,
        name: &str,
        parent: u64,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name: name.to_string(),
            req,
            start_ns,
            end_ns,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-op accumulators of one staging rank's current step.
#[derive(Default)]
struct OpMarks {
    combine_ns: u64,
    /// Combine return to the op's next call (the shuffle, as seen from
    /// outside).
    shuffle_ns: u64,
    reduce_ns: u64,
    finalize_ns: u64,
    combine_end: Option<u64>,
}

/// Boundaries of one `run_step` on one rank, as the decorators see them.
#[derive(Default)]
struct Marks {
    step: u64,
    root: u64,
    entry: u64,
    first_init: Option<u64>,
    last_init_end: u64,
    order_start: Option<u64>,
    order_ns: u64,
    first_combine: Option<u64>,
    last_finalize_end: u64,
    ops: Vec<OpMarks>,
}

/// The time split of one `run_step` on one rank (nanoseconds). The parts
/// plus `unattributed` equal `wall`.
#[derive(Clone, Debug, Default)]
pub struct StepBreakdown {
    pub wall: u64,
    pub gather_agg: u64,
    pub init: u64,
    pub map_phase: u64,
    pub order: u64,
    pub combine: Vec<u64>,
    pub shuffle: Vec<u64>,
    pub reduce: Vec<u64>,
    pub finalize: Vec<u64>,
    pub tail: u64,
    pub unattributed: i64,
    /// Σ `map_chunk` time per op, and calls per op.
    pub map_ns: Vec<u64>,
    pub map_calls: Vec<u64>,
}

/// Shared per-rank probe the decorators of that rank report into.
pub struct RankProbe {
    tracer: Arc<Tracer>,
    marks: Mutex<Marks>,
    map_ns: Vec<AtomicU64>,
    map_calls: Vec<AtomicU64>,
}

impl RankProbe {
    pub fn new(tracer: Arc<Tracer>, n_ops: usize) -> Arc<RankProbe> {
        Arc::new(RankProbe {
            tracer,
            marks: Mutex::new(Marks::default()),
            map_ns: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
            map_calls: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn marks(&self) -> std::sync::MutexGuard<'_, Marks> {
        self.marks.lock().expect("rank marks poisoned")
    }

    /// Called by the benchmark right before `run_step(step)`.
    pub fn begin(&self, step: u64, root: u64, entry: Instant) {
        let mut m = self.marks();
        *m = Marks {
            step,
            root,
            entry: self.tracer.ns(entry),
            ops: (0..self.map_ns.len()).map(|_| OpMarks::default()).collect(),
            ..Marks::default()
        };
        for a in self.map_ns.iter().chain(&self.map_calls) {
            a.store(0, Ordering::Relaxed);
        }
    }

    /// Called by the benchmark right after `run_step` returned.
    pub fn end(&self, ret: Instant) -> StepBreakdown {
        let m = self.marks();
        let ret = self.tracer.ns(ret);
        let wall = ret.saturating_sub(m.entry);
        let first_init = m.first_init.unwrap_or(ret);
        let order_start = m.order_start.unwrap_or(first_init);
        let first_combine = m.first_combine.unwrap_or(ret);
        let gather_agg = first_init.saturating_sub(m.entry);
        let init = m.last_init_end.saturating_sub(first_init);
        let map_phase = first_combine.saturating_sub(order_start);
        let tail = ret.saturating_sub(m.last_finalize_end.max(first_combine));
        let pick = |f: fn(&OpMarks) -> u64| m.ops.iter().map(f).collect::<Vec<u64>>();
        let b = StepBreakdown {
            wall,
            gather_agg,
            init,
            map_phase,
            order: m.order_ns,
            combine: pick(|o| o.combine_ns),
            shuffle: pick(|o| o.shuffle_ns),
            reduce: pick(|o| o.reduce_ns),
            finalize: pick(|o| o.finalize_ns),
            tail,
            unattributed: 0,
            map_ns: self
                .map_ns
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            map_calls: self
                .map_calls
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
        };
        let parts = b.gather_agg
            + b.init
            + b.map_phase
            + b.tail
            + [&b.combine, &b.shuffle, &b.reduce, &b.finalize]
                .iter()
                .flat_map(|v| v.iter())
                .sum::<u64>();
        let tr = &self.tracer;
        let (root, step) = (m.root, m.step);
        tr.span("staging.gather_agg", root, step, m.entry, first_init);
        tr.span("staging.init", root, step, first_init, m.last_init_end);
        tr.span("staging.map_phase", root, step, order_start, first_combine);
        tr.span("staging.tail", root, step, ret - tail, ret);
        StepBreakdown {
            unattributed: wall as i64 - parts as i64,
            ..b
        }
    }
}

/// Decorator around one operator of one staging rank.
pub struct TracedOp {
    inner: Box<dyn StreamOp>,
    idx: usize,
    probe: Arc<RankProbe>,
}

impl TracedOp {
    pub fn wrap(ops: Vec<Box<dyn StreamOp>>, probe: &Arc<RankProbe>) -> Vec<Box<dyn StreamOp>> {
        ops.into_iter()
            .enumerate()
            .map(|(idx, inner)| {
                Box::new(TracedOp {
                    inner,
                    idx,
                    probe: Arc::clone(probe),
                }) as Box<dyn StreamOp>
            })
            .collect()
    }

    fn span(&self, phase: &str, start: u64, end: u64) {
        let m = self.probe.marks();
        let (root, step) = (m.root, m.step);
        drop(m);
        let name = format!("op.{}.{phase}", self.inner.name());
        self.probe.tracer.span(&name, root, step, start, end);
    }

    /// Close the shuffle window if this is the op's first call after
    /// `combine`.
    fn after_shuffle(&self, now: u64) {
        let mut m = self.probe.marks();
        let op = &mut m.ops[self.idx];
        if let Some(end) = op.combine_end.take() {
            op.shuffle_ns += now.saturating_sub(end);
            let (root, step) = (m.root, m.step);
            drop(m);
            let name = format!("op.{}.shuffle", self.inner.name());
            self.probe.tracer.span(&name, root, step, end, now);
        }
    }
}

impl StreamOp for TracedOp {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initialize(&mut self, agg: &Aggregates, ctx: &OpCtx) {
        let t0 = self.probe.tracer.now_ns();
        self.probe.marks().first_init.get_or_insert(t0);
        self.inner.initialize(agg, ctx);
        let t1 = self.probe.tracer.now_ns();
        self.probe.marks().last_init_end = t1;
        self.span("initialize", t0, t1);
    }

    fn mapper(&self) -> Arc<dyn ChunkMapper> {
        Arc::new(TracedMapper {
            inner: self.inner.mapper(),
            idx: self.idx,
            probe: Arc::clone(&self.probe),
            name: format!("op.{}.map_chunk", self.inner.name()),
        })
    }

    fn map(&mut self, chunk: &PackedChunk, ctx: &OpCtx) -> Vec<Tagged> {
        self.inner.map(chunk, ctx)
    }

    fn combine(&mut self, items: Vec<Tagged>) -> Vec<Tagged> {
        let t0 = self.probe.tracer.now_ns();
        self.probe.marks().first_combine.get_or_insert(t0);
        let out = self.inner.combine(items);
        let t1 = self.probe.tracer.now_ns();
        {
            let mut m = self.probe.marks();
            let op = &mut m.ops[self.idx];
            op.combine_ns += t1 - t0;
            op.combine_end = Some(t1);
        }
        self.span("combine", t0, t1);
        out
    }

    fn partition(&self, tag: u64, n_ranks: usize) -> usize {
        self.inner.partition(tag, n_ranks)
    }

    fn reduce(&mut self, tag: u64, items: Vec<bytes::Bytes>, ctx: &OpCtx) {
        let t0 = self.probe.tracer.now_ns();
        self.after_shuffle(t0);
        self.inner.reduce(tag, items, ctx);
        let t1 = self.probe.tracer.now_ns();
        self.probe.marks().ops[self.idx].reduce_ns += t1 - t0;
        self.span("reduce", t0, t1);
    }

    fn finalize(&mut self, ctx: &OpCtx) -> OpResult {
        let t0 = self.probe.tracer.now_ns();
        self.after_shuffle(t0);
        let out = self.inner.finalize(ctx);
        let t1 = self.probe.tracer.now_ns();
        {
            let mut m = self.probe.marks();
            m.ops[self.idx].finalize_ns += t1 - t0;
            m.last_finalize_end = m.last_finalize_end.max(t1);
        }
        self.span("finalize", t0, t1);
        out
    }
}

/// Decorator around an operator's per-chunk mapper (runs on the staging
/// rank's decode+map workers).
struct TracedMapper {
    inner: Arc<dyn ChunkMapper>,
    idx: usize,
    probe: Arc<RankProbe>,
    name: String,
}

impl ChunkMapper for TracedMapper {
    fn map_chunk(&self, chunk: &PackedChunk, ctx: &MapCtx) -> Vec<Tagged> {
        let tr = &self.probe.tracer;
        let t0 = tr.now_ns();
        let out = self.inner.map_chunk(chunk, ctx);
        let t1 = tr.now_ns();
        self.probe.map_ns[self.idx].fetch_add(t1 - t0, Ordering::Relaxed);
        self.probe.map_calls[self.idx].fetch_add(1, Ordering::Relaxed);
        let (root, step) = {
            let m = self.probe.marks();
            (m.root, m.step)
        };
        tr.span(&self.name, root, step, t0, t1);
        out
    }
}

/// Decorator around a staging rank's pull policy: `order` opens the map
/// phase.
pub struct TracedPolicy {
    pub inner: Box<dyn PullPolicy>,
    pub probe: Arc<RankProbe>,
}

impl PullPolicy for TracedPolicy {
    fn order(&mut self, pending: &mut Vec<FetchRequest>) {
        let t0 = self.probe.tracer.now_ns();
        self.inner.order(pending);
        let t1 = self.probe.tracer.now_ns();
        let (root, step) = {
            let mut m = self.probe.marks();
            m.order_start.get_or_insert(t0);
            m.order_ns += t1 - t0;
            (m.root, m.step)
        };
        self.probe.tracer.span("policy.order", root, step, t0, t1);
    }

    fn max_inflight(&self) -> usize {
        self.inner.max_inflight()
    }

    fn should_defer(&self) -> bool {
        self.inner.should_defer()
    }

    fn wait_ready(&self, timeout: Duration) -> bool {
        self.inner.wait_ready(timeout)
    }
}

/// Decorator around a compute-side first pass; accumulates the time the
/// client spends in `partial_calculate`.
pub struct TracedComputeOp {
    pub inner: Arc<dyn ComputeSideOp>,
    pub busy_ns: Arc<AtomicU64>,
}

impl ComputeSideOp for TracedComputeOp {
    fn partial_calculate(&self, pg: &bpio::ProcessGroup, out: &mut AttrList) {
        let t0 = Instant::now();
        self.inner.partial_calculate(pg, out);
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}
