//! The staging harness shared by `gtc_sort_hist` and `small_chunk_fanin`.
//!
//! One process, at most `nproc` load-generator threads: the simulation
//! (every compute rank's closed loop, on the calling thread) and one
//! consumer that reads each finished step's outputs back, checks them and
//! deletes them. The two staging ranks are driven directly — one thread
//! each calls `StagingRank::run_step(s)` in a loop — so every step is
//! timed per rank and `World::stats()` is at hand.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bpio::{BpReader, DataArray, ProcessGroup};
use minimpi::World;
use predata_core::op::{ComputeSideOp, StreamOp};
use predata_core::staging::{StagingConfig, StagingRank};
use predata_core::{PredataClient, StepReport};
use transport::{BlockRouter, Fabric, FifoPolicy, PullPolicy, Router};

use crate::trace::{RankProbe, StepBreakdown, TracedComputeOp, TracedOp, TracedPolicy, Tracer};

/// Staging ranks of every staging workload.
pub const N_STAGING: usize = 2;
/// How far (in steps) the simulation may run ahead of the consumer, so
/// unread output files never pile up.
const CONSUMER_LAG: u64 = 3;
/// Upper bound on any single blocking wait of the harness.
const WAIT: Duration = Duration::from_secs(30);

/// One staging workload: its inputs, operators and output checks.
pub trait Workload: Sync {
    fn n_compute(&self) -> usize;
    /// The staging-side operators (fresh per rank).
    fn stream_ops(&self) -> Vec<Box<dyn StreamOp>>;
    /// The compute-side first passes each client runs.
    fn compute_ops(&self) -> Vec<Arc<dyn ComputeSideOp>>;
    /// Pre-generated process groups: `snapshots()[k][rank]`. Step `s`
    /// dumps snapshot `s % len`.
    fn snapshots(&self) -> &[Vec<ProcessGroup>];
    /// Read step `step`'s outputs back, recording every read in `rd`,
    /// and check them and the reports. The harness deletes the files.
    fn consume(&self, step: u64, reports: &[StepReport], rd: &mut Reads) -> Result<(), String>;
}

/// The consumer's reads of one or more steps.
#[derive(Default)]
pub struct Reads {
    pub tracer: Option<Arc<Tracer>>,
    pub step: u64,
    /// Per read call, milliseconds.
    pub query_ms: Vec<f64>,
    /// Per read call, (bytes read, seconds).
    pub samples: Vec<(f64, f64)>,
    pub open_us: Vec<f64>,
    /// `ReadStats` totals over the reads, and the bytes the boxes held.
    pub reads: u64,
    pub stat_bytes: u64,
    pub box_bytes: u64,
    pub errors: u64,
}

impl Reads {
    fn merge(&mut self, o: Reads) {
        self.query_ms.extend(o.query_ms);
        self.samples.extend(o.samples);
        self.open_us.extend(o.open_us);
        self.reads += o.reads;
        self.stat_bytes += o.stat_bytes;
        self.box_bytes += o.box_bytes;
        self.errors += o.errors;
    }

    fn span(&self, name: &str, t0: Instant, t1: Instant) {
        if let Some(tr) = &self.tracer {
            tr.span(name, 0, self.step, tr.ns(t0), tr.ns(t1));
        }
    }

    pub fn open(&mut self, path: &Path) -> Result<BpReader, String> {
        let t0 = Instant::now();
        let r = BpReader::open(path).map_err(|e| format!("open {}: {e}", path.display()));
        let t1 = Instant::now();
        self.open_us.push((t1 - t0).as_secs_f64() * 1e6);
        self.span("consumer.open", t0, t1);
        r
    }

    /// One `read_box` query.
    pub fn read_box(
        &mut self,
        r: &mut BpReader,
        var: &str,
        step: u64,
        corner: &[u64],
        extent: &[u64],
    ) -> Result<DataArray, String> {
        r.take_stats();
        let t0 = Instant::now();
        let out = r
            .read_box(var, step, corner, extent)
            .map_err(|e| format!("read_box {var}: {e}"));
        let t1 = Instant::now();
        self.finish_read(r, t0, t1, "consumer.read_box");
        let out = out?;
        self.box_bytes += out.byte_len() as u64;
        Ok(out)
    }

    /// One `read_local` query.
    pub fn read_local(
        &mut self,
        r: &mut BpReader,
        var: &str,
        step: u64,
        writer: u64,
    ) -> Result<DataArray, String> {
        r.take_stats();
        let t0 = Instant::now();
        let out = r
            .read_local(var, step, writer)
            .map_err(|e| format!("read_local {var}: {e}"));
        let t1 = Instant::now();
        self.finish_read(r, t0, t1, "consumer.read_local");
        let out = out?;
        self.box_bytes += out.byte_len() as u64;
        Ok(out)
    }

    fn finish_read(&mut self, r: &mut BpReader, t0: Instant, t1: Instant, name: &str) {
        let st = r.take_stats();
        let dt = t1 - t0;
        self.query_ms.push(dt.as_secs_f64() * 1e3);
        self.samples.push((st.bytes as f64, dt.as_secs_f64()));
        self.reads += st.reads;
        self.stat_bytes += st.bytes;
        self.span(name, t0, t1);
    }
}

/// Everything one measured session produced.
#[derive(Default)]
pub struct SessionOut {
    pub setup_s: f64,
    pub steps_timed: u64,
    pub window_s: f64,
    pub dump_bytes: u64,
    /// Per timed step, in order: (seconds from the first timed write to
    /// the step completing on every rank, dump bytes, consumer reads).
    pub step_marks: Vec<(f64, f64, f64)>,
    pub write_us: Vec<f64>,
    pub partial_us: Vec<f64>,
    pub drain_ms: Vec<f64>,
    pub put_ms: Vec<f64>,
    pub step_ms: Vec<f64>,
    pub skew_ms: Vec<f64>,
    pub reads: Reads,
    pub written_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub breakdowns: Vec<StepBreakdown>,
    pub chunks: u64,
    pub truncated: u64,
    pub rdma_gets: u64,
    pub bytes_pulled: u64,
    pub requests: u64,
    pub request_bytes: u64,
    pub peak_pinned: u64,
    pub messages: u64,
    pub mpi_bytes: u64,
    pub collectives: u64,
    pub retries: u64,
}

/// Built middleware for one session.
struct Rig {
    fabric: Fabric,
    world: Arc<World>,
    ranks: Vec<StagingRank>,
    clients: Vec<PredataClient>,
    probes: Vec<Arc<RankProbe>>,
    partial_ns: Arc<AtomicU64>,
}

fn build_rig(wl: &dyn Workload, dir: &Path, tracer: Option<&Arc<Tracer>>) -> Rig {
    let n = wl.n_compute();
    let (fabric, computes, stagings) = Fabric::with_faults(n, N_STAGING, None, None);
    let router: Arc<dyn Router> = Arc::new(BlockRouter::new(n, N_STAGING));
    let (world, comms) = World::with_size(N_STAGING);
    let mut probes = Vec::new();
    let ranks = comms
        .into_iter()
        .zip(stagings)
        .map(|(comm, endpoint)| {
            let mut ops = wl.stream_ops();
            let mut policy: Box<dyn PullPolicy> = Box::new(FifoPolicy::default());
            if let Some(tr) = tracer {
                let probe = RankProbe::new(Arc::clone(tr), ops.len());
                ops = TracedOp::wrap(ops, &probe);
                policy = Box::new(TracedPolicy {
                    inner: policy,
                    probe: Arc::clone(&probe),
                });
                probes.push(probe);
            }
            StagingRank::new(
                comm,
                endpoint,
                Arc::clone(&router),
                policy,
                ops,
                StagingConfig::new(n, dir),
            )
            .expect("staging rank starts")
        })
        .collect();
    let partial_ns = Arc::new(AtomicU64::new(0));
    let clients = computes
        .into_iter()
        .map(|e| {
            let mut ops = wl.compute_ops();
            if tracer.is_some() {
                ops = ops
                    .into_iter()
                    .map(|inner| {
                        Arc::new(TracedComputeOp {
                            inner,
                            busy_ns: Arc::clone(&partial_ns),
                        }) as Arc<dyn ComputeSideOp>
                    })
                    .collect();
            }
            PredataClient::new(e, Arc::clone(&router), ops)
        })
        .collect();
    Rig {
        fabric,
        world,
        ranks,
        clients,
        probes,
        partial_ns,
    }
}

/// Time `build` (inputs) plus the middleware set-up of one session.
pub fn timed_setup<W: Workload>(build: &dyn Fn() -> W, dir: &Path) -> f64 {
    let t0 = Instant::now();
    let wl = build();
    let rig = build_rig(&wl, dir, None);
    let s = t0.elapsed().as_secs_f64();
    drop(rig);
    s
}

/// A rank's report of one finished `run_step`.
struct RankDone {
    rank: usize,
    step: u64,
    ret: Instant,
    report: Result<StepReport, String>,
    breakdown: Option<StepBreakdown>,
}

fn retries() -> u64 {
    let snap = obs::global().snapshot();
    ["pull", "recv", "collective", "query", "put"]
        .iter()
        .map(|op| {
            snap.counter("transport.retries", &[("op", op)])
                .unwrap_or(0)
        })
        .sum()
}

/// Build a rig from `build`, warm up for `warm`, then measure for
/// `measure`. Spans and per-step breakdowns are recorded when `tracer`
/// is given.
pub fn session<W: Workload>(
    build: &dyn Fn() -> W,
    dir: &Path,
    warm: Duration,
    measure: Duration,
    tracer: Option<Arc<Tracer>>,
) -> SessionOut {
    let t0 = Instant::now();
    let wl = build();
    let rig = build_rig(&wl, dir, tracer.as_ref());
    let mut out = SessionOut {
        setup_s: t0.elapsed().as_secs_f64(),
        ..SessionOut::default()
    };
    let Rig {
        fabric,
        world,
        ranks,
        clients,
        probes,
        partial_ns,
    } = rig;
    let n_ranks = ranks.len();
    let snaps = wl.snapshots();

    let stop_at = AtomicU64::new(u64::MAX);
    let abort = AtomicBool::new(false);
    let first_timed = AtomicU64::new(u64::MAX);
    let starts: Mutex<BTreeMap<u64, Instant>> = Mutex::new(BTreeMap::new());
    let consumed = (Mutex::new(0u64), Condvar::new());
    let (tx, rx) = mpsc::channel::<RankDone>();

    let mut window_start: Option<Instant> = None;
    let mut base = [0u64; 8];
    let stat_now = |fabric: &Fabric, world: &World| {
        let (fs, ws) = (fabric.stats(), world.stats());
        [
            fs.rdma_gets(),
            fs.bytes_pulled(),
            fs.requests_sent(),
            fs.request_bytes(),
            ws.messages(),
            ws.bytes(),
            ws.collective_calls(),
            retries(),
        ]
    };

    let consumer_out = std::thread::scope(|s| {
        for (rank, (mut sr, probe)) in ranks
            .into_iter()
            .zip(probes.iter().map(Some).chain(std::iter::repeat(None)))
            .enumerate()
        {
            let tx = tx.clone();
            let (stop_at, abort, tracer) = (&stop_at, &abort, &tracer);
            s.spawn(move || {
                let mut step = 0u64;
                while step <= stop_at.load(Ordering::SeqCst) && !abort.load(Ordering::SeqCst) {
                    let root = tracer.as_ref().map_or(0, |t| t.reserve());
                    let entry = Instant::now();
                    if let Some(p) = probe {
                        p.begin(step, root, entry);
                    }
                    let report = sr.run_step(step).map_err(|e| format!("run_step: {e}"));
                    let ret = Instant::now();
                    let breakdown = probe.map(|p| p.end(ret));
                    if let Some(tr) = tracer {
                        tr.span_with_id(
                            root,
                            "staging.run_step",
                            0,
                            step,
                            tr.ns(entry),
                            tr.ns(ret),
                        );
                    }
                    let failed = report.is_err();
                    let _ = tx.send(RankDone {
                        rank,
                        step,
                        ret,
                        report,
                        breakdown,
                    });
                    if failed {
                        abort.store(true, Ordering::SeqCst);
                        break;
                    }
                    step += 1;
                }
            });
        }
        drop(tx);

        // The consumer: completes steps, reads outputs back, checks them,
        // deletes them.
        let consumer = {
            let (wl, starts, consumed, first_timed, abort, tracer) =
                (&wl, &starts, &consumed, &first_timed, &abort, &tracer);
            s.spawn(move || {
                let mut c = SessionOut::default();
                let mut pending: BTreeMap<u64, Vec<RankDone>> = BTreeMap::new();
                // Timed steps: (step, completed on every rank, reads).
                let mut completed: Vec<(u64, Instant, f64)> = Vec::new();
                for done in rx {
                    let step = done.step;
                    let entry = pending.entry(step).or_default();
                    entry.push(done);
                    if entry.len() < n_ranks {
                        continue;
                    }
                    let mut dones = pending.remove(&step).expect("step present");
                    dones.sort_by_key(|d| d.rank);
                    let timed = step >= first_timed.load(Ordering::SeqCst);
                    let last = dones.iter().map(|d| d.ret).max().expect("ranks");
                    let first = dones.iter().map(|d| d.ret).min().expect("ranks");
                    let started = starts.lock().expect("starts").remove(&step);
                    let mut rd = Reads {
                        tracer: tracer.clone(),
                        step,
                        ..Reads::default()
                    };
                    c.attempted += 1;
                    let mut reports = Vec::new();
                    let mut step_failed = false;
                    for d in dones {
                        match d.report {
                            Ok(r) => reports.push(r),
                            Err(e) => {
                                c.errors.push(e);
                                step_failed = true;
                            }
                        }
                        if let Some(b) = d.breakdown {
                            if timed {
                                c.breakdowns.push(b);
                            }
                        }
                    }
                    if !step_failed {
                        let chunks: usize = reports.iter().map(|r| r.chunks).sum();
                        let truncated: usize = reports.iter().map(|r| r.truncated.len()).sum();
                        if chunks != wl.n_compute() || truncated > 0 {
                            c.errors.push(format!(
                                "step {step}: {chunks} chunks, {truncated} truncated"
                            ));
                            step_failed = true;
                        } else if let Err(e) = wl.consume(step, &reports, &mut rd) {
                            c.errors.push(format!("step {step}: {e}"));
                            step_failed = true;
                        }
                    }
                    let mut written = 0u64;
                    for r in &reports {
                        for f in r.results.iter().flat_map(|res| &res.files) {
                            written += std::fs::metadata(f).map_or(0, |m| m.len());
                            let _ = std::fs::remove_file(f);
                        }
                    }
                    c.attempted += rd.query_ms.len() as u64;
                    c.failed += rd.errors;
                    if step_failed {
                        c.failed += 1;
                        abort.store(true, Ordering::SeqCst);
                    }
                    if timed {
                        c.steps_timed += 1;
                        if let Some(t) = started {
                            c.step_ms.push((last - t).as_secs_f64() * 1e3);
                        }
                        c.skew_ms.push((last - first).as_secs_f64() * 1e3);
                        c.chunks += reports.iter().map(|r| r.chunks as u64).sum::<u64>();
                        c.truncated += reports
                            .iter()
                            .map(|r| r.truncated.len() as u64)
                            .sum::<u64>();
                        c.written_bytes += written;
                        completed.push((step, last, rd.query_ms.len() as f64));
                        c.reads.merge(rd);
                    }
                    let (lock, cv) = consumed;
                    *lock.lock().expect("consumed") = step + 1;
                    cv.notify_all();
                }
                (c, completed)
            })
        };

        // The simulation: every compute rank's closed loop.
        let begun = Instant::now();
        let mut step = 0u64;
        let mut sim_failed = 0u64;
        let mut attempted_writes = 0u64;
        let mut step_bytes: BTreeMap<u64, f64> = BTreeMap::new();
        'steps: loop {
            {
                let (lock, cv) = &consumed;
                let mut done = lock.lock().expect("consumed");
                while *done + CONSUMER_LAG < step && !abort.load(Ordering::SeqCst) {
                    done = cv.wait_timeout(done, WAIT).expect("consumed").0;
                }
            }
            if window_start.is_none() && begun.elapsed() >= warm && step >= 8 {
                first_timed.store(step, Ordering::SeqCst);
                base = stat_now(&fabric, &world);
            }
            let timed = first_timed.load(Ordering::SeqCst) <= step;
            let is_last = abort.load(Ordering::SeqCst)
                || window_start.is_some_and(|t| t.elapsed() >= measure);
            if is_last {
                stop_at.store(step, Ordering::SeqCst);
            }
            let snap = &snaps[(step % snaps.len() as u64) as usize];
            let (mut drain, mut blocked) = (0.0f64, 0.0f64);
            for (r, client) in clients.iter().enumerate() {
                let t0 = Instant::now();
                attempted_writes += 1;
                if let Err(e) = client.wait_drained(WAIT) {
                    out.errors.push(format!("wait_drained: {e}"));
                    sim_failed += 1;
                    abort.store(true, Ordering::SeqCst);
                    stop_at.store(step.saturating_sub(1), Ordering::SeqCst);
                    break 'steps;
                }
                let d = t0.elapsed();
                let mut pg = snap[r].clone();
                pg.step = step;
                let partial0 = partial_ns.load(Ordering::Relaxed);
                let t1 = Instant::now();
                if r == 0 {
                    starts.lock().expect("starts").insert(step, t1);
                    if timed && window_start.is_none() {
                        window_start = Some(t1);
                    }
                }
                let receipt = client.write_pg(pg);
                let w = t1.elapsed();
                if let Some(tr) = &tracer {
                    tr.span("client.wait_drained", 0, step, tr.ns(t0), tr.ns(t0 + d));
                    tr.span("client.write_pg", 0, step, tr.ns(t1), tr.ns(t1 + w));
                }
                match receipt {
                    Ok(rc) => {
                        if timed {
                            out.dump_bytes += rc.bytes as u64;
                            *step_bytes.entry(step).or_default() += rc.bytes as f64;
                            out.write_us.push(w.as_secs_f64() * 1e6);
                            let p = partial_ns.load(Ordering::Relaxed) - partial0;
                            out.partial_us.push(p as f64 / 1e3);
                        }
                    }
                    Err(e) => {
                        out.errors.push(format!("write_pg: {e}"));
                        sim_failed += 1;
                        abort.store(true, Ordering::SeqCst);
                        stop_at.store(step.saturating_sub(1), Ordering::SeqCst);
                        break 'steps;
                    }
                }
                drain += d.as_secs_f64();
                blocked += (d + w).as_secs_f64();
            }
            if timed {
                out.drain_ms.push(drain * 1e3);
                out.put_ms.push(blocked * 1e3);
            }
            if is_last {
                break;
            }
            step += 1;
        }
        // Buffers are reused only after the last dump drained.
        if !abort.load(Ordering::SeqCst) {
            for c in &clients {
                let _ = c.wait_drained(WAIT);
            }
        }
        out.attempted += attempted_writes;
        out.failed += sim_failed;
        let (c, done) = consumer.join().expect("consumer thread");
        (c, done, step_bytes)
    });

    let (c, done, step_bytes) = consumer_out;
    if let Some(t0) = window_start {
        out.step_marks = done
            .iter()
            .map(|&(step, t, reads)| {
                let bytes = step_bytes.get(&step).copied().unwrap_or(0.0);
                ((t - t0).as_secs_f64(), bytes, reads)
            })
            .collect();
    }
    let last_done = done.last().map(|d| d.1);
    let now = stat_now(&fabric, &world);
    let d: Vec<u64> = now.iter().zip(base).map(|(a, b)| a - b).collect();
    out.rdma_gets = d[0];
    out.bytes_pulled = d[1];
    out.requests = d[2];
    out.request_bytes = d[3];
    out.messages = d[4];
    out.mpi_bytes = d[5];
    out.collectives = d[6];
    out.retries = d[7];
    out.peak_pinned = fabric.stats().peak_pinned_bytes() as u64;
    if let (Some(t0), Some(t1)) = (window_start, last_done) {
        out.window_s = (t1 - t0).as_secs_f64();
    }
    out.steps_timed = c.steps_timed;
    out.step_ms = c.step_ms;
    out.skew_ms = c.skew_ms;
    out.reads = c.reads;
    out.written_bytes = c.written_bytes;
    out.attempted += c.attempted;
    out.failed += c.failed;
    out.errors.extend(c.errors);
    out.breakdowns = c.breakdowns;
    out.chunks = c.chunks;
    out.truncated = c.truncated;
    out
}

/// A fresh, empty output directory for one session.
pub fn session_dir(root: &Path, tag: &str) -> PathBuf {
    let d = root.join(tag);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create session dir");
    d
}
