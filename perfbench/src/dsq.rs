//! `ds_query_mix`: an open-loop DataSpaces writer (put + commit + evict
//! of one 2-D version per tick) beside closed-loop query readers served
//! by `QueryService`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpio::DataArray;
use dataspaces::{
    DataSpaces, DsConfig, QueryKind, QueryOutput, QueryService, QueryServiceConfig, Reduction,
    Region,
};

use crate::report::{cache_bytes, Report};
use crate::trace::Tracer;
use crate::workloads::Rng;

pub const VAR: &str = "field";
pub const DOMAIN: [u64; 2] = [512, 256];
pub const BLOCK: [u64; 2] = [64, 64];
pub const SHARDS: usize = 8;
/// Row stripes per version: one `put` each.
pub const STRIPES: u64 = 8;
/// Committed versions kept; older ones are evicted.
pub const KEEP: u64 = 4;
/// The writer stages one version every `PERIOD` (open loop).
pub const PERIOD: Duration = Duration::from_millis(25);
/// Query boxes: range reads and reductions.
pub const RANGE_BOX: [u64; 2] = [128, 128];
pub const REDUCE_BOX: [u64; 2] = [256, 256];

/// The generated data: `value(i, j, v) = a·i + b·j + c·v + s`, integers
/// small enough that every sum the readers ask for is exact in f64.
#[derive(Clone, Copy)]
pub struct Gen {
    a: u64,
    b: u64,
    c: u64,
    s: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Gen {
        let mut r = Rng::new(seed);
        Gen {
            a: 1 + r.below(8),
            b: 1 + r.below(8),
            c: 1 + r.below(4),
            s: r.below(100),
        }
    }

    pub fn value(&self, i: u64, j: u64, v: u64) -> f64 {
        (self.a * i + self.b * j + self.c * v + self.s) as f64
    }

    /// Closed-form sum over a box.
    fn sum(&self, r: &Region, v: u64) -> f64 {
        let (i0, j0, ni, nj) = (r.corner[0], r.corner[1], r.extent[0], r.extent[1]);
        let si = ni * (2 * i0 + ni - 1) / 2;
        let sj = nj * (2 * j0 + nj - 1) / 2;
        (ni * nj * (self.c * v + self.s) + self.a * nj * si + self.b * ni * sj) as f64
    }

    fn max(&self, r: &Region, v: u64) -> f64 {
        self.value(
            r.corner[0] + r.extent[0] - 1,
            r.corner[1] + r.extent[1] - 1,
            v,
        )
    }

    /// Stripe `k` of version `v`, row-major.
    pub fn stripe(&self, k: u64, v: u64) -> (Region, Vec<f64>) {
        let rows = DOMAIN[0] / STRIPES;
        let region = Region::new(vec![k * rows, 0], vec![rows, DOMAIN[1]]);
        let mut data = Vec::with_capacity((rows * DOMAIN[1]) as usize);
        for i in k * rows..(k + 1) * rows {
            for j in 0..DOMAIN[1] {
                data.push(self.value(i, j, v));
            }
        }
        (region, data)
    }
}

pub fn config() -> DsConfig {
    DsConfig::new(DOMAIN.to_vec(), BLOCK.to_vec(), SHARDS)
}

/// Stage version `v` (every stripe) and commit it.
pub fn stage(space: &DataSpaces, gen: &Gen, v: u64) -> Result<(), String> {
    for k in 0..STRIPES {
        let (region, data) = gen.stripe(k, v);
        space
            .put(VAR, v, &region, DataArray::F64(data))
            .map_err(|e| format!("put: {e}"))?;
    }
    space.commit(VAR, v);
    Ok(())
}

pub fn facts(r: &mut Report) {
    let version_bytes = DOMAIN[0] * DOMAIN[1] * 8;
    r.fact("input.domain", "512x256 f64");
    r.fact("input.block", "64x64");
    r.fact("input.shards", SHARDS);
    r.fact("input.version_bytes", version_bytes);
    r.fact("input.kept_versions", KEEP);
    r.fact("input.working_set_bytes", version_bytes * (KEEP + 1));
    if let Some(l2) = cache_bytes("2") {
        r.fact(
            "input.working_set_over_l2",
            format!("{:.1}", (version_bytes * (KEEP + 1)) as f64 / l2 as f64),
        );
    }
    r.fact("input.writer_period_ms", PERIOD.as_millis());
    r.fact(
        "input.writer_rate_mb_s",
        format!("{:.1}", version_bytes as f64 / 1e6 / PERIOD.as_secs_f64()),
    );
    r.fact("input.readers", 1);
    r.fact(
        "input.query_mix",
        "1/2 range 128x128, 1/4 sum 256x256, 1/4 max 256x256",
    );
}

/// The built space and service, with version 0 committed.
pub struct Rig {
    pub space: Arc<DataSpaces>,
    pub svc: QueryService,
    pub gen: Gen,
}

pub fn build(seed: u64) -> Rig {
    let space = Arc::new(DataSpaces::new(config()));
    let gen = Gen::new(seed);
    stage(&space, &gen, 0).expect("version 0 stages");
    let svc = QueryService::new(Arc::clone(&space), QueryServiceConfig::default());
    Rig { space, svc, gen }
}

/// Everything one measured session produced.
#[derive(Default)]
pub struct SessionOut {
    pub setup_s: f64,
    pub window_s: f64,
    pub versions: u64,
    /// Per timed version: (seconds from the window start to its commit,
    /// bytes put).
    pub version_marks: Vec<(f64, f64)>,
    /// Per timed query: (seconds from the window start to its answer, 1).
    pub query_marks: Vec<(f64, f64)>,
    /// Per timed range query: (bytes returned, seconds).
    pub range_samples: Vec<(f64, f64)>,
    pub write_us: Vec<f64>,
    pub commit_us: Vec<f64>,
    pub evict_ms: Vec<f64>,
    pub step_ms: Vec<f64>,
    pub put_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub backlog: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub wait_ms: Vec<f64>,
    pub blocks: u64,
    pub queries: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub deadline_missed: u64,
    pub shard_contended: u64,
}

/// One reader query, chosen from the mix.
fn pick(rng: &mut Rng) -> QueryKind {
    let corner = |ext: [u64; 2], rng: &mut Rng| {
        vec![
            rng.below(DOMAIN[0] - ext[0] + 1),
            rng.below(DOMAIN[1] - ext[1] + 1),
        ]
    };
    match rng.below(4) {
        0 | 1 => QueryKind::Range(Region::new(corner(RANGE_BOX, rng), RANGE_BOX.to_vec())),
        2 => QueryKind::Reduce(
            Region::new(corner(REDUCE_BOX, rng), REDUCE_BOX.to_vec()),
            Reduction::Sum,
        ),
        _ => QueryKind::Reduce(
            Region::new(corner(REDUCE_BOX, rng), REDUCE_BOX.to_vec()),
            Reduction::Max,
        ),
    }
}

/// Compare a response with the closed form of version `v`.
fn check(gen: &Gen, kind: &QueryKind, v: u64, out: &QueryOutput) -> Result<(), String> {
    match (kind, out) {
        (QueryKind::Range(r), QueryOutput::Data(d)) => {
            let got = d.as_f64().ok_or("range result is not f64")?;
            if got.len() as u64 != r.volume() {
                return Err(format!(
                    "range returned {} of {} elements",
                    got.len(),
                    r.volume()
                ));
            }
            let mut n = 0;
            for i in r.corner[0]..r.corner[0] + r.extent[0] {
                for j in r.corner[1]..r.corner[1] + r.extent[1] {
                    if got[n] != gen.value(i, j, v) {
                        return Err(format!("range value at ({i},{j}) of version {v} differs"));
                    }
                    n += 1;
                }
            }
            Ok(())
        }
        (QueryKind::Reduce(r, how), QueryOutput::Value(x)) => {
            let want = match how {
                Reduction::Sum => gen.sum(r, v),
                _ => gen.max(r, v),
            };
            if *x != want {
                return Err(format!("{how:?} of version {v} = {x}, expected {want}"));
            }
            Ok(())
        }
        _ => Err("query answered with the wrong kind of output".into()),
    }
}

fn counter(name: &str) -> u64 {
    obs::global().snapshot().counter(name, &[]).unwrap_or(0)
}

/// Build, warm up for `warm`, then measure for `measure`.
pub fn session(
    seed: u64,
    warm: Duration,
    measure: Duration,
    tracer: Option<Arc<Tracer>>,
) -> SessionOut {
    let t0 = Instant::now();
    let rig = build(seed);
    let mut out = SessionOut {
        setup_s: t0.elapsed().as_secs_f64(),
        ..SessionOut::default()
    };
    let Rig { space, svc, gen } = &rig;
    let cfg = config();
    let published = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let begun = Instant::now();
    let window = (begun + warm, begun + warm + measure);
    let (missed0, contended0) = (
        counter("dataspaces.query_deadline_missed"),
        counter("dataspaces.shard_contended"),
    );

    let (w, r) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut w = SessionOut::default();
            let mut v = 1u64;
            let mut next: Vec<(Region, Vec<f64>)> =
                (0..STRIPES).map(|k| gen.stripe(k, v)).collect();
            loop {
                let due = begun + PERIOD * (v - 1) as u32;
                if due >= window.1 {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let start = Instant::now();
                let timed = due >= window.0;
                let mut failed = false;
                let mut bytes = 0u64;
                for (region, data) in next.drain(..) {
                    let t = Instant::now();
                    w.attempted += 1;
                    let res = space.put(VAR, v, &region, DataArray::F64(data));
                    let dt = t.elapsed();
                    if let Some(tr) = &tracer {
                        tr.span("ds.put", 0, v, tr.ns(t), tr.ns(t + dt));
                    }
                    if let Err(e) = res {
                        w.errors.push(format!("put: {e}"));
                        w.failed += 1;
                        failed = true;
                    }
                    if timed {
                        w.write_us.push(dt.as_secs_f64() * 1e6);
                    }
                    bytes += region.volume() * 8;
                }
                let tc = Instant::now();
                space.commit(VAR, v);
                let committed = Instant::now();
                if !failed {
                    published.store(v, Ordering::SeqCst);
                }
                let keep_from = (v + 1).saturating_sub(KEEP);
                space.evict_before(VAR, keep_from);
                let evicted = Instant::now();
                if let Some(tr) = &tracer {
                    tr.span("ds.commit", 0, v, tr.ns(tc), tr.ns(committed));
                    tr.span("ds.evict", 0, v, tr.ns(committed), tr.ns(evicted));
                }
                w.attempted += 1;
                if timed {
                    w.versions += 1;
                    w.version_marks
                        .push(((committed - window.0).as_secs_f64(), bytes as f64));
                    w.commit_us.push((committed - tc).as_secs_f64() * 1e6);
                    w.evict_ms.push((evicted - committed).as_secs_f64() * 1e3);
                    w.step_ms.push((committed - start).as_secs_f64() * 1e3);
                    w.put_ms.push((committed - due).as_secs_f64() * 1e3);
                    w.late_ms.push((start - due).as_secs_f64() * 1e3);
                    w.backlog.push(svc.backlog() as f64);
                }
                v += 1;
                next = (0..STRIPES).map(|k| gen.stripe(k, v)).collect();
            }
            stop.store(true, Ordering::SeqCst);
            w
        });
        // The reader: a closed loop, without think time, on the latest
        // committed version. The service's workers then keep both cores
        // busy, so a put is preempted for a scheduler time slice rather
        // than for however long a query happened to overlap it.
        let mut r = SessionOut::default();
        let mut rng = Rng::new(seed.wrapping_mul(0x9E37).wrapping_add(1));
        while !stop.load(Ordering::SeqCst) {
            let v = published.load(Ordering::SeqCst);
            let kind = pick(&mut rng);
            let t = Instant::now();
            let timed = t >= window.0 && t < window.1;
            let res = match &tracer {
                None => svc.query(VAR, v, kind.clone()),
                Some(tr) => {
                    let sub = svc.submit(VAR, v, kind.clone());
                    let ts = Instant::now();
                    let id = sub.as_ref().map_or(0, |ticket| ticket.id());
                    let res = sub.and_then(|ticket| ticket.wait(PERIOD * 250));
                    let te = Instant::now();
                    tr.span("ds.submit", 0, id, tr.ns(t), tr.ns(ts));
                    tr.span("ds.wait", 0, id, tr.ns(ts), tr.ns(te));
                    if timed {
                        r.submit_us.push((ts - t).as_secs_f64() * 1e6);
                        r.wait_ms.push((te - ts).as_secs_f64() * 1e3);
                    }
                    res
                }
            };
            let dt = t.elapsed();
            r.attempted += 1;
            let verdict = res
                .map_err(|e| format!("query: {e}"))
                .and_then(|resp| check(gen, &kind, v, &resp.output));
            if let Err(e) = verdict {
                r.failed += 1;
                r.errors.push(e);
            }
            if timed {
                r.queries += 1;
                r.query_ms.push(dt.as_secs_f64() * 1e3);
                r.query_marks.push(((t + dt - window.0).as_secs_f64(), 1.0));
                let region = match &kind {
                    QueryKind::Range(reg) => {
                        r.range_samples
                            .push(((reg.volume() * 8) as f64, dt.as_secs_f64()));
                        reg
                    }
                    QueryKind::Reduce(reg, _) => reg,
                };
                r.blocks += cfg.blocks_of(region).len() as u64;
            }
        }
        (writer.join().expect("writer thread"), r)
    });
    out.window_s = measure.as_secs_f64();
    out.deadline_missed = counter("dataspaces.query_deadline_missed") - missed0;
    out.shard_contended = counter("dataspaces.shard_contended") - contended0;
    out.versions = w.versions;
    out.version_marks = w.version_marks;
    out.query_marks = r.query_marks;
    out.range_samples = r.range_samples;
    out.write_us = w.write_us;
    out.commit_us = w.commit_us;
    out.evict_ms = w.evict_ms;
    out.step_ms = w.step_ms;
    out.put_ms = w.put_ms;
    out.late_ms = w.late_ms;
    out.backlog = w.backlog;
    out.query_ms = r.query_ms;
    out.submit_us = r.submit_us;
    out.wait_ms = r.wait_ms;
    out.blocks = r.blocks;
    out.queries = r.queries;
    out.attempted = w.attempted + r.attempted;
    out.failed = w.failed + r.failed;
    out.errors = w.errors;
    out.errors.extend(r.errors);
    rig.svc.shutdown();
    out
}
