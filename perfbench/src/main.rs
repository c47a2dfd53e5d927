//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! Drives one workload through the middleware's public API from this
//! process, checks every output, and prints the metrics table, the run's
//! facts, and — as the last line of standard output — one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics of an untraced run; `--trace 1` reports
//! the per-layer metrics of a separate traced run and writes its spans
//! to `.perfbench/trace-<workload>-seed<n>.jsonl`. See `perfbench/README.md`.

mod dsq;
mod pipeline;
mod probes;
mod report;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use pipeline::{SessionOut, Workload};
use report::{mean, median, quantile, tail_q, windowed_rate, windowed_ratio, Report};
use trace::Tracer;
use workloads::{GtcSortHist, SmallChunkFanin};

pub const WORKLOADS: [&str; 3] = ["gtc_sort_hist", "small_chunk_fanin", "ds_query_mix"];

/// Every end-to-end metric, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 15] = [
    ("setup_s", "s"),
    ("dump_mb_s", "MB/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p95", "ms"),
    ("write_us_p50", "us"),
    ("write_us_p99", "us"),
    ("drain_ms_p50", "ms"),
    ("read_mb_s", "MB/s"),
    ("queries_per_s", "q/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p95", "ms"),
    ("put_ms_p50", "ms"),
    ("put_ms_p95", "ms"),
    ("failed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Operators with per-op metrics: metric name, `StreamOp::name()`.
const OPS: [(&str, &str); 5] = [
    ("sort", "sort"),
    ("histogram", "histogram"),
    ("histogram2d", "histogram2d"),
    ("bitmap", "bitmap_index"),
    ("moments", "moments"),
];

/// Every per-layer metric, reported by every traced run (0 where the
/// workload does not reach the layer).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("client.partial_calc_us", "us"),
        ("client.pack_send_us", "us"),
        ("ffs.pack_mb_s", "MB/s"),
        ("ffs.unpack_mb_s", "MB/s"),
        ("ffs.chunk_kb", "KB"),
        ("transport.rdma_gets_per_step", "count"),
        ("transport.gets_per_chunk", "count"),
        ("transport.mb_pulled_per_step", "MB"),
        ("transport.request_bytes_per_chunk", "B"),
        ("transport.retries", "count"),
        ("transport.peak_pinned_mb", "MB"),
        ("transport.policy_order_us", "us"),
        ("transport.rdma_get_us_p50", "us"),
        ("transport.get_mb_s", "MB/s"),
        ("minimpi.messages_per_step", "count"),
        ("minimpi.mb_per_step", "MB"),
        ("minimpi.collectives_per_step", "count"),
        ("minimpi.shuffle_ms", "ms"),
        ("minimpi.alltoallv_ms", "ms"),
        ("minimpi.allgather_us", "us"),
        ("staging.run_step_ms", "ms"),
        ("staging.gather_agg_ms", "ms"),
        ("staging.init_ms", "ms"),
        ("staging.map_phase_ms", "ms"),
        ("staging.tail_ms", "ms"),
        ("staging.unattributed_ms", "ms"),
        ("staging.rank_skew_ms", "ms"),
        ("staging.map_busy_frac", "ratio"),
        ("staging.chunks_per_step", "count"),
        ("staging.truncated_chunks", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for (op, _) in OPS {
        v.push((format!("ops.{op}.map_us"), "us"));
        v.push((format!("ops.{op}.reduce_ms"), "ms"));
        v.push((format!("ops.{op}.finalize_ms"), "ms"));
    }
    v.extend(
        [
            ("ops.combine_ms", "ms"),
            ("bpio.mb_written_per_step", "MB"),
            ("bpio.open_us", "us"),
            ("bpio.read_box_ms_p50", "ms"),
            ("bpio.reads_per_box", "count"),
            ("bpio.read_amplification", "ratio"),
            ("bpio.write_mb_s", "MB/s"),
            ("bpio.copy_box_mb_s", "MB/s"),
            ("ds.put_ms", "ms"),
            ("ds.commit_us", "us"),
            ("ds.evict_us", "us"),
            ("ds.submit_us", "us"),
            ("ds.wait_ms", "ms"),
            ("ds.backlog_p95", "count"),
            ("ds.blocks_per_query", "count"),
            ("ds.deadline_missed", "count"),
            ("ds.shard_contended", "count"),
            ("ds.scan_ns_per_elem", "ns"),
            ("ds.reduce_ns_per_elem", "ns"),
            ("ds.put_ns_per_elem", "ns"),
            ("bench.writer_late_ms_p95", "ms"),
            ("bench.trace_overhead_frac", "ratio"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    v
}

/// Warm-up before timing starts, per session.
const WARM: Duration = Duration::from_secs(2);
/// Extra set-ups per untraced run, beside the measured session's own;
/// `setup_s` is the median of all of them.
const EXTRA_SETUPS: usize = 8;
/// No run may outlive this; the watchdog ends a hung run without a
/// result.
const RUN_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return Ok(None);
    }
    let get = |flag: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Some(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    }))
}

/// The outcome of one run.
struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// The fixed denominator of `failed_frac`.
const NOMINAL_ATTEMPTS: f64 = 10_000.0;

/// (failed + 1) ÷ a fixed nominal attempt count: never 0, the same on
/// every clean run whatever its speed, and raised by every failure.
fn failed_frac(failed: u64) -> f64 {
    (failed + 1) as f64 / NOMINAL_ATTEMPTS
}

fn record_defaults(r: &mut Report) {
    let q = dataspaces::QueryServiceConfig::default();
    r.fact("default.map_workers", predata_core::staging::map_workers());
    r.fact("default.pull_policy", "FifoPolicy inflight=4");
    r.fact("default.query_workers", q.workers);
    r.fact("default.query_queue_cap", q.queue_cap);
    r.fact("default.query_bands", q.bands);
    r.fact("default.query_deadline_ms", q.default_deadline.as_millis());
    r.fact("default.obs_spans", obs::enabled());
}

fn staging_e2e(r: &mut Report, o: &SessionOut) {
    let marks = |f: fn(&(f64, f64, f64)) -> f64| -> Vec<(f64, f64)> {
        o.step_marks.iter().map(|m| (m.0, f(m))).collect()
    };
    r.metric(
        "dump_mb_s",
        windowed_rate(&marks(|m| m.1), 0.0) / 1e6,
        "MB/s",
    );
    r.p50("step_ms_p50", &o.step_ms, "ms");
    r.tail("step_ms_p95", &o.step_ms, 0.95, "ms");
    r.p50("write_us_p50", &o.write_us, "us");
    r.tail("write_us_p99", &o.write_us, 0.99, "us");
    r.p50("drain_ms_p50", &o.drain_ms, "ms");
    let rd = &o.reads;
    r.metric("read_mb_s", windowed_ratio(&rd.samples) / 1e6, "MB/s");
    r.metric("queries_per_s", windowed_rate(&marks(|m| m.2), 0.0), "q/s");
    r.p50("query_ms_p50", &rd.query_ms, "ms");
    r.tail("query_ms_p95", &rd.query_ms, 0.95, "ms");
    r.p50("put_ms_p50", &o.put_ms, "ms");
    r.tail("put_ms_p95", &o.put_ms, 0.95, "ms");
    r.fact("run.steps_timed", o.steps_timed);
    r.fact("run.window_s", format!("{:.3}", o.window_s));
}

fn ds_e2e(r: &mut Report, o: &dsq::SessionOut) {
    // The first version is due at the window start.
    r.metric(
        "dump_mb_s",
        windowed_rate(&o.version_marks, 0.0) / 1e6,
        "MB/s",
    );
    r.p50("step_ms_p50", &o.step_ms, "ms");
    r.tail("step_ms_p95", &o.step_ms, 0.95, "ms");
    r.p50("write_us_p50", &o.write_us, "us");
    r.tail("write_us_p99", &o.write_us, 0.99, "us");
    r.p50("drain_ms_p50", &o.evict_ms, "ms");
    r.metric("read_mb_s", windowed_ratio(&o.range_samples) / 1e6, "MB/s");
    r.metric("queries_per_s", windowed_rate(&o.query_marks, 0.0), "q/s");
    r.p50("query_ms_p50", &o.query_ms, "ms");
    r.tail("query_ms_p95", &o.query_ms, 0.95, "ms");
    r.p50("put_ms_p50", &o.put_ms, "ms");
    r.tail("put_ms_p95", &o.put_ms, 0.95, "ms");
    r.fact("run.versions_timed", o.versions);
    r.fact("run.window_s", format!("{:.3}", o.window_s));
}

/// Per-layer metrics of a traced staging session `o` (with the untraced
/// session `u` for the overhead), plus the probes over `pgs`. `names` are
/// the workload's `StreamOp::name()`s, in breakdown order.
fn staging_layers(
    r: &mut Report,
    o: &SessionOut,
    u: &SessionOut,
    names: &[String],
    pgs: &[bpio::ProcessGroup],
    dir: &Path,
) {
    let steps = o.steps_timed.max(1) as f64;
    let bd = &o.breakdowns;
    let avg =
        |f: &dyn Fn(&trace::StepBreakdown) -> f64| mean(&bd.iter().map(f).collect::<Vec<_>>());
    let ms = |ns: u64| ns as f64 / 1e6;
    let partial = mean(&o.partial_us);
    r.metric("client.partial_calc_us", partial, "us");
    r.metric("client.pack_send_us", mean(&o.write_us) - partial, "us");
    let (pack, unpack, kb) = probes::ffs(pgs);
    r.metric("ffs.pack_mb_s", pack, "MB/s");
    r.metric("ffs.unpack_mb_s", unpack, "MB/s");
    r.metric("ffs.chunk_kb", kb, "KB");
    r.metric(
        "transport.rdma_gets_per_step",
        o.rdma_gets as f64 / steps,
        "count",
    );
    r.metric(
        "transport.gets_per_chunk",
        o.rdma_gets as f64 / o.chunks.max(1) as f64,
        "count",
    );
    r.metric(
        "transport.mb_pulled_per_step",
        o.bytes_pulled as f64 / 1e6 / steps,
        "MB",
    );
    r.metric(
        "transport.request_bytes_per_chunk",
        o.request_bytes as f64 / o.requests.max(1) as f64,
        "B",
    );
    r.metric("transport.retries", o.retries as f64, "count");
    r.metric("transport.peak_pinned_mb", o.peak_pinned as f64 / 1e6, "MB");
    r.metric(
        "transport.policy_order_us",
        avg(&|b| b.order as f64 / 1e3),
        "us",
    );
    let (get_us, get_mb_s) = probes::transport(pgs);
    r.metric("transport.rdma_get_us_p50", get_us, "us");
    r.metric("transport.get_mb_s", get_mb_s, "MB/s");
    r.metric(
        "minimpi.messages_per_step",
        o.messages as f64 / steps,
        "count",
    );
    r.metric(
        "minimpi.mb_per_step",
        o.mpi_bytes as f64 / 1e6 / steps,
        "MB",
    );
    r.metric(
        "minimpi.collectives_per_step",
        o.collectives as f64 / steps,
        "count",
    );
    r.metric(
        "minimpi.shuffle_ms",
        avg(&|b| ms(b.shuffle.iter().sum())),
        "ms",
    );
    let n = pipeline::N_STAGING;
    let per_dest = (o.mpi_bytes as f64 / steps / (n * n) as f64) as usize;
    let gather = (o.request_bytes as f64 / steps / n as f64) as usize;
    let (a2a_ms, ag_us) = probes::minimpi(per_dest, gather.max(1));
    r.metric("minimpi.alltoallv_ms", a2a_ms, "ms");
    r.metric("minimpi.allgather_us", ag_us, "us");
    r.metric("staging.run_step_ms", avg(&|b| ms(b.wall)), "ms");
    r.metric("staging.gather_agg_ms", avg(&|b| ms(b.gather_agg)), "ms");
    r.metric("staging.init_ms", avg(&|b| ms(b.init)), "ms");
    r.metric("staging.map_phase_ms", avg(&|b| ms(b.map_phase)), "ms");
    r.metric("staging.tail_ms", avg(&|b| ms(b.tail)), "ms");
    r.metric(
        "staging.unattributed_ms",
        avg(&|b| b.unattributed as f64 / 1e6),
        "ms",
    );
    r.metric("staging.rank_skew_ms", mean(&o.skew_ms), "ms");
    let map_ns: u64 = bd.iter().flat_map(|b| &b.map_ns).sum();
    let phase_ns: u64 = bd.iter().map(|b| b.map_phase).sum();
    let workers = predata_core::staging::map_workers() as f64;
    r.metric(
        "staging.map_busy_frac",
        map_ns as f64 / (phase_ns as f64 * workers).max(1.0),
        "ratio",
    );
    r.metric(
        "staging.chunks_per_step",
        o.chunks as f64 / (steps * n as f64),
        "count",
    );
    r.metric("staging.truncated_chunks", o.truncated as f64, "count");
    // Per-op numbers, by the op's position in this workload's op list.
    for (metric, op) in OPS {
        let idx = names.iter().position(|n| n == op);
        let pick = |f: &dyn Fn(&trace::StepBreakdown, usize) -> f64| {
            idx.map_or(0.0, |i| avg(&|b| f(b, i)))
        };
        let calls: u64 = idx.map_or(0, |i| bd.iter().map(|b| b.map_calls[i]).sum());
        let ns: u64 = idx.map_or(0, |i| bd.iter().map(|b| b.map_ns[i]).sum());
        r.metric(
            &format!("ops.{metric}.map_us"),
            ns as f64 / 1e3 / calls.max(1) as f64,
            "us",
        );
        r.metric(
            &format!("ops.{metric}.reduce_ms"),
            pick(&|b, i| ms(b.reduce[i])),
            "ms",
        );
        r.metric(
            &format!("ops.{metric}.finalize_ms"),
            pick(&|b, i| ms(b.finalize[i])),
            "ms",
        );
    }
    r.metric("ops.combine_ms", avg(&|b| ms(b.combine.iter().sum())), "ms");
    let rd = &o.reads;
    r.metric(
        "bpio.mb_written_per_step",
        o.written_bytes as f64 / 1e6 / steps,
        "MB",
    );
    r.metric("bpio.open_us", mean(&rd.open_us), "us");
    r.metric("bpio.read_box_ms_p50", median(&rd.query_ms), "ms");
    r.metric(
        "bpio.reads_per_box",
        rd.reads as f64 / rd.query_ms.len().max(1) as f64,
        "count",
    );
    r.metric(
        "bpio.read_amplification",
        rd.stat_bytes as f64 / rd.box_bytes.max(1) as f64,
        "ratio",
    );
    r.metric("bpio.write_mb_s", probes::bp_write(dir, pgs), "MB/s");
    let (pieces, global) = probes::pieces_of(pgs);
    r.metric(
        "bpio.copy_box_mb_s",
        probes::copy_box_rate(&pieces, &global),
        "MB/s",
    );
    let tput = |s: &SessionOut| s.dump_bytes as f64 / s.window_s.max(1e-9);
    r.metric(
        "bench.trace_overhead_frac",
        1.0 - tput(o) / tput(u).max(1e-9),
        "ratio",
    );
}

fn fill_missing(r: &mut Report) {
    for (name, unit) in per_layer() {
        if r.get(&name).is_none() {
            r.metric(&name, 0.0, unit);
        }
    }
}

fn run_staging<W: Workload>(a: &Args, build: &dyn Fn() -> W, dir: &Path) -> Outcome {
    let mut r = Report::default();
    // Dropped before the sessions, so it adds nothing to `peak_rss_mb`.
    let (names, step_bytes) = {
        let wl = build();
        let names: Vec<String> = wl
            .stream_ops()
            .iter()
            .map(|o| o.name().to_string())
            .collect();
        let bytes: usize = wl.snapshots()[0]
            .iter()
            .flat_map(|pg| &pg.vars)
            .map(|v| v.data.byte_len())
            .sum();
        (names, bytes)
    };
    r.fact("run.op_names", names.join(","));
    r.fact("input.step_bytes", step_bytes);
    if let Some(l2) = report::cache_bytes("2") {
        r.fact(
            "input.step_bytes_over_l2",
            format!("{:.2}", step_bytes as f64 / l2 as f64),
        );
    }
    let measure = Duration::from_secs(a.seconds);
    let mut errors = Vec::new();
    let (attempted, failed);
    if !a.trace {
        let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
            .map(|i| {
                pipeline::timed_setup(build, &pipeline::session_dir(dir, &format!("setup{i}")))
            })
            .collect();
        let sdir = pipeline::session_dir(dir, "session");
        let mut o = pipeline::session(build, &sdir, WARM, measure, None);
        setups.push(o.setup_s);
        r.fact("samples.setup_s", setups.len());
        r.metric("setup_s", median(&setups), "s");
        staging_e2e(&mut r, &o);
        attempted = o.attempted;
        failed = o.failed;
        errors.append(&mut o.errors);
        r.metric("failed_frac", failed_frac(failed), "ratio");
        r.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    } else {
        let half = measure / 2;
        let mut u = pipeline::session(
            build,
            &pipeline::session_dir(dir, "untraced"),
            WARM,
            half,
            None,
        );
        let tracer = Tracer::new();
        let sdir = pipeline::session_dir(dir, "traced");
        let mut o = pipeline::session(build, &sdir, WARM, half, Some(tracer.clone()));
        let wl = build();
        staging_layers(&mut r, &o, &u, &names, &wl.snapshots()[0], &sdir);
        r.fact("samples.breakdowns", o.breakdowns.len());
        r.fact("trace.spans", tracer.len());
        write_trace(&tracer, a);
        attempted = u.attempted + o.attempted;
        failed = u.failed + o.failed;
        errors.append(&mut u.errors);
        errors.append(&mut o.errors);
    }
    Outcome {
        report: r,
        attempted,
        failed,
        errors,
    }
}

fn run_ds(a: &Args) -> Outcome {
    let mut r = Report::default();
    let measure = Duration::from_secs(a.seconds);
    let mut errors = Vec::new();
    let (attempted, failed);
    if !a.trace {
        let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
            .map(|_| {
                let t = std::time::Instant::now();
                let rig = dsq::build(a.seed);
                let s = t.elapsed().as_secs_f64();
                drop(rig);
                s
            })
            .collect();
        let mut o = dsq::session(a.seed, WARM, measure, None);
        setups.push(o.setup_s);
        r.fact("samples.setup_s", setups.len());
        r.metric("setup_s", median(&setups), "s");
        ds_e2e(&mut r, &o);
        attempted = o.attempted;
        failed = o.failed;
        errors.append(&mut o.errors);
        r.metric("failed_frac", failed_frac(failed), "ratio");
        r.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    } else {
        let half = measure / 2;
        let mut u = dsq::session(a.seed, WARM, half, None);
        let tracer = Tracer::new();
        let mut o = dsq::session(a.seed, WARM, half, Some(tracer.clone()));
        r.metric("ds.put_ms", mean(&o.write_us) / 1e3, "ms");
        r.metric("ds.commit_us", mean(&o.commit_us), "us");
        r.metric("ds.evict_us", mean(&o.evict_ms) * 1e3, "us");
        r.metric("ds.submit_us", mean(&o.submit_us), "us");
        r.metric("ds.wait_ms", mean(&o.wait_ms), "ms");
        let q = tail_q(o.backlog.len(), 0.95);
        r.metric("ds.backlog_p95", quantile(&o.backlog, q), "count");
        r.metric(
            "ds.blocks_per_query",
            o.blocks as f64 / o.queries.max(1) as f64,
            "count",
        );
        r.metric("ds.deadline_missed", o.deadline_missed as f64, "count");
        r.metric("ds.shard_contended", o.shard_contended as f64, "count");
        let rig = dsq::build(a.seed);
        let gen = rig.gen;
        let stripes: Vec<_> = (0..dsq::STRIPES).map(|k| gen.stripe(k, 0)).collect();
        let (scan, reduce, put) = probes::dataspaces(&rig.space, 0, &stripes);
        r.metric("ds.scan_ns_per_elem", scan, "ns");
        r.metric("ds.reduce_ns_per_elem", reduce, "ns");
        r.metric("ds.put_ns_per_elem", put, "ns");
        let pieces: Vec<_> = stripes
            .iter()
            .map(|(reg, d)| {
                (
                    reg.corner.clone(),
                    reg.extent.clone(),
                    bpio::DataArray::F64(d.clone()),
                )
            })
            .collect();
        let refs: Vec<_> = pieces
            .iter()
            .map(|(c, e, d)| (d, c.clone(), e.clone()))
            .collect();
        r.metric(
            "bpio.copy_box_mb_s",
            probes::copy_box_rate(&refs, &dsq::DOMAIN),
            "MB/s",
        );
        let q = tail_q(o.late_ms.len(), 0.95);
        r.metric("bench.writer_late_ms_p95", quantile(&o.late_ms, q), "ms");
        let qps = |s: &dsq::SessionOut| s.queries as f64 / s.window_s.max(1e-9);
        r.metric(
            "bench.trace_overhead_frac",
            1.0 - qps(&o) / qps(&u).max(1e-9),
            "ratio",
        );
        r.fact("trace.spans", tracer.len());
        write_trace(&tracer, a);
        attempted = u.attempted + o.attempted;
        failed = u.failed + o.failed;
        errors.append(&mut u.errors);
        errors.append(&mut o.errors);
    }
    Outcome {
        report: r,
        attempted,
        failed,
        errors,
    }
}

fn out_root() -> PathBuf {
    PathBuf::from(".perfbench")
}

fn write_trace(tracer: &Tracer, a: &Args) {
    let path = out_root().join(format!("trace-{}-seed{}.jsonl", a.workload, a.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn run_workload(a: &Args) -> Outcome {
    let dir = out_root().join(format!("run-{}", std::process::id()));
    let seed = a.seed;
    let cpu0 = report::cpu_times();
    let mut out = match a.workload.as_str() {
        "gtc_sort_hist" => run_staging(a, &|| GtcSortHist::new(seed), &dir),
        "small_chunk_fanin" => run_staging(a, &|| SmallChunkFanin::new(seed), &dir),
        _ => run_ds(a),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let r = &mut out.report;
    report::steal_facts(r, cpu0, report::cpu_times());
    r.fact("run.attempted", out.attempted);
    r.fact("run.failed", out.failed);
    r.fact(
        "run.failed_over_attempted",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    report::host_facts(r);
    record_defaults(r);
    r.fact("input.workload", &a.workload);
    r.fact("input.seed", a.seed);
    r.fact("input.seconds", a.seconds);
    r.fact("input.warm_s", WARM.as_secs());
    match a.workload.as_str() {
        "gtc_sort_hist" => GtcSortHist::facts(r),
        "small_chunk_fanin" => SmallChunkFanin::facts(r),
        _ => dsq::facts(r),
    }
    if a.trace {
        fill_missing(r);
    }
    out
}

/// Refuse to run with any `PREDATA_*` variable set: the benchmark
/// measures the shipped defaults.
fn check_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PREDATA_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the shipped defaults",
            set.join(", ")
        ))
    }
}

fn main() {
    if let Err(e) = check_env() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(out_root()).expect("create .perfbench");
    // Watchdog: a run that hangs (a dead staging rank leaves its peer in
    // a collective) ends without a result instead of running forever.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(RUN_LIMIT) {
            eprintln!(
                "perfbench: run exceeded {} s; giving up",
                RUN_LIMIT.as_secs()
            );
            std::process::exit(3);
        }
    });
    let code = match args {
        None => selftest::run(),
        Some(a) => {
            let out = run_workload(&a);
            for e in out.errors.iter().take(10) {
                eprintln!("perfbench: failure: {e}");
            }
            let correct = out.failed == 0 && out.errors.is_empty();
            let r = &out.report;
            println!(
                "perfbench {} seed={} seconds={} trace={} correct={correct}",
                a.workload, a.seed, a.seconds, a.trace as u8
            );
            print!("{}", r.table());
            println!("facts {}", r.facts_json());
            println!(
                "{}",
                r.result_json(correct, out.attempted.max(1), out.failed)
            );
            0
        }
    };
    let _ = done_tx.send(());
    watchdog.join().expect("watchdog thread");
    std::process::exit(code);
}

mod selftest {
    //! `--self-test`: a short untraced and traced run of every workload.
    //! Each must report every metric of its kind with its unit, pass its
    //! output checks, and (traced, staging) have its step parts add up to
    //! `staging.run_step_ms`.

    use super::*;

    fn check_names(r: &Report, want: &[(String, &str)], what: &str) -> Vec<String> {
        let mut bad = Vec::new();
        for (name, unit) in want {
            match r.metrics.iter().find(|(n, _, _)| n == name) {
                None => bad.push(format!("{what}: missing {name}")),
                Some((_, v, u)) => {
                    if u != unit {
                        bad.push(format!("{what}: {name} has unit {u}, expected {unit}"));
                    }
                    if !v.is_finite() {
                        bad.push(format!("{what}: {name} is not finite"));
                    }
                }
            }
        }
        if r.metrics.len() != want.len() {
            bad.push(format!(
                "{what}: {} metrics reported, {} expected",
                r.metrics.len(),
                want.len()
            ));
        }
        bad
    }

    /// The metric names and units `BENCHMARK.json` lists, if it is here.
    type Names = Vec<(String, String)>;

    fn benchmark_json() -> Option<(Names, Names)> {
        let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
        let v = serde_json::from_str(&text).ok()?;
        let list = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|l| l.as_array())
                .map(|l| {
                    l.iter()
                        .filter_map(|m| {
                            Some((
                                m.get("name")?.as_str()?.to_string(),
                                m.get("unit")?.as_str()?.to_string(),
                            ))
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        Some((list("end_to_end"), list("per_layer")))
    }

    pub fn run() -> i32 {
        let mut bad: Vec<String> = Vec::new();
        let e2e: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        let layers = per_layer();
        match benchmark_json() {
            None => bad.push("BENCHMARK.json not found or not parseable".into()),
            Some((je, jl)) => {
                let as_pairs = |v: &[(String, &str)]| -> Vec<(String, String)> {
                    v.iter().map(|(n, u)| (n.clone(), u.to_string())).collect()
                };
                if je != as_pairs(&e2e) {
                    bad.push("BENCHMARK.json end_to_end differs from the benchmark's list".into());
                }
                if jl != as_pairs(&layers) {
                    bad.push("BENCHMARK.json per_layer differs from the benchmark's list".into());
                }
            }
        }
        for wl in WORKLOADS {
            for trace in [false, true] {
                let a = Args {
                    workload: wl.to_string(),
                    seed: 7,
                    seconds: 2,
                    trace,
                };
                let out = run_workload(&a);
                let what = format!("{wl} trace={}", trace as u8);
                let want = if trace { &layers } else { &e2e };
                bad.extend(check_names(&out.report, want, &what));
                if out.failed > 0 || !out.errors.is_empty() {
                    bad.push(format!(
                        "{what}: {} failed: {:?}",
                        out.failed,
                        out.errors.first()
                    ));
                }
                if !trace {
                    for (name, _) in &e2e {
                        if out.report.get(name) == Some(0.0) {
                            bad.push(format!("{what}: {name} is 0"));
                        }
                    }
                }
                if trace && wl != "ds_query_mix" {
                    let g = |n: &str| out.report.get(n).unwrap_or(f64::NAN);
                    let ops_sum: f64 = OPS
                        .iter()
                        .map(|(op, _)| {
                            g(&format!("ops.{op}.reduce_ms")) + g(&format!("ops.{op}.finalize_ms"))
                        })
                        .sum();
                    let parts = g("staging.gather_agg_ms")
                        + g("staging.init_ms")
                        + g("staging.map_phase_ms")
                        + g("ops.combine_ms")
                        + g("minimpi.shuffle_ms")
                        + ops_sum
                        + g("staging.tail_ms")
                        + g("staging.unattributed_ms");
                    let wall = g("staging.run_step_ms");
                    // Written so that a NaN part fails the check.
                    let adds_up = (parts - wall).abs() <= 1e-6 * wall.max(1.0);
                    if !adds_up {
                        bad.push(format!(
                            "{what}: staging parts sum to {parts} ms, run_step is {wall} ms"
                        ));
                    }
                    if g("staging.unattributed_ms").abs() > 0.25 * wall {
                        bad.push(format!("{what}: a quarter of run_step is unattributed"));
                    }
                }
                eprintln!("self-test: {what} done");
            }
        }
        if bad.is_empty() {
            println!(
                "self-test: PASS ({} workloads, untraced and traced)",
                WORKLOADS.len()
            );
            0
        } else {
            for b in &bad {
                println!("self-test: FAIL {b}");
            }
            1
        }
    }
}
