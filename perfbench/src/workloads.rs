//! The two staging workloads: inputs, operators and output checks.

use std::collections::HashMap;
use std::sync::Arc;

use apps::GtcWorld;
use bpio::ProcessGroup;
use ffs::Value;
use predata_core::op::{ComputeSideOp, StreamOp};
use predata_core::ops::{BitmapIndexOp, Histogram2dOp, HistogramOp, MomentsOp, SortOp};
use predata_core::schema::{make_particle_pg, particle_key, PARTICLE_ATTRS, PARTICLE_WIDTH};
use predata_core::StepReport;

use crate::pipeline::{Reads, Workload};
use crate::report::Report;

/// splitmix64: the benchmark's own seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn result<'a>(
    reports: &'a [StepReport],
    op: &'a str,
) -> impl Iterator<Item = (usize, &'a predata_core::OpResult)> + 'a {
    reports.iter().enumerate().flat_map(move |(rank, r)| {
        r.results
            .iter()
            .filter(move |res| res.op == op)
            .map(move |res| (rank, res))
    })
}

/// Sum of every `ArrU64` value named `key` across ranks, and how many
/// ranks carried it.
fn bins_total(reports: &[StepReport], op: &str, key: &str) -> (u64, usize) {
    let mut total = 0;
    let mut found = 0;
    for (_, res) in result(reports, op) {
        if let Some(Value::ArrU64(bins)) = res.values.get(key) {
            total += bins.iter().sum::<u64>();
            found += 1;
        }
    }
    (total, found)
}

fn u64_total(reports: &[StepReport], op: &str, key: &str) -> u64 {
    result(reports, op)
        .filter_map(|(_, res)| res.values.get_u64(key))
        .sum()
}

// ---------------------------------------------------------------- gtc

/// `gtc_sort_hist`: GTC particle dumps through sort + histograms +
/// bitmap index.
pub struct GtcSortHist {
    snaps: Vec<Vec<ProcessGroup>>,
    total: u64,
    key_sum: u64,
    key_xor: u64,
}

impl GtcSortHist {
    pub const N_COMPUTE: usize = 16;
    pub const PARTICLES: usize = 4096;
    const SNAPSHOTS: usize = 4;
    const HIST_COLS: [usize; 3] = [0, 3, 4];
    /// Read queries per sorted slice.
    const QUERIES_PER_FILE: u64 = 4;

    pub fn new(seed: u64) -> GtcSortHist {
        let mut world = GtcWorld::new(Self::N_COMPUTE, Self::PARTICLES, seed);
        let mut snaps = Vec::with_capacity(Self::SNAPSHOTS);
        for _ in 0..Self::SNAPSHOTS {
            snaps.push((0..Self::N_COMPUTE).map(|r| world.output_pg(r)).collect());
            for _ in 0..5 {
                world.step();
            }
        }
        let labels = world.all_labels();
        let keys = labels.iter().map(|&(r, i)| (r << 32) | (i & 0xffff_ffff));
        let (key_sum, key_xor) = keys.fold((0u64, 0u64), |(s, x), k| (s.wrapping_add(k), x ^ k));
        GtcSortHist {
            snaps,
            total: labels.len() as u64,
            key_sum,
            key_xor,
        }
    }

    pub fn facts(r: &mut Report) {
        r.fact("input.n_compute", Self::N_COMPUTE);
        r.fact("input.particles_per_rank", Self::PARTICLES);
        r.fact(
            "input.chunk_bytes_approx",
            Self::PARTICLES * PARTICLE_WIDTH * 8,
        );
        r.fact("input.snapshots", Self::SNAPSHOTS);
        r.fact(
            "input.ops",
            "sort+histogram(x,v_par,v_perp;32)+histogram2d(v_par,v_perp;16)+bitmap(x;16)",
        );
    }
}

impl Workload for GtcSortHist {
    fn n_compute(&self) -> usize {
        Self::N_COMPUTE
    }

    fn stream_ops(&self) -> Vec<Box<dyn StreamOp>> {
        vec![
            Box::new(SortOp::new()),
            Box::new(HistogramOp::new(Self::HIST_COLS.to_vec(), 32)),
            Box::new(Histogram2dOp::new(vec![(3, 4)], 16)),
            Box::new(BitmapIndexOp::new(0, 16)),
        ]
    }

    fn compute_ops(&self) -> Vec<Arc<dyn ComputeSideOp>> {
        vec![
            Arc::new(SortOp::new()),
            Arc::new(HistogramOp::new(Self::HIST_COLS.to_vec(), 32)),
        ]
    }

    fn snapshots(&self) -> &[Vec<ProcessGroup>] {
        &self.snaps
    }

    fn consume(&self, step: u64, reports: &[StepReport], rd: &mut Reads) -> Result<(), String> {
        let total = self.total;
        let sorted = u64_total(reports, "sort", "np_sorted");
        if sorted != total {
            return Err(format!("sort kept {sorted} of {total} particles"));
        }
        for c in Self::HIST_COLS {
            let key = format!("hist_{}", PARTICLE_ATTRS[c]);
            let (n, found) = bins_total(reports, "histogram", &key);
            if found != 1 || n != total {
                return Err(format!("{key}: {n} counted, expected {total}"));
            }
        }
        let (n2, _) = bins_total(reports, "histogram2d", "hist2d_v_par_v_perp");
        if n2 != total {
            return Err(format!("hist2d counted {n2}, expected {total}"));
        }
        let indexed = u64_total(reports, "bitmap_index", "indexed_rows");
        if indexed != total {
            return Err(format!("bitmap indexed {indexed}, expected {total}"));
        }
        // Read the sorted slices back in offset order: label order must
        // hold within and across slices, and the label set is conserved.
        let mut slices: Vec<(u64, u64, std::path::PathBuf)> = result(reports, "sort")
            .filter_map(|(_, res)| {
                Some((
                    res.values.get_u64("offset")?,
                    res.values.get_u64("np_sorted")?,
                    res.files.first()?.clone(),
                ))
            })
            .collect();
        slices.sort_by_key(|s| s.0);
        let (mut count, mut sum, mut xor, mut prev) = (0u64, 0u64, 0u64, None::<u64>);
        for (offset, np, path) in slices {
            let mut r = rd.open(&path)?;
            let q = Self::QUERIES_PER_FILE.min(np.max(1));
            for i in 0..q {
                let (lo, hi) = (np * i / q, np * (i + 1) / q);
                if hi == lo {
                    continue;
                }
                let data =
                    rd.read_box(&mut r, "particles", step, &[offset + lo, 0], &[hi - lo, 8])?;
                let rows = data.as_f64().ok_or("sorted particles are not f64")?;
                for row in rows.chunks_exact(PARTICLE_WIDTH) {
                    let k = particle_key(row);
                    if prev.is_some_and(|p| p >= k) {
                        return Err(format!("sorted output out of label order at row {count}"));
                    }
                    prev = Some(k);
                    count += 1;
                    sum = sum.wrapping_add(k);
                    xor ^= k;
                }
            }
        }
        if (count, sum, xor) != (total, self.key_sum, self.key_xor) {
            return Err(format!(
                "sorted output holds {count} particles with another label set"
            ));
        }
        Ok(())
    }
}

// -------------------------------------------------------------- small

/// `small_chunk_fanin`: many compute ranks, a few hundred rows each.
pub struct SmallChunkFanin {
    snaps: Vec<Vec<ProcessGroup>>,
    total: u64,
}

impl SmallChunkFanin {
    pub const N_COMPUTE: usize = 128;
    pub const ROWS: usize = 256;
    const SNAPSHOTS: usize = 4;
    const MOMENT_COLS: [usize; 3] = [0, 1, 2];

    pub fn new(seed: u64) -> SmallChunkFanin {
        let mut rng = Rng::new(seed);
        let snaps = (0..Self::SNAPSHOTS)
            .map(|_| {
                (0..Self::N_COMPUTE)
                    .map(|rank| {
                        let mut rows = Vec::with_capacity(Self::ROWS * PARTICLE_WIDTH);
                        for id in 0..Self::ROWS {
                            for _ in 0..6 {
                                rows.push(rng.unit() * 16.0 - 8.0);
                            }
                            rows.push(rank as f64);
                            rows.push(id as f64);
                        }
                        make_particle_pg(rank as u64, 0, rows)
                    })
                    .collect()
            })
            .collect();
        SmallChunkFanin {
            snaps,
            total: (Self::N_COMPUTE * Self::ROWS) as u64,
        }
    }

    pub fn facts(r: &mut Report) {
        r.fact("input.n_compute", Self::N_COMPUTE);
        r.fact("input.rows_per_rank", Self::ROWS);
        r.fact("input.chunk_bytes_approx", Self::ROWS * PARTICLE_WIDTH * 8);
        r.fact("input.snapshots", Self::SNAPSHOTS);
        r.fact("input.ops", "histogram(all 8 attrs;64)+moments(x,y,z)");
    }
}

impl Workload for SmallChunkFanin {
    fn n_compute(&self) -> usize {
        Self::N_COMPUTE
    }

    fn stream_ops(&self) -> Vec<Box<dyn StreamOp>> {
        vec![
            Box::new(HistogramOp::all_attrs(64)),
            Box::new(MomentsOp::new(Self::MOMENT_COLS.to_vec())),
        ]
    }

    fn compute_ops(&self) -> Vec<Arc<dyn ComputeSideOp>> {
        vec![Arc::new(HistogramOp::all_attrs(64))]
    }

    fn snapshots(&self) -> &[Vec<ProcessGroup>] {
        &self.snaps
    }

    fn consume(&self, step: u64, reports: &[StepReport], rd: &mut Reads) -> Result<(), String> {
        let total = self.total;
        for c in Self::MOMENT_COLS {
            let key = format!("count_{}", PARTICLE_ATTRS[c]);
            let n: f64 = result(reports, "moments")
                .filter_map(|(_, res)| match res.values.get(&key) {
                    Some(Value::F64(v)) => Some(*v),
                    _ => None,
                })
                .sum();
            if n != total as f64 {
                return Err(format!("moments {key} = {n}, expected {total}"));
            }
        }
        // Every histogram, from its report and read back from its file.
        for (rank, res) in result(reports, "histogram") {
            let mut expected: HashMap<String, Vec<u64>> = HashMap::new();
            for name in PARTICLE_ATTRS {
                if let Some(Value::ArrU64(bins)) = res.values.get(&format!("hist_{name}")) {
                    expected.insert(name.to_string(), bins.clone());
                }
            }
            for path in &res.files {
                let name = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .and_then(|n| n.strip_prefix("hist_"))
                    .and_then(|n| n.rsplit_once("_step"))
                    .map(|(a, _)| a.to_string())
                    .ok_or("unexpected histogram file name")?;
                let mut r = rd.open(path)?;
                let data = rd.read_local(&mut r, "counts", step, rank as u64)?;
                let bins = data.as_u64().ok_or("histogram counts are not u64")?;
                if Some(&bins.to_vec()) != expected.get(&name) {
                    return Err(format!("hist_{name} file differs from the step report"));
                }
                if bins.iter().sum::<u64>() != total {
                    return Err(format!("hist_{name} counted {}", bins.iter().sum::<u64>()));
                }
                expected.remove(&name);
            }
            if !expected.is_empty() {
                return Err(format!("{} histogram files missing", expected.len()));
            }
        }
        let reported = PARTICLE_ATTRS
            .iter()
            .filter(|n| bins_total(reports, "histogram", &format!("hist_{n}")).1 == 1)
            .count();
        if reported != PARTICLE_WIDTH {
            return Err(format!(
                "{reported} of {PARTICLE_WIDTH} histograms reported once"
            ));
        }
        Ok(())
    }
}
