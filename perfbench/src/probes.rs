//! Layer probes: replay a workload's own inputs through one crate's public
//! functions in isolation, for the layers `run_step` reaches only from
//! inside. Each probe runs single-threaded (minimpi: two ranks) for a
//! fixed minimum time and reports a median or a rate.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpio::{copy_box, BpWriter, DataArray, ProcessGroup};
use dataspaces::{DataSpaces, Reduction, Region};
use ffs::AttrList;
use minimpi::World;
use predata_core::PackedChunk;
use transport::{Fabric, FetchRequest};

use crate::report::median;

/// Minimum measured time per probe.
const PROBE_TIME: Duration = Duration::from_millis(250);

/// Run `f` in rounds until `PROBE_TIME` passed; returns rounds and time.
fn rounds(mut f: impl FnMut()) -> (u64, f64) {
    let t0 = Instant::now();
    let mut n = 0;
    while n == 0 || t0.elapsed() < PROBE_TIME {
        f();
        n += 1;
    }
    (n, t0.elapsed().as_secs_f64())
}

/// `ffs` (through `PackedChunk`): pack and unpack MB/s over the
/// workload's process groups, and the mean packed chunk size in KB.
pub fn ffs(pgs: &[ProcessGroup]) -> (f64, f64, f64) {
    let chunks: Vec<PackedChunk> = pgs.iter().map(|pg| PackedChunk::new(pg.clone())).collect();
    let packed: Vec<Vec<u8>> = chunks.iter().map(|c| c.pack().expect("pack")).collect();
    let bytes: usize = packed.iter().map(Vec::len).sum();
    let (n, t) = rounds(|| {
        for c in &chunks {
            std::hint::black_box(c.pack().expect("pack"));
        }
    });
    let pack = (bytes as u64 * n) as f64 / 1e6 / t;
    let (n, t) = rounds(|| {
        for b in &packed {
            std::hint::black_box(PackedChunk::unpack(b).expect("unpack"));
        }
    });
    let unpack = (bytes as u64 * n) as f64 / 1e6 / t;
    (pack, unpack, bytes as f64 / packed.len() as f64 / 1024.0)
}

/// `transport`: expose every packed chunk and pull it with one
/// `rdma_get`; median µs per get and MB/s over all gets.
pub fn transport(pgs: &[ProcessGroup]) -> (f64, f64) {
    let packed: Vec<Arc<[u8]>> = pgs
        .iter()
        .map(|pg| PackedChunk::new(pg.clone()).pack().expect("pack").into())
        .collect();
    let (_fabric, computes, stagings) = Fabric::with_faults(packed.len(), 1, None, None);
    let mut get_us = Vec::new();
    let (mut bytes, mut get_s) = (0u64, 0.0f64);
    rounds(|| {
        for (r, buf) in packed.iter().enumerate() {
            let handle = computes[r].expose(Arc::clone(buf), 0).expect("expose");
            let req = FetchRequest {
                src_rank: r,
                io_step: 0,
                handle,
                chunk_bytes: buf.len(),
                format: PackedChunk::format_fingerprint(),
                attrs: AttrList::new(),
            };
            let t = Instant::now();
            let got = stagings[0].rdma_get(&req).expect("rdma_get");
            let dt = t.elapsed().as_secs_f64();
            bytes += got.len() as u64;
            get_s += dt;
            get_us.push(dt * 1e6);
            computes[r].poll_completions();
        }
    });
    (median(&get_us), bytes as f64 / 1e6 / get_s.max(1e-12))
}

/// `minimpi` at world size 2: median ms of one `alltoallv` moving
/// `per_dest` bytes to each rank, and median µs of one `allgather` of
/// `gather_bytes`.
pub fn minimpi(per_dest: usize, gather_bytes: usize) -> (f64, f64) {
    let out = World::run(2, move |comm| {
        let mut a2a = Vec::new();
        let mut ag = Vec::new();
        let t0 = Instant::now();
        // Rank 0 decides when to stop, so both ranks run the same rounds.
        let mut more = true;
        while more {
            let send: Vec<Vec<u8>> = (0..2).map(|_| vec![1u8; per_dest]).collect();
            let t = Instant::now();
            std::hint::black_box(comm.alltoallv(send));
            a2a.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            std::hint::black_box(comm.allgather(vec![2u8; gather_bytes]));
            ag.push(t.elapsed().as_secs_f64() * 1e6);
            more = comm.bcast(0, (comm.rank() == 0).then(|| t0.elapsed() < PROBE_TIME));
        }
        (median(&a2a), median(&ag))
    });
    out[0]
}

/// `bpio`: MB/s of writing every process group of one step into one BP
/// file.
pub fn bp_write(dir: &Path, pgs: &[ProcessGroup]) -> f64 {
    let path = dir.join("probe.bp");
    let mut bytes = 0u64;
    let (_, t) = rounds(|| {
        let mut w = BpWriter::create(&path).expect("create probe file");
        for pg in pgs {
            w.append_pg(pg).expect("append");
        }
        w.finish().expect("finish");
        bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
    });
    let _ = std::fs::remove_file(&path);
    bytes as f64 / 1e6 / t
}

/// One `copy_box` source: the array, its offset and its extents.
pub type Piece<'a> = (&'a DataArray, Vec<u64>, Vec<u64>);

/// The f64 arrays of one step's process groups as `copy_box` pieces:
/// global chunks keep their own placement, local 2-D arrays stack along
/// dimension 0. Returns the pieces and the global extents.
pub fn pieces_of(pgs: &[ProcessGroup]) -> (Vec<Piece<'_>>, Vec<u64>) {
    let mut pieces = Vec::new();
    let mut global: Vec<u64> = Vec::new();
    let mut stacked = 0u64;
    for v in pgs.iter().flat_map(|pg| &pg.vars) {
        if v.data.as_f64().is_none() || v.local.len() < 2 {
            continue;
        }
        if v.global.is_empty() {
            pieces.push((&v.data, vec![stacked, 0], v.local.clone()));
            stacked += v.local[0];
            global = vec![stacked, v.local[1]];
        } else {
            pieces.push((&v.data, v.offset.clone(), v.local.clone()));
            global = v.global.clone();
        }
    }
    (pieces, global)
}

/// `bpio`: MB/s of `copy_box` placing every piece into a global buffer.
pub fn copy_box_rate(pieces: &[Piece<'_>], global: &[u64]) -> f64 {
    if pieces.is_empty() {
        return 0.0;
    }
    let mut dst = DataArray::zeros(bpio::Dtype::F64, global.iter().product::<u64>() as usize);
    let copied: u64 = pieces.iter().map(|p| p.0.byte_len() as u64).sum();
    let (n, t) = rounds(|| {
        for (src, off, ext) in pieces {
            copy_box(src, &mut dst, off, ext, global).expect("piece fits");
        }
    });
    (copied * n) as f64 / 1e6 / t
}

/// `dataspaces`, single-threaded: ns per element of a whole-domain scan
/// and reduction on committed version `v`, and of putting `stripes` (one
/// whole version) into a fresh space.
pub fn dataspaces(space: &DataSpaces, v: u64, stripes: &[(Region, Vec<f64>)]) -> (f64, f64, f64) {
    let cfg = space.config().clone();
    let whole = Region::whole(&cfg.domain);
    let elems = whole.volume() as f64;
    let session = space
        .session_now(crate::dsq::VAR, v)
        .expect("committed version");
    let (n, t) = rounds(|| {
        std::hint::black_box(session.get(&whole).expect("scan"));
    });
    let scan = t * 1e9 / (n as f64 * elems);
    let (n, t) = rounds(|| {
        std::hint::black_box(session.reduce(&whole, Reduction::Sum).expect("reduce"));
    });
    let reduce = t * 1e9 / (n as f64 * elems);
    let mut put_s = 0.0;
    let (n, _) = rounds(|| {
        let fresh = DataSpaces::new(cfg.clone());
        let data: Vec<DataArray> = stripes
            .iter()
            .map(|s| DataArray::F64(s.1.clone()))
            .collect();
        let t = Instant::now();
        for ((region, _), d) in stripes.iter().zip(data) {
            fresh.put(crate::dsq::VAR, 0, region, d).expect("put");
        }
        put_s += t.elapsed().as_secs_f64();
    });
    (scan, reduce, put_s * 1e9 / (n as f64 * elems))
}
