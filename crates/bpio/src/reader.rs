//! Footer-driven reads with I/O-plan instrumentation.
//!
//! The reader materializes a read *plan* — the minimal set of contiguous
//! byte ranges needed — executes it, and decodes each range straight
//! into the result.
//! [`ReadStats`] reports the plan's cost (read ops, seeks, bytes): the
//! quantity Fig. 11 of the paper compares between merged and unmerged
//! layouts. On a merged file a whole-array read collapses to one large
//! contiguous read; on an unmerged 4096-writer file it is thousands of
//! scattered small reads.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::array::{linear_len, BoxRuns, DataArray};
use crate::error::{BpError, Result};
use crate::index::{FileIndex, VarEntry};
use crate::FILE_MAGIC;

/// Cost of reads performed since the last [`BpReader::take_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Read operations issued (after coalescing adjacent ranges).
    pub reads: u64,
    /// Read operations that were not contiguous with the previous one —
    /// disk seeks on rotating storage, request round-trips on Lustre.
    pub seeks: u64,
    /// Payload bytes transferred.
    pub bytes: u64,
}

/// Reader over one BP-like file.
pub struct BpReader {
    file: File,
    index: FileIndex,
    stats: ReadStats,
    last_end: Option<u64>,
}

impl BpReader {
    /// Open and load the footer index.
    pub fn open(path: impl AsRef<Path>) -> Result<BpReader> {
        let file = File::open(path)?;
        let flen = file.metadata()?.len();
        if flen < 12 {
            return Err(BpError::Corrupt("file too small for footer"));
        }
        let mut tail = [0u8; 12];
        file.read_exact_at(&mut tail, flen - 12)?;
        if tail[8..] != FILE_MAGIC {
            return Err(BpError::Corrupt("missing BP magic"));
        }
        let idx_len = u64::from_le_bytes(tail[..8].try_into().unwrap());
        if idx_len + 12 > flen {
            return Err(BpError::Corrupt("index length exceeds file"));
        }
        let mut idx_buf = vec![0u8; idx_len as usize];
        file.read_exact_at(&mut idx_buf, flen - 12 - idx_len)?;
        let index = FileIndex::decode(&idx_buf)?;
        Ok(BpReader {
            file,
            index,
            stats: ReadStats::default(),
            last_end: None,
        })
    }

    pub fn index(&self) -> &FileIndex {
        &self.index
    }

    /// Stats accumulated since construction or the last take.
    pub fn take_stats(&mut self) -> ReadStats {
        self.last_end = None;
        std::mem::take(&mut self.stats)
    }

    /// Read one writer's scalar value.
    pub fn read_scalar(&mut self, var: &str, step: u64, writer_rank: u64) -> Result<DataArray> {
        let e = self
            .index
            .vars
            .iter()
            .find(|v| {
                v.name == var
                    && v.step == step
                    && v.writer_rank == writer_rank
                    && v.local.is_empty()
            })
            .ok_or_else(|| BpError::NotFound {
                var: var.to_string(),
                step,
            })?
            .clone();
        let buf = self.read_range(e.file_offset, e.payload_len)?;
        DataArray::from_le_bytes(e.dtype, &buf)
    }

    /// Read one writer's local array (or scalar) payload in full.
    pub fn read_local(&mut self, var: &str, step: u64, writer_rank: u64) -> Result<DataArray> {
        let e = self
            .index
            .vars
            .iter()
            .find(|v| v.name == var && v.step == step && v.writer_rank == writer_rank)
            .ok_or_else(|| BpError::NotFound {
                var: var.to_string(),
                step,
            })?
            .clone();
        let buf = self.read_range(e.file_offset, e.payload_len)?;
        DataArray::from_le_bytes(e.dtype, &buf)
    }

    /// Assemble the full global array of `var` at `step` from its chunks.
    /// Verifies the chunks tile the global box exactly.
    pub fn read_global(&mut self, var: &str, step: u64) -> Result<DataArray> {
        let global = self.global_extents(var, step)?;
        self.read_box(var, step, &vec![0; global.len()], &global)
    }

    /// Read the sub-box `[corner, corner+extent)` of global variable
    /// `var` at `step`.
    pub fn read_box(
        &mut self,
        var: &str,
        step: u64,
        corner: &[u64],
        extent: &[u64],
    ) -> Result<DataArray> {
        let first = self.global_chunk(var, step)?;
        check_box(var, &first.global, corner, extent)?;
        let mut out = DataArray::zeros(first.dtype, linear_len(extent) as usize);
        let covered = self.read_box_into(var, step, corner, extent, &mut out)?;
        check_tiled(var, step, covered, extent)?;
        Ok(out)
    }

    /// Read every element of the box `[out_corner, out_corner +
    /// out_extent)` that this file's chunks of `var` at `step` hold into
    /// `out` (row-major over that box), and return how many that was.
    ///
    /// The plan has one entry per [`BoxRuns`] run of each chunk's
    /// intersection with the box. File-adjacent runs are coalesced into
    /// one read op, and each run is decoded straight into `out`.
    pub(crate) fn read_box_into(
        &mut self,
        var: &str,
        step: u64,
        out_corner: &[u64],
        out_extent: &[u64],
        out: &mut DataArray,
    ) -> Result<u64> {
        let ndim = out_extent.len();
        // The run plan: (file_offset, byte_len, dst_element_index).
        let mut plan: Vec<(u64, u64, usize)> = Vec::new();
        let mut covered = 0;
        let (mut lo, mut ext) = (Vec::with_capacity(ndim), Vec::with_capacity(ndim));
        for c in self
            .index
            .vars
            .iter()
            .filter(|v| v.name == var && v.step == step)
        {
            if c.dtype != out.dtype() {
                return Err(BpError::DtypeMismatch {
                    var: var.to_string(),
                    expected: out.dtype().name(),
                    got: c.dtype.name(),
                });
            }
            if c.local.len() != ndim || c.offset_in_global.len() != ndim {
                return Err(BpError::Corrupt("chunk rank mismatch"));
            }
            // Intersection of the request with this chunk, in global coords.
            lo.clear();
            ext.clear();
            for d in 0..ndim {
                let l = out_corner[d].max(c.offset_in_global[d]);
                let h = (out_corner[d] + out_extent[d]).min(c.offset_in_global[d] + c.local[d]);
                lo.push(l);
                ext.push(h.saturating_sub(l));
            }
            if ext.contains(&0) {
                continue;
            }
            covered += linear_len(&ext);
            let esize = c.dtype.size() as u64;
            let runs = BoxRuns::new(
                &lo,
                &ext,
                &c.offset_in_global,
                &c.local,
                out_corner,
                out_extent,
            )?;
            plan.extend(runs.map(|r| {
                (
                    c.file_offset + r.a as u64 * esize,
                    r.len as u64 * esize,
                    r.b,
                )
            }));
        }

        // Coalesce file-adjacent runs into single read ops, then execute.
        plan.sort_unstable_by_key(|r| r.0);
        for group in plan.chunk_by(|x, y| x.0 + x.1 == y.0) {
            let start = group[0].0;
            let (last, last_len, _) = group[group.len() - 1];
            let buf = self.read_range(start, last + last_len - start)?;
            for &(off, len, at) in group {
                let off = (off - start) as usize;
                out.decode_le_at(at, &buf[off..off + len as usize])?;
            }
        }
        Ok(covered)
    }

    /// Global extents of `var` at `step` (error if absent or not global).
    pub fn global_extents(&self, var: &str, step: u64) -> Result<Vec<u64>> {
        Ok(self.global_chunk(var, step)?.global.clone())
    }

    /// The first chunk of global array `var` at `step`.
    pub(crate) fn global_chunk(&self, var: &str, step: u64) -> Result<&VarEntry> {
        let first = self
            .index
            .vars
            .iter()
            .find(|v| v.name == var && v.step == step)
            .ok_or_else(|| BpError::NotFound {
                var: var.to_string(),
                step,
            })?;
        if first.global.is_empty() {
            return Err(BpError::BadDecl(format!(
                "variable `{var}` is not a global array"
            )));
        }
        Ok(first)
    }

    /// Prune chunks by the footer min/max characteristics: which chunks
    /// *might* contain values in `[lo, hi]`. This is the index-assisted
    /// read reduction the paper's bitmap-indexing task relies on.
    pub fn chunks_possibly_in_range(
        &self,
        var: &str,
        step: u64,
        lo: f64,
        hi: f64,
    ) -> Vec<&VarEntry> {
        self.index
            .chunks_of(var, step)
            .into_iter()
            .filter(|c| c.max >= lo && c.min <= hi)
            .collect()
    }

    fn read_range(&mut self, offset: u64, len: u64) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len as usize];
        self.file.read_exact_at(&mut buf, offset)?;
        self.stats.reads += 1;
        self.stats.bytes += len;
        if self.last_end != Some(offset) {
            self.stats.seeks += 1;
        }
        self.last_end = Some(offset + len);
        Ok(buf)
    }
}

/// Check that the box `[corner, corner+extent)` has the rank of
/// `global` and lies inside it.
pub(crate) fn check_box(var: &str, global: &[u64], corner: &[u64], extent: &[u64]) -> Result<()> {
    let ndim = global.len();
    if corner.len() != ndim || extent.len() != ndim {
        return Err(BpError::Corrupt("box rank mismatch"));
    }
    if (0..ndim).any(|d| corner[d] + extent[d] > global[d]) {
        return Err(BpError::OutOfBounds {
            var: var.to_string(),
        });
    }
    Ok(())
}

/// Check that the chunks read covered the whole box of `extent`.
pub(crate) fn check_tiled(var: &str, step: u64, covered: u64, extent: &[u64]) -> Result<()> {
    let expected = linear_len(extent);
    if covered != expected {
        return Err(BpError::IncompleteTiling {
            var: var.to_string(),
            step,
            covered,
            expected,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::Dtype;
    use crate::group::{Dim, GroupDef, VarDef};
    use crate::pg::ProcessGroup;
    use crate::writer::BpWriter;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bpio-reader-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.bp", std::process::id()))
    }

    /// Write a 2-D global array (4x8) as `n_writers` chunks of 4x(8/n).
    fn write_strips(path: &Path, n_writers: u64) {
        let g = GroupDef::new(
            "g",
            vec![
                VarDef::scalar("oy", Dtype::U64),
                VarDef::scalar("ly", Dtype::U64),
                VarDef::global_chunk(
                    "field",
                    Dtype::F64,
                    vec![Dim::c(4), Dim::c(8)],
                    vec![Dim::c(4), Dim::r("ly")],
                    vec![Dim::c(0), Dim::r("oy")],
                ),
            ],
        )
        .unwrap();
        let strip = 8 / n_writers;
        let mut w = BpWriter::create(path).unwrap();
        for rank in 0..n_writers {
            let mut pg = ProcessGroup::new("g", rank, 0);
            pg.write(&g, "oy", DataArray::U64(vec![rank * strip]))
                .unwrap();
            pg.write(&g, "ly", DataArray::U64(vec![strip])).unwrap();
            // Element value = its global linear index, so assembly is checkable.
            let data: Vec<f64> = (0..4)
                .flat_map(|i| (0..strip).map(move |j| (i * 8 + rank * strip + j) as f64))
                .collect();
            pg.write(&g, "field", DataArray::F64(data)).unwrap();
            w.append_pg(&pg).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn global_assembly_any_writer_count() {
        for n in [1u64, 2, 4, 8] {
            let path = tmp(&format!("strips{n}"));
            write_strips(&path, n);
            let mut r = BpReader::open(&path).unwrap();
            let got = r.read_global("field", 0).unwrap();
            let expect: Vec<f64> = (0..32).map(|x| x as f64).collect();
            assert_eq!(got, DataArray::F64(expect), "n_writers={n}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn merged_layout_needs_fewer_seeks() {
        let scattered = tmp("scattered");
        let merged = tmp("merged");
        write_strips(&scattered, 8);
        write_strips(&merged, 1);
        let mut rs = BpReader::open(&scattered).unwrap();
        rs.read_global("field", 0).unwrap();
        let s_stats = rs.take_stats();
        let mut rm = BpReader::open(&merged).unwrap();
        rm.read_global("field", 0).unwrap();
        let m_stats = rm.take_stats();
        assert_eq!(m_stats.reads, 1, "merged file reads whole array in one op");
        assert!(
            s_stats.reads > 4 * m_stats.reads,
            "scattered {s_stats:?} vs merged {m_stats:?}"
        );
        assert_eq!(s_stats.bytes, m_stats.bytes, "same payload either way");
        std::fs::remove_file(&scattered).unwrap();
        std::fs::remove_file(&merged).unwrap();
    }

    #[test]
    fn read_box_subselection() {
        let path = tmp("box");
        write_strips(&path, 4);
        let mut r = BpReader::open(&path).unwrap();
        // Rows 1..3, cols 3..7 of the 4x8 array.
        let got = r.read_box("field", 0, &[1, 3], &[2, 4]).unwrap();
        let expect: Vec<f64> = vec![11., 12., 13., 14., 19., 20., 21., 22.];
        assert_eq!(got, DataArray::F64(expect));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_box_reads_less_than_global() {
        let path = tmp("boxcost");
        write_strips(&path, 4);
        let mut r = BpReader::open(&path).unwrap();
        r.read_box("field", 0, &[0, 0], &[1, 2]).unwrap();
        let small = r.take_stats();
        r.read_global("field", 0).unwrap();
        let full = r.take_stats();
        assert!(small.bytes < full.bytes);
        assert_eq!(small.bytes, 16, "1x2 f64 box = 16 bytes");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn incomplete_tiling_detected() {
        let path = tmp("holes");
        let g = GroupDef::new(
            "g",
            vec![VarDef::global_chunk(
                "x",
                Dtype::F64,
                vec![Dim::c(8)],
                vec![Dim::c(4)],
                vec![Dim::c(0)],
            )],
        )
        .unwrap();
        let mut w = BpWriter::create(&path).unwrap();
        let mut pg = ProcessGroup::new("g", 0, 0);
        pg.write(&g, "x", DataArray::F64(vec![0.0; 4])).unwrap();
        w.append_pg(&pg).unwrap(); // only half the global written
        w.finish().unwrap();
        let mut r = BpReader::open(&path).unwrap();
        assert!(matches!(
            r.read_global("x", 0),
            Err(BpError::IncompleteTiling {
                covered: 4,
                expected: 8,
                ..
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_var_and_step() {
        let path = tmp("missing");
        write_strips(&path, 2);
        let mut r = BpReader::open(&path).unwrap();
        assert!(matches!(
            r.read_global("ghost", 0),
            Err(BpError::NotFound { .. })
        ));
        assert!(matches!(
            r.read_global("field", 9),
            Err(BpError::NotFound { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn minmax_pruning() {
        let path = tmp("prune");
        write_strips(&path, 8); // values 0..32 in 8 strips
        let r = BpReader::open(&path).unwrap();
        // Values 30..31 live only in the last strip's rows; min/max per
        // chunk spans full columns, so pruning keeps chunks whose range
        // intersects [30, 31].
        let hits = r.chunks_possibly_in_range("field", 0, 30.0, 31.0);
        assert!(!hits.is_empty() && hits.len() < 8);
        let all = r.chunks_possibly_in_range("field", 0, f64::MIN, f64::MAX);
        assert_eq!(all.len(), 8);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scalar_read() {
        let path = tmp("scalar");
        write_strips(&path, 2);
        let mut r = BpReader::open(&path).unwrap();
        let v = r.read_scalar("oy", 0, 1).unwrap();
        assert_eq!(v, DataArray::U64(vec![4]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_non_bp_files() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a bp file at all............").unwrap();
        assert!(matches!(BpReader::open(&path), Err(BpError::Corrupt(_))));
        std::fs::write(&path, b"tiny").unwrap();
        assert!(BpReader::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
