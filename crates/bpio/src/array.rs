//! Typed data arrays and N-dimensional box arithmetic.
//!
//! All arrays are row-major (C order): the last dimension is contiguous.
//! These helpers are shared by the writer (chunk encode), reader (global
//! assembly), the PreDatA re-organization operator (chunk merging) and
//! DataSpaces puts; every box walk among them is a [`BoxRuns`] walk.

use crate::dtype::Dtype;
use crate::error::{BpError, Result};

/// An owned, typed 1-D buffer holding the elements of an N-D array.
#[derive(Debug, Clone, PartialEq)]
pub enum DataArray {
    F32(Vec<f32>),
    F64(Vec<f64>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

impl DataArray {
    pub fn dtype(&self) -> Dtype {
        match self {
            DataArray::F32(_) => Dtype::F32,
            DataArray::F64(_) => Dtype::F64,
            DataArray::I32(_) => Dtype::I32,
            DataArray::I64(_) => Dtype::I64,
            DataArray::U32(_) => Dtype::U32,
            DataArray::U64(_) => Dtype::U64,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            DataArray::F32(v) => v.len(),
            DataArray::F64(v) => v.len(),
            DataArray::I32(v) => v.len(),
            DataArray::I64(v) => v.len(),
            DataArray::U32(v) => v.len(),
            DataArray::U64(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn byte_len(&self) -> usize {
        self.len() * self.dtype().size()
    }

    /// Zero-filled array of `n` elements.
    pub fn zeros(dtype: Dtype, n: usize) -> DataArray {
        match dtype {
            Dtype::F32 => DataArray::F32(vec![0.0; n]),
            Dtype::F64 => DataArray::F64(vec![0.0; n]),
            Dtype::I32 => DataArray::I32(vec![0; n]),
            Dtype::I64 => DataArray::I64(vec![0; n]),
            Dtype::U32 => DataArray::U32(vec![0; n]),
            Dtype::U64 => DataArray::U64(vec![0; n]),
        }
    }

    /// Little-endian payload bytes.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        match self {
            DataArray::F32(v) => v
                .iter()
                .for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
            DataArray::F64(v) => v
                .iter()
                .for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
            DataArray::I32(v) => v
                .iter()
                .for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
            DataArray::I64(v) => v
                .iter()
                .for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
            DataArray::U32(v) => v
                .iter()
                .for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
            DataArray::U64(v) => v
                .iter()
                .for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
        }
        out
    }

    /// Little-endian payload bytes, borrowed when possible.
    ///
    /// On little-endian targets (every platform this runs on in
    /// practice) the in-memory element buffer *is* the wire encoding,
    /// so this returns a borrowed byte view of it — the writer hands
    /// the view straight to a vectored write and the payload is never
    /// re-assembled. Other targets fall back to the byte-swapping copy
    /// of [`DataArray::to_le_bytes`], counted in the
    /// `predata.bytes_copied` counter so the copy stays visible.
    pub fn as_le_bytes(&self) -> std::borrow::Cow<'_, [u8]> {
        #[cfg(target_endian = "little")]
        {
            fn view<T>(v: &[T]) -> &[u8] {
                // Safety: T is a primitive numeric type (f32/f64/iN/uN):
                // no padding, no invalid byte patterns, and the slice
                // spans exactly len * size_of::<T>() initialized bytes.
                unsafe {
                    std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v))
                }
            }
            std::borrow::Cow::Borrowed(match self {
                DataArray::F32(v) => view(v),
                DataArray::F64(v) => view(v),
                DataArray::I32(v) => view(v),
                DataArray::I64(v) => view(v),
                DataArray::U32(v) => view(v),
                DataArray::U64(v) => view(v),
            })
        }
        #[cfg(not(target_endian = "little"))]
        {
            let bytes = self.to_le_bytes();
            obs::global()
                .counter("predata.bytes_copied", &[("site", "bpio.byteswap")])
                .add(bytes.len() as u64);
            std::borrow::Cow::Owned(bytes)
        }
    }

    /// Decode from little-endian payload bytes.
    pub fn from_le_bytes(dtype: Dtype, bytes: &[u8]) -> Result<DataArray> {
        let mut out = DataArray::zeros(dtype, bytes.len() / dtype.size());
        out.decode_le_at(0, bytes)?;
        Ok(out)
    }

    /// Decode little-endian `bytes` into the elements starting at `at`.
    /// Panics if they do not fit.
    pub(crate) fn decode_le_at(&mut self, at: usize, bytes: &[u8]) -> Result<()> {
        if !bytes.len().is_multiple_of(self.dtype().size()) {
            return Err(BpError::Corrupt("payload not a multiple of element size"));
        }
        macro_rules! dec {
            ($v:expr, $t:ty) => {{
                const SIZE: usize = std::mem::size_of::<$t>();
                let n = bytes.len() / SIZE;
                for (x, b) in $v[at..at + n].iter_mut().zip(bytes.chunks_exact(SIZE)) {
                    *x = <$t>::from_le_bytes(b.try_into().expect("chunks_exact gives SIZE bytes"));
                }
            }};
        }
        match self {
            DataArray::F32(v) => dec!(v, f32),
            DataArray::F64(v) => dec!(v, f64),
            DataArray::I32(v) => dec!(v, i32),
            DataArray::I64(v) => dec!(v, i64),
            DataArray::U32(v) => dec!(v, u32),
            DataArray::U64(v) => dec!(v, u64),
        }
        Ok(())
    }

    /// (min, max) of the elements, widened to f64 — the per-chunk
    /// characteristics stored in the footer index. Empty arrays give None.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        fn mm<T: Copy + PartialOrd, F: Fn(T) -> f64>(v: &[T], to: F) -> Option<(f64, f64)> {
            if v.is_empty() {
                return None;
            }
            let mut lo = v[0];
            let mut hi = v[0];
            for &x in &v[1..] {
                if x < lo {
                    lo = x;
                }
                if x > hi {
                    hi = x;
                }
            }
            Some((to(lo), to(hi)))
        }
        match self {
            DataArray::F32(v) => mm(v, |x| x as f64),
            DataArray::F64(v) => mm(v, |x| x),
            DataArray::I32(v) => mm(v, |x| x as f64),
            DataArray::I64(v) => mm(v, |x| x as f64),
            DataArray::U32(v) => mm(v, |x| x as f64),
            DataArray::U64(v) => mm(v, |x| x as f64),
        }
    }

    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            DataArray::F64(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<&[u64]> {
        match self {
            DataArray::U64(v) => Some(v),
            _ => None,
        }
    }
}

/// Element count of a box with the given extents.
pub fn linear_len(extents: &[u64]) -> u64 {
    extents.iter().product()
}

/// Row-major linear index of `coord` within a box of `extents`.
pub fn box_to_linear(coord: &[u64], extents: &[u64]) -> u64 {
    debug_assert_eq!(coord.len(), extents.len());
    let mut idx = 0;
    for (c, e) in coord.iter().zip(extents) {
        debug_assert!(c < e);
        idx = idx * e + c;
    }
    idx
}

/// One contiguous run of a box walk: `len` elements that start at
/// element `a` of the first container and at element `b` of the second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub a: usize,
    pub b: usize,
    pub len: usize,
}

/// The contiguous runs of a box inside two row-major containers, in
/// row-major order: the one kernel behind every box copy, box read and
/// DataSpaces fill-mask update.
///
/// A run always spans the box's last dimension. Each trailing dimension
/// that the box spans fully in *both* containers folds the dimension
/// before it into the run too, so a box of whole rows is a single run,
/// and a box equal to both containers is one run of its whole volume. A
/// box with a zero extent has no runs. The walk allocates once, for its
/// odometer over the unfolded outer dimensions, never per run.
#[derive(Debug)]
pub struct BoxRuns {
    /// Unfolded outer dimensions, innermost first.
    outer: Vec<Outer>,
    next: Option<Run>,
}

#[derive(Debug)]
struct Outer {
    extent: usize,
    pos: usize,
    a_stride: usize,
    b_stride: usize,
}

impl BoxRuns {
    /// Runs of the box `[corner, corner + extent)` inside the containers
    /// `[a_corner, a_corner + a_extent)` and `[b_corner, b_corner +
    /// b_extent)`, all given in one coordinate frame. The box must lie
    /// inside both containers.
    pub fn new(
        corner: &[u64],
        extent: &[u64],
        a_corner: &[u64],
        a_extent: &[u64],
        b_corner: &[u64],
        b_extent: &[u64],
    ) -> Result<BoxRuns> {
        let ndim = extent.len();
        if [corner, a_corner, a_extent, b_corner, b_extent]
            .iter()
            .any(|s| s.len() != ndim)
        {
            return Err(BpError::Corrupt("box rank mismatch"));
        }
        let inside = |c: &[u64], e: &[u64]| {
            (0..ndim).all(|d| c[d] <= corner[d] && corner[d] + extent[d] <= c[d] + e[d])
        };
        if !inside(a_corner, a_extent) || !inside(b_corner, b_extent) {
            return Err(BpError::OutOfBounds { var: String::new() });
        }
        // Dimensions k.. form one run: fold while the box spans dim k
        // whole in both containers.
        let mut k = ndim.saturating_sub(1);
        while k > 0 && extent[k] == a_extent[k] && extent[k] == b_extent[k] {
            k -= 1;
        }
        let mut outer = Vec::with_capacity(k);
        let (mut a, mut b, mut a_stride, mut b_stride) = (0, 0, 1, 1);
        for d in (0..ndim).rev() {
            a += (corner[d] - a_corner[d]) as usize * a_stride;
            b += (corner[d] - b_corner[d]) as usize * b_stride;
            if d < k {
                outer.push(Outer {
                    extent: extent[d] as usize,
                    pos: 0,
                    a_stride,
                    b_stride,
                });
            }
            a_stride *= a_extent[d] as usize;
            b_stride *= b_extent[d] as usize;
        }
        let len = linear_len(&extent[k..]) as usize;
        let next = (!extent.contains(&0)).then_some(Run { a, b, len });
        Ok(BoxRuns { outer, next })
    }
}

impl Iterator for BoxRuns {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        let run = self.next?;
        let mut next = run;
        for o in &mut self.outer {
            o.pos += 1;
            next.a += o.a_stride;
            next.b += o.b_stride;
            if o.pos < o.extent {
                self.next = Some(next);
                return Some(run);
            }
            o.pos = 0;
            next.a -= o.extent * o.a_stride;
            next.b -= o.extent * o.b_stride;
        }
        self.next = None;
        Some(run)
    }
}

/// Copy a row-major chunk (`src`, occupying the box at `offset` with
/// `extents`) into the right places of a row-major global buffer
/// (`dst`, with `global` extents), one contiguous [`BoxRuns`] run at a
/// time — the access pattern a real reorganizer uses.
///
/// Returns the number of contiguous runs copied (1 when the chunk spans
/// whole rows of the global array — the merged-layout fast path).
pub fn copy_box(
    src: &DataArray,
    dst: &mut DataArray,
    offset: &[u64],
    extents: &[u64],
    global: &[u64],
) -> Result<u64> {
    let origin = vec![0; global.len()];
    copy_box_between(src, offset, extents, dst, &origin, global, offset, extents)
}

/// Copy the box `isect` (given in global coordinates) from a row-major
/// `src` buffer occupying box (`src_corner`, `src_extent`) into a
/// row-major `dst` buffer occupying (`dst_corner`, `dst_extent`).
/// `isect` must lie within both boxes, and each buffer must hold its
/// box exactly. Returns the number of contiguous [`BoxRuns`] runs
/// copied.
#[allow(clippy::too_many_arguments)]
pub fn copy_box_between(
    src: &DataArray,
    src_corner: &[u64],
    src_extent: &[u64],
    dst: &mut DataArray,
    dst_corner: &[u64],
    dst_extent: &[u64],
    isect_corner: &[u64],
    isect_extent: &[u64],
) -> Result<u64> {
    let runs = BoxRuns::new(
        isect_corner,
        isect_extent,
        src_corner,
        src_extent,
        dst_corner,
        dst_extent,
    )?;
    if src.len() as u64 != linear_len(src_extent) || dst.len() as u64 != linear_len(dst_extent) {
        return Err(BpError::Corrupt("buffer length mismatch in box copy"));
    }
    macro_rules! go {
        ($s:expr, $d:expr) => {{
            let mut n = 0;
            for r in runs {
                $d[r.b..r.b + r.len].copy_from_slice(&$s[r.a..r.a + r.len]);
                n += 1;
            }
            Ok(n)
        }};
    }
    match (src, dst) {
        (DataArray::F32(s), DataArray::F32(d)) => go!(s, d),
        (DataArray::F64(s), DataArray::F64(d)) => go!(s, d),
        (DataArray::I32(s), DataArray::I32(d)) => go!(s, d),
        (DataArray::I64(s), DataArray::I64(d)) => go!(s, d),
        (DataArray::U32(s), DataArray::U32(d)) => go!(s, d),
        (DataArray::U64(s), DataArray::U64(d)) => go!(s, d),
        (s, d) => Err(BpError::DtypeMismatch {
            var: String::new(),
            expected: d.dtype().name(),
            got: s.dtype().name(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_bytes_roundtrip_all_dtypes() {
        let arrays = [
            DataArray::F32(vec![1.5, -2.5]),
            DataArray::F64(vec![1.0e300, -0.5]),
            DataArray::I32(vec![i32::MIN, 7]),
            DataArray::I64(vec![i64::MAX, -1]),
            DataArray::U32(vec![0, u32::MAX]),
            DataArray::U64(vec![u64::MAX, 42]),
        ];
        for a in arrays {
            let bytes = a.to_le_bytes();
            let back = DataArray::from_le_bytes(a.dtype(), &bytes).unwrap();
            assert_eq!(a, back);
        }
    }

    #[test]
    fn as_le_bytes_matches_owned_encoding() {
        let arrays = [
            DataArray::F32(vec![1.5, -2.5]),
            DataArray::F64(vec![1.0e300, -0.5]),
            DataArray::I32(vec![i32::MIN, 7]),
            DataArray::I64(vec![i64::MAX, -1]),
            DataArray::U32(vec![0, u32::MAX]),
            DataArray::U64(vec![u64::MAX, 42]),
        ];
        for a in arrays {
            assert_eq!(&a.as_le_bytes()[..], &a.to_le_bytes()[..]);
        }
        assert_eq!(&DataArray::F64(vec![]).as_le_bytes()[..], &[] as &[u8]);
    }

    #[test]
    fn from_le_rejects_ragged() {
        assert!(DataArray::from_le_bytes(Dtype::F64, &[0u8; 12]).is_err());
    }

    #[test]
    fn min_max_characteristics() {
        assert_eq!(
            DataArray::F64(vec![3.0, -1.0, 2.0]).min_max(),
            Some((-1.0, 3.0))
        );
        assert_eq!(DataArray::U32(vec![]).min_max(), None);
        assert_eq!(DataArray::I64(vec![5]).min_max(), Some((5.0, 5.0)));
    }

    #[test]
    fn linear_index_row_major() {
        // 2x3 array: (1,2) → 1*3+2 = 5
        assert_eq!(box_to_linear(&[1, 2], &[2, 3]), 5);
        assert_eq!(box_to_linear(&[0, 0, 0], &[4, 4, 4]), 0);
        assert_eq!(box_to_linear(&[3, 3, 3], &[4, 4, 4]), 63);
    }

    #[test]
    fn copy_box_2d_quadrants() {
        // Assemble a 4x4 global from four 2x2 chunks.
        let mut global = DataArray::zeros(Dtype::I32, 16);
        let mk = |v: i32| DataArray::I32(vec![v; 4]);
        for (v, off) in [(1, [0, 0]), (2, [0, 2]), (3, [2, 0]), (4, [2, 2])] {
            let runs = copy_box(&mk(v), &mut global, &off, &[2, 2], &[4, 4]).unwrap();
            assert_eq!(runs, 2); // two rows per 2x2 chunk
        }
        let DataArray::I32(g) = global else {
            unreachable!()
        };
        #[rustfmt::skip]
        assert_eq!(g, vec![
            1, 1, 2, 2,
            1, 1, 2, 2,
            3, 3, 4, 4,
            3, 3, 4, 4,
        ]);
    }

    #[test]
    fn copy_box_full_width_is_one_run() {
        // A chunk spanning entire rows folds into one run of both rows.
        let chunk = DataArray::U64((0..8).collect());
        let mut global = DataArray::zeros(Dtype::U64, 16);
        let runs = copy_box(&chunk, &mut global, &[2, 0], &[2, 4], &[4, 4]).unwrap();
        assert_eq!(runs, 1);
        let DataArray::U64(g) = global else {
            unreachable!()
        };
        assert_eq!(&g[8..], &(0..8).collect::<Vec<u64>>()[..]);
    }

    #[test]
    fn copy_box_3d() {
        // 2x2x2 chunk into 2x2x4 global at offset (0,0,2).
        let chunk = DataArray::F64((0..8).map(|x| x as f64).collect());
        let mut global = DataArray::zeros(Dtype::F64, 16);
        copy_box(&chunk, &mut global, &[0, 0, 2], &[2, 2, 2], &[2, 2, 4]).unwrap();
        let DataArray::F64(g) = global else {
            unreachable!()
        };
        // Element (i,j,k) of chunk lands at linear ((i*2)+j)*4 + (k+2).
        assert_eq!(g[2], 0.0 + 0.0); // (0,0,2) ← chunk (0,0,0)=0
        assert_eq!(g[3], 1.0); // (0,0,3) ← chunk 1
        assert_eq!(g[6], 2.0); // (0,1,2) ← chunk 2
        assert_eq!(g[15], 7.0); // (1,1,3) ← chunk 7
        assert_eq!(g[0], 0.0);
        assert_eq!(g[4], 0.0);
    }

    #[test]
    fn copy_box_bounds_checked() {
        let chunk = DataArray::I32(vec![0; 4]);
        let mut global = DataArray::zeros(Dtype::I32, 16);
        assert!(matches!(
            copy_box(&chunk, &mut global, &[3, 3], &[2, 2], &[4, 4]),
            Err(BpError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn copy_box_between_partial_overlap() {
        // src box at (2,2) 4x4 holding 1..16; dst box at (0,0) 6x6 zeros;
        // copy the intersection (4,4)..(6,6).
        let src = DataArray::I32((1..=16).collect());
        let mut dst = DataArray::zeros(Dtype::I32, 36);
        let runs = copy_box_between(
            &src,
            &[2, 2],
            &[4, 4],
            &mut dst,
            &[0, 0],
            &[6, 6],
            &[4, 4],
            &[2, 2],
        )
        .unwrap();
        assert_eq!(runs, 2);
        let DataArray::I32(d) = dst else {
            unreachable!()
        };
        // src element at global (4,4) = local (2,2) = idx 2*4+2 = 10 → value 11.
        assert_eq!(d[4 * 6 + 4], 11);
        assert_eq!(d[4 * 6 + 5], 12);
        assert_eq!(d[5 * 6 + 4], 15);
        assert_eq!(d[5 * 6 + 5], 16);
        assert_eq!(d.iter().filter(|&&x| x != 0).count(), 4);
    }

    #[test]
    fn copy_box_between_bounds_checked() {
        let src = DataArray::U64(vec![0; 4]);
        let mut dst = DataArray::zeros(Dtype::U64, 4);
        assert!(copy_box_between(
            &src,
            &[0, 0],
            &[2, 2],
            &mut dst,
            &[0, 0],
            &[2, 2],
            &[1, 1],
            &[2, 2], // exceeds both boxes
        )
        .is_err());
    }

    #[test]
    fn copy_box_between_length_checked() {
        // Each buffer must hold its box exactly: a short one is an error,
        // not a slice-index panic.
        let short = DataArray::U64(vec![0; 3]);
        let mut dst = DataArray::zeros(Dtype::U64, 4);
        let b = [0, 0];
        let e = [2, 2];
        assert!(matches!(
            copy_box_between(&short, &b, &e, &mut dst, &b, &e, &b, &e),
            Err(BpError::Corrupt(_))
        ));
        let src = DataArray::U64(vec![0; 4]);
        let mut long = DataArray::zeros(Dtype::U64, 5);
        assert!(matches!(
            copy_box_between(&src, &b, &e, &mut long, &b, &e, &b, &e),
            Err(BpError::Corrupt(_))
        ));
    }

    #[test]
    fn box_runs_fold_whole_dimensions() {
        let runs = |c: &[u64], e: &[u64], ae: &[u64], be: &[u64]| {
            let zero = vec![0; e.len()];
            BoxRuns::new(c, e, &zero, ae, &zero, be)
                .unwrap()
                .map(|r| (r.a, r.b, r.len))
                .collect::<Vec<_>>()
        };
        // Equal to both containers: one run of the whole volume.
        assert_eq!(
            runs(&[0, 0, 0], &[2, 3, 4], &[2, 3, 4], &[2, 3, 4]),
            [(0, 0, 24)]
        );
        // Whole rows of both: the two trailing dims fold.
        assert_eq!(
            runs(&[1, 0, 0], &[1, 3, 4], &[2, 3, 4], &[4, 3, 4]),
            [(12, 12, 12)]
        );
        // A partial row in one container stops the fold at the last dim.
        assert_eq!(
            runs(&[0, 1], &[2, 2], &[2, 4], &[2, 3]),
            [(1, 1, 2), (5, 4, 2)]
        );
        // Zero extent: no runs. Rank 0: one element.
        assert!(runs(&[0, 0], &[2, 0], &[2, 4], &[2, 4]).is_empty());
        assert_eq!(runs(&[], &[], &[], &[]), [(0, 0, 1)]);
    }

    #[test]
    fn copy_box_dtype_checked() {
        let chunk = DataArray::F32(vec![0.0; 4]);
        let mut global = DataArray::zeros(Dtype::F64, 16);
        assert!(matches!(
            copy_box(&chunk, &mut global, &[0, 0], &[2, 2], &[4, 4]),
            Err(BpError::DtypeMismatch { .. })
        ));
    }
}
