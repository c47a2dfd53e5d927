//! Property tests for the box-run kernel: `BoxRuns`, `copy_box` and
//! `copy_box_between` agree with a naive walk of the box one element at
//! a time, on random rank 1–4 boxes.

use bpio::{box_to_linear, copy_box, copy_box_between, BoxRuns, DataArray, Dtype};
use proptest::prelude::*;

/// A box `[corner, corner + extent)` inside two containers `a` and `b`,
/// all in one coordinate frame.
#[derive(Debug, Clone)]
struct Case {
    corner: Vec<u64>,
    extent: Vec<u64>,
    a_corner: Vec<u64>,
    a_extent: Vec<u64>,
    b_corner: Vec<u64>,
    b_extent: Vec<u64>,
}

/// Random rank 1–4 cases. Extents are sometimes zero, and the margins
/// by which the containers reach past the box are mostly zero, so many
/// boxes span whole trailing dimensions (or equal both containers) and
/// the runs fold.
fn arb_case() -> impl Strategy<Value = Case> {
    let extent = prop::sample::select(vec![0u64, 1, 1, 2, 2, 3, 3, 4, 4, 5]);
    let margin = prop::sample::select(vec![0u64, 0, 0, 1, 2]);
    let dim = (
        0u64..=3,
        extent,
        margin.clone(),
        margin.clone(),
        margin.clone(),
        margin,
    );
    prop::collection::vec(dim, 1..=4).prop_map(|dims| {
        let mut c = Case {
            corner: vec![],
            extent: vec![],
            a_corner: vec![],
            a_extent: vec![],
            b_corner: vec![],
            b_extent: vec![],
        };
        for (base, e, a_lo, a_hi, b_lo, b_hi) in dims {
            let corner = base + 2; // margins are at most 2
            c.corner.push(corner);
            c.extent.push(e);
            c.a_corner.push(corner - a_lo);
            c.a_extent.push(a_lo + e + a_hi);
            c.b_corner.push(corner - b_lo);
            c.b_extent.push(b_lo + e + b_hi);
        }
        c
    })
}

/// Every coordinate of the box in row-major order, one element at a
/// time: the naive reference walk.
fn coords(corner: &[u64], extent: &[u64]) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    if extent.contains(&0) {
        return out;
    }
    let mut c = corner.to_vec();
    loop {
        out.push(c.clone());
        let mut d = extent.len();
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            c[d] += 1;
            if c[d] < corner[d] + extent[d] {
                break;
            }
            c[d] = corner[d];
        }
    }
}

/// Linear index of global coordinate `g` inside the box at `corner`.
fn local(g: &[u64], corner: &[u64], extent: &[u64]) -> usize {
    let rel: Vec<u64> = g.iter().zip(corner).map(|(g, c)| g - c).collect();
    box_to_linear(&rel, extent) as usize
}

fn runs(c: &Case) -> Vec<bpio::Run> {
    BoxRuns::new(
        &c.corner,
        &c.extent,
        &c.a_corner,
        &c.a_extent,
        &c.b_corner,
        &c.b_extent,
    )
    .unwrap()
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The runs cover exactly the box's elements, in row-major order,
    /// at the right offset in both containers, and no two consecutive
    /// runs could have been one.
    #[test]
    fn runs_match_per_element_walk(c in arb_case()) {
        let runs = runs(&c);
        let walked: Vec<(usize, usize)> = runs
            .iter()
            .flat_map(|r| (0..r.len).map(move |i| (r.a + i, r.b + i)))
            .collect();
        let naive: Vec<(usize, usize)> = coords(&c.corner, &c.extent)
            .iter()
            .map(|g| (local(g, &c.a_corner, &c.a_extent), local(g, &c.b_corner, &c.b_extent)))
            .collect();
        prop_assert_eq!(walked, naive);
        prop_assert!(runs.iter().all(|r| r.len > 0));
        for w in runs.windows(2) {
            prop_assert!(
                w[0].a + w[0].len != w[1].a || w[0].b + w[0].len != w[1].b,
                "runs {:?} and {:?} are contiguous in both containers", w[0], w[1]
            );
        }
        if c.extent == c.a_extent && c.extent == c.b_extent && !c.extent.contains(&0) {
            prop_assert_eq!(runs.len(), 1, "a box equal to both containers is one run");
        }
    }

    /// `copy_box_between` moves exactly the box's elements and touches
    /// nothing else of the destination.
    #[test]
    fn copy_box_between_matches_naive(c in arb_case()) {
        let a_len = c.a_extent.iter().product::<u64>();
        let b_len = c.b_extent.iter().product::<u64>() as usize;
        let src = DataArray::U64((1..=a_len).collect());
        let mut dst = DataArray::zeros(Dtype::U64, b_len);
        let n = copy_box_between(
            &src, &c.a_corner, &c.a_extent, &mut dst, &c.b_corner, &c.b_extent,
            &c.corner, &c.extent,
        )
        .unwrap();
        prop_assert_eq!(n, runs(&c).len() as u64);
        let mut expect = vec![0u64; b_len];
        for g in coords(&c.corner, &c.extent) {
            expect[local(&g, &c.b_corner, &c.b_extent)] =
                local(&g, &c.a_corner, &c.a_extent) as u64 + 1;
        }
        prop_assert_eq!(dst, DataArray::U64(expect));
    }

    /// `copy_box` places a chunk into a global buffer at its offset.
    #[test]
    fn copy_box_matches_naive(c in arb_case()) {
        // The chunk is the box; the global array is container b moved
        // to the origin.
        let offset: Vec<u64> = c.corner.iter().zip(&c.b_corner).map(|(x, b)| x - b).collect();
        let n_src = c.extent.iter().product::<u64>();
        let g_len = c.b_extent.iter().product::<u64>() as usize;
        let src = DataArray::F64((0..n_src).map(|v| v as f64 + 0.5).collect());
        let mut dst = DataArray::zeros(Dtype::F64, g_len);
        copy_box(&src, &mut dst, &offset, &c.extent, &c.b_extent).unwrap();
        let mut expect = vec![0.0; g_len];
        let origin = vec![0; offset.len()];
        for (i, g) in coords(&offset, &c.extent).iter().enumerate() {
            expect[local(g, &origin, &c.b_extent)] = i as f64 + 0.5;
        }
        prop_assert_eq!(dst, DataArray::F64(expect));
    }
}
