//! Property tests for the BP-like format: arbitrary tilings of a global
//! array round-trip through files, and any `read_box` (of one file or of
//! a file set) equals a naive slice of the assembled array, read with
//! one op per maximal contiguous byte range it needs.

use std::path::PathBuf;

use bpio::{
    BpFileSet, BpReader, BpWriter, DataArray, Dim, Dtype, GroupDef, ProcessGroup, ReadStats, VarDef,
};
use proptest::prelude::*;

const G: [u64; 2] = [24, 16];

fn tmp(tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("bpio-prop");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("p{}-{tag}.bp", std::process::id()))
}

fn group() -> GroupDef {
    GroupDef::new(
        "g",
        vec![
            VarDef::scalar("o0", Dtype::U64),
            VarDef::scalar("o1", Dtype::U64),
            VarDef::scalar("l0", Dtype::U64),
            VarDef::scalar("l1", Dtype::U64),
            VarDef::global_chunk(
                "a",
                Dtype::F64,
                vec![Dim::c(G[0]), Dim::c(G[1])],
                vec![Dim::r("l0"), Dim::r("l1")],
                vec![Dim::r("o0"), Dim::r("o1")],
            ),
        ],
    )
    .unwrap()
}

/// Value of the global array at (i, j): its global linear index.
fn val(i: u64, j: u64) -> f64 {
    (i * G[1] + j) as f64
}

/// A row-tiling of the global array into `splits` horizontal strips,
/// each split further in the column direction.
fn arb_tiling() -> impl Strategy<Value = Vec<([u64; 2], [u64; 2])>> {
    // Cut points along each axis.
    (1u64..=4, 1u64..=4).prop_map(|(nr, nc)| {
        let mut tiles = Vec::new();
        for r in 0..nr {
            let r0 = G[0] * r / nr;
            let r1 = G[0] * (r + 1) / nr;
            for c in 0..nc {
                let c0 = G[1] * c / nc;
                let c1 = G[1] * (c + 1) / nc;
                tiles.push(([r0, c0], [r1 - r0, c1 - c0]));
            }
        }
        tiles
    })
}

/// A random sub-box of the global array; a third of them span whole
/// rows, so their runs fold across rows.
fn arb_box() -> impl Strategy<Value = ([u64; 2], [u64; 2])> {
    (
        0..G[0],
        0..G[1],
        prop::sample::select(vec![false, false, true]),
    )
        .prop_flat_map(|(c0, c1, whole_rows)| {
            let c1 = if whole_rows { 0 } else { c1 };
            (1..=G[0] - c0, 1..=G[1] - c1).prop_map(move |(e0, e1)| {
                let e1 = if whole_rows { G[1] } else { e1 };
                ([c0, c1], [e0, e1])
            })
        })
}

/// The naive slice of the global array.
fn naive(corner: [u64; 2], extent: [u64; 2]) -> DataArray {
    DataArray::F64(
        (0..extent[0])
            .flat_map(|i| (0..extent[1]).map(move |j| val(corner[0] + i, corner[1] + j)))
            .collect(),
    )
}

/// The read cost the box should have in the file `r`: one read op, and
/// one seek, per maximal contiguous byte range of the elements it needs.
fn expected_stats(r: &BpReader, corner: [u64; 2], extent: [u64; 2]) -> ReadStats {
    let mut offs = Vec::new();
    for c in r.index().chunks_of("a", 0) {
        for i in 0..c.local[0] {
            for j in 0..c.local[1] {
                let (gi, gj) = (c.offset_in_global[0] + i, c.offset_in_global[1] + j);
                if (corner[0]..corner[0] + extent[0]).contains(&gi)
                    && (corner[1]..corner[1] + extent[1]).contains(&gj)
                {
                    offs.push(c.file_offset + 8 * (i * c.local[1] + j));
                }
            }
        }
    }
    offs.sort_unstable();
    let ranges =
        offs.len().min(1) as u64 + offs.windows(2).filter(|w| w[1] != w[0] + 8).count() as u64;
    ReadStats {
        reads: ranges,
        seeks: ranges,
        bytes: 8 * offs.len() as u64,
    }
}

fn write_tiles(path: &PathBuf, tiles: &[([u64; 2], [u64; 2])]) {
    let def = group();
    let mut w = BpWriter::create(path).unwrap();
    for (rank, (off, loc)) in tiles.iter().enumerate() {
        let mut pg = ProcessGroup::new("g", rank as u64, 0);
        pg.write(&def, "o0", DataArray::U64(vec![off[0]])).unwrap();
        pg.write(&def, "o1", DataArray::U64(vec![off[1]])).unwrap();
        pg.write(&def, "l0", DataArray::U64(vec![loc[0]])).unwrap();
        pg.write(&def, "l1", DataArray::U64(vec![loc[1]])).unwrap();
        let mut data = Vec::with_capacity((loc[0] * loc[1]) as usize);
        for i in 0..loc[0] {
            for j in 0..loc[1] {
                data.push(val(off[0] + i, off[1] + j));
            }
        }
        pg.write(&def, "a", DataArray::F64(data)).unwrap();
        w.append_pg(&pg).unwrap();
    }
    w.finish().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any tiling reassembles to the same global array.
    #[test]
    fn any_tiling_assembles(tiles in arb_tiling(), tag in any::<u64>()) {
        let path = tmp(tag);
        write_tiles(&path, &tiles);
        let mut r = BpReader::open(&path).unwrap();
        let got = r.read_global("a", 0).unwrap();
        let expect: Vec<f64> =
            (0..G[0]).flat_map(|i| (0..G[1]).map(move |j| val(i, j))).collect();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(got, DataArray::F64(expect));
    }

    /// Any sub-box read equals the naive slice, whatever the tiling, and
    /// its read plan is exactly the maximal contiguous byte ranges it
    /// needs.
    #[test]
    fn any_box_matches_naive(tiles in arb_tiling(), bx in arb_box(), tag in any::<u64>()) {
        let (corner, extent) = bx;
        let path = tmp(tag.wrapping_add(1));
        write_tiles(&path, &tiles);
        let mut r = BpReader::open(&path).unwrap();
        let got = r.read_box("a", 0, &corner, &extent).unwrap();
        let stats = r.take_stats();
        let expect = expected_stats(&r, corner, extent);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(got, naive(corner, extent));
        prop_assert_eq!(stats, expect);
    }

    /// The footer index survives arbitrary append orders: chunk count and
    /// byte accounting are exact.
    #[test]
    fn index_accounts_exactly(tiles in arb_tiling(), tag in any::<u64>()) {
        let path = tmp(tag.wrapping_add(2));
        write_tiles(&path, &tiles);
        let r = BpReader::open(&path).unwrap();
        let chunks = r.index().chunks_of("a", 0);
        prop_assert_eq!(chunks.len(), tiles.len());
        let total: u64 = chunks.iter().map(|c| c.payload_len).sum();
        prop_assert_eq!(total, G[0] * G[1] * 8);
        // Characteristics: global min/max across chunks are the array's.
        let min = chunks.iter().map(|c| c.min).fold(f64::INFINITY, f64::min);
        let max = chunks.iter().map(|c| c.max).fold(f64::NEG_INFINITY, f64::max);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(min, 0.0);
        prop_assert_eq!(max, val(G[0] - 1, G[1] - 1));
    }

    /// With the tiles spread over several part files, a file set serves
    /// any box as the naive slice, each part reading only its own ranges.
    #[test]
    fn file_set_box_matches_naive(
        tiles in arb_tiling(),
        n_files in 1usize..=3,
        bx in arb_box(),
        tag in any::<u64>(),
    ) {
        let (corner, extent) = bx;
        let n_files = n_files.min(tiles.len());
        let paths: Vec<PathBuf> = (0..n_files)
            .map(|f| {
                let path = tmp(tag.wrapping_add(4 + f as u64));
                let mine: Vec<_> = tiles.iter().skip(f).step_by(n_files).copied().collect();
                write_tiles(&path, &mine);
                path
            })
            .collect();
        let expect = paths.iter().fold(ReadStats::default(), |acc, p| {
            let s = expected_stats(&BpReader::open(p).unwrap(), corner, extent);
            ReadStats {
                reads: acc.reads + s.reads,
                seeks: acc.seeks + s.seeks,
                bytes: acc.bytes + s.bytes,
            }
        });
        let mut set = BpFileSet::open(&paths).unwrap();
        let got = set.read_box("a", 0, &corner, &extent).unwrap();
        let stats = set.take_stats();
        for p in &paths {
            std::fs::remove_file(p).ok();
        }
        prop_assert_eq!(got, naive(corner, extent));
        prop_assert_eq!(stats, expect);
    }
}
