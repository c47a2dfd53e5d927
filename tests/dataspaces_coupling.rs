//! Model-to-model coupling through DataSpaces (paper §IV-D, Fig. 6):
//! the staging side indexes GTC's sorted particles into the shared space;
//! a concurrently-running "querying application" retrieves disjoint
//! sub-regions, issues reduction queries, and receives continuous-query
//! updates on every commit — all without blocking the producer.

use std::sync::Arc;
use std::time::Duration;

use predata::apps::GtcWorld;
use predata::bpio::DataArray;
use predata::core::schema::{COL_ID, COL_RANK, PARTICLE_WIDTH};
use predata::dataspaces::{
    ContinuousUpdate, DataSpaces, DsConfig, DsError, QueryService, QueryServiceConfig, Reduction,
    Region,
};

/// Index particles into the (local id, rank) domain the paper uses:
/// cell (id, rank) holds the particle's weight attribute.
fn index_particles(ds: &DataSpaces, world: &GtcWorld, version: u64) {
    index_particle_column(ds, world, version, 5)
}

/// Like [`index_particles`] but storing an arbitrary attribute column.
fn index_particle_column(ds: &DataSpaces, world: &GtcWorld, version: u64, column: usize) {
    let n_ranks = world.n_ranks();
    // Sort rows by label first (the paper indexes the *sorted* output).
    let mut rows: Vec<[f64; PARTICLE_WIDTH]> = Vec::new();
    for r in 0..n_ranks {
        let pg = world.output_pg(r);
        let data = predata::core::schema::particles_of(&pg).unwrap().to_vec();
        for row in data.chunks_exact(PARTICLE_WIDTH) {
            rows.push(row.try_into().unwrap());
        }
    }
    rows.sort_by_key(|r| predata::core::schema::particle_key(r));
    // Put per (rank) column: each particle is one cell.
    for row in rows {
        let (rank, id) = (row[COL_RANK] as u64, row[COL_ID] as u64);
        let region = Region::new(vec![id, rank], vec![1, 1]);
        ds.put(
            "weight",
            version,
            &region,
            DataArray::F64(vec![row[column]]),
        )
        .unwrap();
    }
    ds.commit("weight", version);
}

#[test]
fn coupled_querying_application() {
    let n_ranks = 4u64;
    let ids = 64u64;
    let world = GtcWorld::new(n_ranks as usize, ids as usize, 5);
    let ds = Arc::new(DataSpaces::new(DsConfig::new(
        vec![ids, n_ranks],
        vec![16, 2],
        4,
    )));

    // Continuous query registered *before* data arrives: every commit
    // of "weight" re-counts the watched cells.
    let svc = QueryService::new(Arc::clone(&ds), QueryServiceConfig::default());
    let watch_region = Region::new(vec![0, 0], vec![8, 1]);
    let updates = svc.subscribe_reduce("weight", watch_region, Reduction::Count, 4);

    // Querying application on 4 "cores", each polling a disjoint
    // (id-range, rank) sub-region — the paper's disjoint-region pattern.
    let mut handles = Vec::new();
    for q in 0..4u64 {
        let ds = Arc::clone(&ds);
        handles.push(std::thread::spawn(move || {
            let region = Region::new(vec![q * 16, 0], vec![16, 4]);
            // First query includes the implicit wait for the commit —
            // the paper's expensive "setup" query.
            let data = ds
                .get("weight", 0, &region, Duration::from_secs(10))
                .unwrap();
            // 10 more queries against the now-hot space.
            for _ in 0..10 {
                let again = ds
                    .get("weight", 0, &region, Duration::from_secs(10))
                    .unwrap();
                assert_eq!(again, data);
            }
            let v = data.as_f64().unwrap().to_vec();
            v.iter().sum::<f64>()
        }));
    }

    // Producer side: index the dump (the consumer threads block on the
    // commit meanwhile).
    index_particles(&ds, &world, 0);

    let query_sums: f64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    // Every particle's weight is in exactly one disjoint query region.
    let total_weight: f64 = (0..n_ranks as usize)
        .map(|r| {
            let pg = world.output_pg(r);
            predata::core::schema::particles_of(&pg)
                .unwrap()
                .chunks_exact(PARTICLE_WIDTH)
                .map(|row| row[5])
                .sum::<f64>()
        })
        .sum();
    assert!(
        (query_sums - total_weight).abs() < 1e-9 * total_weight,
        "disjoint queries recover all weights: {query_sums} vs {total_weight}"
    );

    // Reduction queries over the whole domain.
    let whole = Region::whole(&[ids, n_ranks]);
    let avg = ds
        .reduce("weight", 0, &whole, Reduction::Avg, Duration::from_secs(1))
        .unwrap();
    let cnt = ds
        .reduce(
            "weight",
            0,
            &whole,
            Reduction::Count,
            Duration::from_secs(1),
        )
        .unwrap();
    assert_eq!(cnt as u64, n_ranks * ids);
    assert!((avg - total_weight / cnt).abs() < 1e-12);
    let mx = ds
        .reduce("weight", 0, &whole, Reduction::Max, Duration::from_secs(1))
        .unwrap();
    assert!((0.5..=1.5).contains(&mx));

    // The continuous query fired once, for the one commit, and saw all
    // 8 particles put into ids 0..8 of rank 0.
    assert_eq!(
        updates.recv(Duration::from_secs(10)),
        Some(ContinuousUpdate {
            var: "weight".into(),
            version: 0,
            value: 8.0,
        })
    );
    svc.shutdown();
    assert_eq!(updates.try_recv(), None, "exactly one update per commit");

    // Load balance across shards (two-level balancing, level 1).
    let counts = ds.shard_block_counts();
    assert!(
        counts.iter().all(|&c| c > 0),
        "all shards hold data: {counts:?}"
    );
}

#[test]
fn second_step_reuses_space_and_evicts_old() {
    let world0 = GtcWorld::new(2, 32, 1);
    let mut world1 = GtcWorld::new(2, 32, 1);
    world1.step();
    let ds = DataSpaces::new(DsConfig::new(vec![32, 2], vec![8, 1], 2));
    // Index the velocity attribute, which drifts step to step.
    index_particle_column(&ds, &world0, 0, 3);
    index_particle_column(&ds, &world1, 1, 3);

    let whole = Region::whole(&[32, 2]);
    let v0 = ds.get("weight", 0, &whole, Duration::from_secs(1)).unwrap();
    let v1 = ds.get("weight", 1, &whole, Duration::from_secs(1)).unwrap();
    assert_ne!(v0, v1, "weights drift between steps");

    let dropped = ds.evict_before("weight", 1);
    assert!(dropped > 0);
    assert!(matches!(
        ds.session_now("weight", 0),
        Err(DsError::NotCommitted { .. })
    ));
    assert_eq!(
        ds.session_now("weight", 1).unwrap().get(&whole).unwrap(),
        v1
    );
}
