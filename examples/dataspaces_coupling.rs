//! Model-to-model coupling through DataSpaces (paper §IV-D, Fig. 6):
//! a producer indexes GTC particle data into the shared space while a
//! consumer application queries sub-regions, aggregates, and receives a
//! continuous-query update on every commit — the put()/get() coupling
//! pattern.
//!
//! ```text
//! cargo run --release --example dataspaces_coupling
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use predata::apps::GtcWorld;
use predata::bpio::DataArray;
use predata::core::schema::{COL_ID, COL_RANK, PARTICLE_WIDTH};
use predata::dataspaces::{
    DataSpaces, DsConfig, QueryService, QueryServiceConfig, Reduction, Region,
};

fn main() {
    let n_ranks = 8u64;
    let ids_per_rank = 512u64;
    let world = GtcWorld::new(n_ranks as usize, ids_per_rank as usize, 123);

    // The paper's domain: (local id, rank), uniformly distributed across
    // the staging cores — here 8 shards.
    let ds = Arc::new(DataSpaces::new(DsConfig::gtc_particles(
        n_ranks,
        ids_per_rank,
        8,
    )));
    println!(
        "DataSpaces over a {}x{} (id, rank) domain, {} shards",
        ids_per_rank,
        n_ranks,
        ds.config().n_shards
    );

    // A monitoring consumer registers a continuous query before any data:
    // every commit re-evaluates the mean over rank 0's column.
    let svc = QueryService::new(Arc::clone(&ds), QueryServiceConfig::default());
    let watch = Region::new(vec![0, 0], vec![ids_per_rank, 1]);
    let monitor = svc.subscribe_reduce("v_par", watch, Reduction::Avg, 4);

    // Querying application: 4 consumer threads, 11 consecutive queries
    // each over disjoint regions (the Fig. 9 workload pattern).
    const CONSUMERS: u64 = 4;
    const QUERIES: u32 = 11;
    let mut consumers = Vec::new();
    for q in 0..CONSUMERS {
        let ds = Arc::clone(&ds);
        let ids = ids_per_rank;
        consumers.push(std::thread::spawn(move || {
            let region = Region::new(vec![q * ids / CONSUMERS, 0], vec![ids / CONSUMERS, n_ranks]);
            let t_setup = Instant::now();
            let first = ds
                .get("v_par", 0, &region, Duration::from_secs(30))
                .unwrap();
            let setup = t_setup.elapsed();
            let t_q = Instant::now();
            for _ in 1..QUERIES {
                let again = ds
                    .get("v_par", 0, &region, Duration::from_secs(30))
                    .unwrap();
                assert_eq!(again.len(), first.len());
            }
            let per_query = t_q.elapsed() / (QUERIES - 1);
            (q, setup, per_query, first.len())
        }));
    }

    // Producer: index the dump — per-particle puts of the parallel
    // velocity, keyed by the immutable (id, rank) label.
    let t_index = Instant::now();
    let mut n_put = 0u64;
    for r in 0..n_ranks as usize {
        let pg = world.output_pg(r);
        let rows = predata::core::schema::particles_of(&pg).unwrap();
        for row in rows.chunks_exact(PARTICLE_WIDTH) {
            let region = Region::new(vec![row[COL_ID] as u64, row[COL_RANK] as u64], vec![1, 1]);
            ds.put("v_par", 0, &region, DataArray::F64(vec![row[3]]))
                .unwrap();
            n_put += 1;
        }
    }
    ds.commit("v_par", 0);
    println!(
        "producer: indexed {n_put} particles in {:.1} ms, shard loads {:?}",
        t_index.elapsed().as_secs_f64() * 1e3,
        ds.shard_block_counts()
    );

    for c in consumers {
        let (q, setup, per_query, n) = c.join().unwrap();
        println!(
            "consumer {q}: setup query {:>7.2} ms (includes commit wait), \
             subsequent queries {:>7.3} ms avg, {n} cells",
            setup.as_secs_f64() * 1e3,
            per_query.as_secs_f64() * 1e3
        );
    }

    // Aggregation queries over an application-meaningful sub-region.
    let sub = Region::new(vec![0, 0], vec![ids_per_rank, n_ranks / 2]);
    for how in [Reduction::Min, Reduction::Max, Reduction::Avg] {
        let v = ds
            .reduce("v_par", 0, &sub, how, Duration::from_secs(1))
            .unwrap();
        println!("reduction {how:?} over first {} ranks: {v:.4}", n_ranks / 2);
    }

    let update = monitor
        .recv(Duration::from_secs(10))
        .expect("the commit delivers a continuous-query update");
    svc.shutdown();
    assert_eq!(update.version, 0);
    assert!(monitor.try_recv().is_none(), "one update per commit");
    println!(
        "continuous query on rank-0 column: version {} mean {:.4} \
         ({n_put} puts / {} gets total through the space)",
        update.version,
        update.value,
        CONSUMERS * QUERIES as u64
    );
}
