//! The sharded, versioned block index.
//!
//! Storage is split per shard into two planes:
//!
//! * a **pending** plane — mutable blocks still being filled by `put`s,
//!   guarded by one fine-grained mutex per shard (rustc-`Sharded` style,
//!   cache-line padded so neighbouring shard locks never false-share);
//! * a **committed** plane — immutable [`Arc`]'d blocks published as a
//!   whole-map snapshot behind a [`SnapCell`].
//!
//! `commit` *freezes* a version's pending blocks and publishes a new
//! committed map per touched shard (copy-on-write of the map, `Arc`
//! clones of untouched blocks), bumping the global **epoch**. Readers of
//! committed data clone the shard snapshots once at admission and then
//! scan without touching any lock a writer uses: puts only ever lock the
//! pending plane, so committed-version queries never block puts and puts
//! never block queries. An in-flight scan holds its snapshot `Arc`s, so
//! a concurrent `evict_before` or commit can never corrupt it — eviction
//! publishes a *new* map and the old one dies when the last reader drops
//! it (snapshot isolation by reference counting).
//!
//! Keys are fully numeric — `(interned var id, version, linear grid
//! index)` — so index probes allocate nothing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bpio::{DataArray, Dtype};
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::domain::Region;

/// Key of one stored block: (var id, version, linear grid index).
pub(crate) type BlockKey = (u32, u64, u64);

/// One stored block: the clipped block region, its data, and a
/// per-element fill mask (puts may cover a block partially, from several
/// writers).
#[derive(Clone)]
pub(crate) struct Block {
    pub region: Region,
    pub data: DataArray,
    filled: Vec<u64>, // bitmask words
    pub n_filled: u64,
}

impl Block {
    pub fn new(region: Region, dtype: Dtype) -> Self {
        let n = region.volume() as usize;
        Block {
            data: DataArray::zeros(dtype, n),
            filled: vec![0; n.div_ceil(64)],
            n_filled: 0,
            region,
        }
    }

    #[cfg(test)]
    pub fn mark(&mut self, local_idx: u64) {
        let w = (local_idx / 64) as usize;
        let b = 1u64 << (local_idx % 64);
        if self.filled[w] & b == 0 {
            self.filled[w] |= b;
            self.n_filled += 1;
        }
    }

    pub fn is_set(&self, local_idx: u64) -> bool {
        self.filled[(local_idx / 64) as usize] & (1 << (local_idx % 64)) != 0
    }

    /// Mark elements `[start, start + len)` filled, a mask word at a time.
    fn mark_range(&mut self, start: usize, len: usize) {
        let end = start + len;
        let mut i = start;
        while i < end {
            let (w, bit) = (i / 64, i % 64);
            let n = (64 - bit).min(end - i);
            let mask = (u64::MAX >> (64 - n)) << bit;
            self.n_filled += (mask & !self.filled[w]).count_ones() as u64;
            self.filled[w] |= mask;
            i += n;
        }
    }
}

/// Mark every element of `isect` (global coords) filled in `block`.
pub(crate) fn mark_region(block: &mut Block, isect: &Region) {
    let r = &block.region;
    let runs = bpio::BoxRuns::new(
        &isect.corner,
        &isect.extent,
        &r.corner,
        &r.extent,
        &r.corner,
        &r.extent,
    )
    .expect("isect lies inside its block");
    for run in runs {
        block.mark_range(run.a, run.len);
    }
}

pub(crate) fn count_filled(block: &Block, isect: &Region) -> u64 {
    let mut n = 0;
    visit(block, isect, |b, idx| {
        if b.is_set(idx) {
            n += 1;
        }
    });
    n
}

pub(crate) fn for_each_filled(block: &Block, isect: &Region, mut f: impl FnMut(f64)) {
    visit(block, isect, |b, idx| {
        if b.is_set(idx) {
            f(value_at(&b.data, idx as usize));
        }
    });
}

fn visit(block: &Block, isect: &Region, mut f: impl FnMut(&Block, u64)) {
    let ndim = isect.rank();
    let mut coord = vec![0u64; ndim];
    let n = isect.volume();
    for _ in 0..n {
        let local: Vec<u64> = (0..ndim)
            .map(|d| isect.corner[d] + coord[d] - block.region.corner[d])
            .collect();
        f(block, bpio::box_to_linear(&local, &block.region.extent));
        for d in (0..ndim).rev() {
            coord[d] += 1;
            if coord[d] < isect.extent[d] {
                break;
            }
            coord[d] = 0;
        }
    }
}

pub(crate) fn value_at(data: &DataArray, idx: usize) -> f64 {
    match data {
        DataArray::F32(v) => v[idx] as f64,
        DataArray::F64(v) => v[idx],
        DataArray::I32(v) => v[idx] as f64,
        DataArray::I64(v) => v[idx] as f64,
        DataArray::U32(v) => v[idx] as f64,
        DataArray::U64(v) => v[idx] as f64,
    }
}

/// The published (immutable) face of one shard.
pub(crate) type BlockMap = HashMap<BlockKey, Arc<Block>>;

/// Pad shard state to a cache line so adjacent shard locks do not
/// false-share under concurrent writers.
#[repr(align(64))]
struct CacheAligned<T>(T);

/// An atomically-swappable published snapshot. Writers replace the
/// `Arc` wholesale (brief exclusive access at commit/evict only);
/// readers clone the `Arc` under a shared guard held for a pointer
/// copy. Put traffic never touches this cell at all.
pub(crate) struct SnapCell<T> {
    slot: RwLock<Arc<T>>,
}

impl<T> SnapCell<T> {
    fn new(value: T) -> Self {
        SnapCell {
            slot: RwLock::new(Arc::new(value)),
        }
    }

    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot.read())
    }

    fn store(&self, value: Arc<T>) {
        *self.slot.write() = value;
    }
}

struct Shard {
    /// Uncommitted, mutable blocks. The only lock `put` takes.
    pending: Mutex<HashMap<BlockKey, Block>>,
    /// Committed, frozen blocks, published as a whole map.
    committed: SnapCell<BlockMap>,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            pending: Mutex::new(HashMap::new()),
            committed: SnapCell::new(BlockMap::new()),
        }
    }
}

/// All shards plus the publication epoch.
pub(crate) struct ShardIndex {
    shards: Box<[CacheAligned<Shard>]>,
    /// Bumped on every publication (commit or evict). A snapshot
    /// records the epoch it was taken at; two snapshots with the same
    /// epoch are identical.
    epoch: AtomicU64,
    /// Put-side lock contention: how often a pending-plane lock was
    /// found held (the per-shard contention signal in the obs registry).
    contended: obs::Counter,
}

impl ShardIndex {
    pub fn new(n_shards: usize) -> Self {
        ShardIndex {
            shards: (0..n_shards)
                .map(|_| CacheAligned(Shard::default()))
                .collect(),
            epoch: AtomicU64::new(0),
            contended: obs::global().counter("dataspaces.shard_contended", &[]),
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Lock one shard's pending plane, counting contention.
    fn lock_pending(&self, shard: usize) -> MutexGuard<'_, HashMap<BlockKey, Block>> {
        let m = &self.shards[shard].0.pending;
        match m.try_lock() {
            Some(g) => g,
            None => {
                self.contended.inc();
                m.lock()
            }
        }
    }

    /// Run `f` on the pending block `key` of `shard`, creating it first
    /// if absent. A put that lands on an already-committed block
    /// (put-after-commit, made visible by a later re-commit) starts from
    /// a private clone of the committed block, so the published snapshot
    /// stays frozen.
    pub fn with_block<R>(
        &self,
        shard: usize,
        key: BlockKey,
        mk: impl FnOnce() -> Block,
        f: impl FnOnce(&mut Block) -> R,
    ) -> R {
        let mut pending = self.lock_pending(shard);
        let block = pending.entry(key).or_insert_with(|| {
            match self.shards[shard].0.committed.load().get(&key) {
                Some(frozen) => Block::clone(frozen),
                None => mk(),
            }
        });
        f(block)
    }

    /// Freeze and publish every pending block of `(var, version)`:
    /// the epoch/snapshot publication point. Returns the number of
    /// blocks moved. Publication is copy-on-write per shard — map
    /// clones share untouched blocks by `Arc` — and serialized by the
    /// shard's pending lock, so concurrent commits of different
    /// variables cannot lose each other's blocks.
    pub fn publish(&self, var: u32, version: u64) -> usize {
        let mut moved = 0;
        for shard in self.shards.iter() {
            let shard = &shard.0;
            let mut pending = shard.pending.lock();
            let keys: Vec<BlockKey> = pending
                .keys()
                .filter(|(v, ver, _)| *v == var && *ver == version)
                .copied()
                .collect();
            if keys.is_empty() {
                continue;
            }
            let mut map = BlockMap::clone(&shard.committed.load());
            for key in keys {
                let block = pending.remove(&key).expect("key just enumerated");
                map.insert(key, Arc::new(block));
                moved += 1;
            }
            shard.committed.store(Arc::new(map));
        }
        self.bump_epoch();
        moved
    }

    /// Drop every block (pending and committed) of `var` with a version
    /// below `keep_from`. In-flight snapshots keep the old maps alive —
    /// eviction is publication of a smaller map, not destruction.
    pub fn evict_before(&self, var: u32, keep_from: u64) -> usize {
        let mut dropped = 0;
        for shard in self.shards.iter() {
            let shard = &shard.0;
            let mut pending = shard.pending.lock();
            let before = pending.len();
            pending.retain(|(v, ver, _), _| *v != var || *ver >= keep_from);
            dropped += before - pending.len();
            let committed = shard.committed.load();
            let doomed = committed
                .keys()
                .filter(|(v, ver, _)| *v == var && *ver < keep_from)
                .count();
            if doomed > 0 {
                let mut map = BlockMap::clone(&committed);
                map.retain(|(v, ver, _), _| *v != var || *ver >= keep_from);
                shard.committed.store(Arc::new(map));
                dropped += doomed;
            }
        }
        self.bump_epoch();
        dropped
    }

    /// Clone every shard's committed snapshot: the admission step of a
    /// lock-free committed read. One shared-guarded pointer copy per
    /// shard; no put-side lock is touched.
    pub fn snapshot(&self) -> Vec<Arc<BlockMap>> {
        self.shards.iter().map(|s| s.0.committed.load()).collect()
    }

    /// Clone the committed blocks held by `shards` — the export half of
    /// a membership handoff. `Arc` clones of frozen blocks: the source
    /// keeps serving in-flight readers untouched while the parcel is in
    /// transit.
    pub fn export_committed(&self, shards: &[usize]) -> Vec<(BlockKey, Arc<Block>)> {
        let mut out = Vec::new();
        for &s in shards {
            for (k, b) in self.shards[s].0.committed.load().iter() {
                out.push((*k, Arc::clone(b)));
            }
        }
        out
    }

    /// Republish handed-off blocks into their destination shards'
    /// committed planes — the import half of a membership handoff.
    /// Copy-on-write per shard, serialized against concurrent
    /// `publish`/`evict_before` by the shard's pending lock; a key the
    /// destination already committed keeps the destination's copy.
    /// Bumps the epoch once. Returns the number of blocks inserted.
    pub fn import_committed(&self, blocks: Vec<(usize, BlockKey, Arc<Block>)>) -> usize {
        let mut by_shard: HashMap<usize, Vec<(BlockKey, Arc<Block>)>> = HashMap::new();
        for (shard, key, block) in blocks {
            by_shard.entry(shard).or_default().push((key, block));
        }
        let mut inserted = 0;
        for (s, incoming) in by_shard {
            let shard = &self.shards[s].0;
            let _serialize = shard.pending.lock();
            let mut map = BlockMap::clone(&shard.committed.load());
            for (key, block) in incoming {
                map.entry(key).or_insert_with(|| {
                    inserted += 1;
                    block
                });
            }
            shard.committed.store(Arc::new(map));
        }
        self.bump_epoch();
        inserted
    }

    /// Distinct blocks held per shard (pending ∪ committed) — the
    /// first-level load-balance view.
    pub fn block_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| {
                let shard = &s.0;
                let pending = shard.pending.lock();
                let committed = shard.committed.load();
                let shadowed = pending
                    .keys()
                    .filter(|k| committed.contains_key(*k))
                    .count();
                pending.len() + committed.len() - shadowed
            })
            .collect()
    }

    /// Hold every shard's pending (put-side) lock — test hook proving
    /// committed reads take none of them.
    #[cfg(test)]
    pub fn lock_all_pending(&self) -> Vec<MutexGuard<'_, HashMap<BlockKey, Block>>> {
        self.shards.iter().map(|s| s.0.pending.lock()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn region(corner: u64, len: u64) -> Region {
        Region::new(vec![corner], vec![len])
    }

    /// A block region of rank 1–3 (volumes up to 210, so fills cross
    /// mask words) and partial puts inside it, possibly overlapping.
    fn arb_fills() -> impl Strategy<Value = (Region, Vec<Region>)> {
        let dim = (0u64..4, 1u64..=7);
        prop::collection::vec(dim, 1..=3).prop_flat_map(|dims| {
            let block = Region::new(
                dims.iter().map(|d| d.0).collect(),
                dims.iter().map(|d| d.1).collect(),
            );
            let fracs = prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), dims.len());
            let puts = prop::collection::vec(fracs, 1..=6).prop_map({
                let block = block.clone();
                move |puts| {
                    puts.into_iter()
                        .map(|f| {
                            let (mut corner, mut extent) = (vec![], vec![]);
                            for (d, (lo, len)) in f.into_iter().enumerate() {
                                let e = block.extent[d];
                                let c = (lo * e as f64) as u64;
                                corner.push(block.corner[d] + c);
                                extent.push(1 + (len * (e - c) as f64) as u64);
                            }
                            Region::new(corner, extent)
                        })
                        .collect()
                }
            });
            (Just(block), puts)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Marking whole runs sets the same bits, and counts the same
        /// newly filled elements, as marking one element at a time.
        #[test]
        fn mark_region_matches_per_element_marks(case in arb_fills()) {
            let (region, puts) = case;
            let mut fast = Block::new(region.clone(), Dtype::U32);
            let mut slow = Block::new(region.clone(), Dtype::U32);
            for put in &puts {
                mark_region(&mut fast, put);
                let local = Region::new(
                    put.corner.iter().zip(&region.corner).map(|(p, b)| p - b).collect(),
                    put.extent.clone(),
                );
                let mut coord = local.corner.clone();
                for _ in 0..put.volume() {
                    slow.mark(bpio::box_to_linear(&coord, &region.extent));
                    for d in (0..coord.len()).rev() {
                        coord[d] += 1;
                        if coord[d] < local.corner[d] + local.extent[d] {
                            break;
                        }
                        coord[d] = local.corner[d];
                    }
                }
                prop_assert_eq!(fast.n_filled, slow.n_filled);
            }
            prop_assert_eq!(&fast.filled, &slow.filled);
        }
    }

    #[test]
    fn publish_moves_pending_to_committed_and_bumps_epoch() {
        let idx = ShardIndex::new(2);
        let e0 = idx.epoch();
        idx.with_block(
            0,
            (1, 0, 0),
            || Block::new(region(0, 4), Dtype::F64),
            |b| b.mark(0),
        );
        assert!(idx.snapshot()[0].is_empty(), "pending is not published");
        assert_eq!(idx.publish(1, 0), 1);
        assert!(idx.epoch() > e0);
        assert!(idx.snapshot()[0].contains_key(&(1, 0, 0)));
        // Re-publishing with nothing pending moves nothing.
        assert_eq!(idx.publish(1, 0), 0);
    }

    #[test]
    fn snapshots_survive_eviction() {
        let idx = ShardIndex::new(1);
        idx.with_block(
            0,
            (1, 0, 0),
            || Block::new(region(0, 4), Dtype::F64),
            |b| b.mark(1),
        );
        idx.publish(1, 0);
        let snap = idx.snapshot();
        assert_eq!(idx.evict_before(1, 5), 1);
        assert!(idx.snapshot()[0].is_empty(), "new readers see the eviction");
        assert!(
            snap[0].contains_key(&(1, 0, 0)),
            "old snapshot still holds the block"
        );
    }

    #[test]
    fn put_after_commit_clones_the_frozen_block() {
        let idx = ShardIndex::new(1);
        idx.with_block(
            0,
            (1, 0, 0),
            || Block::new(region(0, 4), Dtype::F64),
            |b| b.mark(0),
        );
        idx.publish(1, 0);
        // A later put unshares; the published block is untouched.
        idx.with_block(
            0,
            (1, 0, 0),
            || unreachable!("committed block must seed the clone"),
            |b| {
                assert!(b.is_set(0), "clone carries the committed fill");
                b.mark(2);
            },
        );
        assert_eq!(idx.snapshot()[0][&(1, 0, 0)].n_filled, 1);
        idx.publish(1, 0);
        assert_eq!(idx.snapshot()[0][&(1, 0, 0)].n_filled, 2);
    }
}
