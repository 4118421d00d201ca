//! The service tier's shared store: key-prefix shards with per-shard
//! locks and an in-memory LRU over the on-disk cache.
//!
//! One process serving many concurrent tenants funnels every artifact —
//! characterized libraries, Step-1/2 warm-start bundles, finished job
//! results — through a single store. A single `Mutex<Store>` would
//! serialize all of it; [`ShardedStore`] instead routes each
//! [`CacheKey`] to one of `2^bits` shards by the *top bits of the key's
//! high lane* (the key prefix), each shard owning its own subdirectory,
//! its own lock and its own [`LruCache`] segment. Two jobs touching
//! different keys contend only when their prefixes collide.
//!
//! Semantics are exactly those of the unsharded [`Store`] (property-
//! tested in `tests/serve_concurrency.rs`): a payload saved under a key
//! is returned bit-for-bit by the next load, an overwrite is visible to
//! every later load (the LRU is updated under the same shard lock that
//! wrote the disk file, so stale bytes are never served), and corrupt
//! disk entries are rejected, never trusted — an LRU hit never re-reads
//! disk, which is safe because the LRU only holds payloads that already
//! passed container validation or were just written by us.

use crate::cache::{BlobStore, CacheKey, Loaded, Store};
use crate::lru::LruCache;
use crate::StoreError;
use autoax_telemetry as telemetry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Snapshot of a store's hit/miss counters (monotonic since creation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads answered from the in-memory LRU tier.
    pub lru_hits: u64,
    /// Loads answered from disk (and promoted into the LRU).
    pub disk_hits: u64,
    /// Loads that found nothing (or a corrupt entry) anywhere.
    pub misses: u64,
    /// Saves written through to disk.
    pub saves: u64,
}

/// One shard: a directory-backed [`Store`] plus its LRU segment, both
/// behind the shard lock.
#[derive(Debug)]
struct Shard {
    store: Store,
    lru: LruCache,
}

/// A sharded, LRU-fronted implementation of [`BlobStore`].
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Mutex<Shard>>,
    /// log2 of the shard count, used to slice the key prefix.
    bits: u32,
    lru_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    saves: AtomicU64,
}

/// Default shard count (16 — comfortably more than the worker count of a
/// single-box deployment).
pub const DEFAULT_SHARD_BITS: u32 = 4;

/// Default in-memory budget per shard (4 MiB; a Step-1/2 bundle at quick
/// scale is tens of kilobytes).
pub const DEFAULT_SHARD_LRU_BYTES: usize = 4 << 20;

impl ShardedStore {
    /// A store rooted at `dir` with `2^bits` shards (clamped to `0..=8`)
    /// and `lru_bytes` of in-memory budget **per shard**. Shard
    /// subdirectories (`shard-00`, `shard-01`, …) are created lazily on
    /// first write.
    pub fn new(dir: impl Into<PathBuf>, bits: u32, lru_bytes: usize) -> Self {
        let dir = dir.into();
        let bits = bits.min(8);
        let shards = (0..1usize << bits)
            .map(|i| {
                Mutex::new(Shard {
                    store: Store::new(dir.join(format!("shard-{i:02x}"))),
                    lru: LruCache::new(lru_bytes),
                })
            })
            .collect();
        ShardedStore {
            shards,
            bits,
            lru_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            saves: AtomicU64::new(0),
        }
    }

    /// A store with the default shard count and per-shard LRU budget.
    pub fn with_defaults(dir: impl Into<PathBuf>) -> Self {
        Self::new(dir, DEFAULT_SHARD_BITS, DEFAULT_SHARD_LRU_BYTES)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key routes to: the top `bits` of the key's high lane.
    pub fn shard_index(&self, key: CacheKey) -> usize {
        if self.bits == 0 {
            0
        } else {
            (key.hi >> (64 - self.bits)) as usize
        }
    }

    /// Locks shard `index`. A panic under a shard lock poisons it; since
    /// the shard's LRU is only a cache over the disk store, recovery drops
    /// that LRU, clears the poison and carries on, so one panic never
    /// turns every later request on the shard into a panic.
    fn lock_shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        let shard = &self.shards[index];
        shard.lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            guard.lru.clear();
            shard.clear_poison();
            guard
        })
    }

    /// On-disk path an entry would occupy (for tests and diagnostics).
    pub fn entry_path(&self, kind: &str, key: CacheKey) -> PathBuf {
        self.lock_shard(self.shard_index(key))
            .store
            .entry_path(kind, key)
    }

    /// Drops every in-memory LRU entry; disk contents are untouched.
    /// Lets tests distinguish LRU hits from disk hits.
    pub fn flush_memory(&self) {
        for i in 0..self.shards.len() {
            self.lock_shard(i).lru.clear();
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            lru_hits: self.lru_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            saves: self.saves.load(Ordering::Relaxed),
        }
    }

    fn lru_key(kind: &str, key: CacheKey, tag: [u8; 4]) -> String {
        format!("{kind}:{}:{}", key.hex(), u32::from_le_bytes(tag))
    }
}

impl BlobStore for ShardedStore {
    fn load_blob(&self, kind: &str, key: CacheKey, tag: [u8; 4]) -> Loaded {
        let lkey = Self::lru_key(kind, key, tag);
        let mut shard = self.lock_shard(self.shard_index(key));
        if let Some(bytes) = shard.lru.get(&lkey) {
            let payload = bytes.to_vec();
            self.lru_hits.fetch_add(1, Ordering::Relaxed);
            // The memory tier short-circuits `Store::load`, so its hits
            // carry their own registry counter (disk-tier outcomes are
            // counted inside `Store`).
            if telemetry::metrics_enabled() {
                telemetry::counter_with("autoax_store_lru_hits_total", &[("kind", kind)]).inc();
            }
            return Loaded::Hit(payload);
        }
        match shard.store.load(kind, key, tag) {
            Loaded::Hit(payload) => {
                shard.lru.insert(&lkey, payload.clone());
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Loaded::Hit(payload)
            }
            other => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                other
            }
        }
    }

    fn save_blob(
        &self,
        kind: &str,
        key: CacheKey,
        tag: [u8; 4],
        payload: Vec<u8>,
    ) -> Result<(), StoreError> {
        let lkey = Self::lru_key(kind, key, tag);
        let mut shard = self.lock_shard(self.shard_index(key));
        shard.store.save(kind, key, tag, payload.clone())?;
        // Updated under the same lock that wrote the file: a load after
        // this save (on any thread) sees the new bytes, never stale ones.
        shard.lru.insert(&lkey, payload);
        self.saves.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Routes a key to a shard directory name without building a store —
/// used by tooling that wants to inspect the layout.
pub fn shard_dir(root: &Path, bits: u32, key: CacheKey) -> PathBuf {
    let bits = bits.min(8);
    let idx = if bits == 0 {
        0
    } else {
        (key.hi >> (64 - bits)) as usize
    };
    root.join(format!("shard-{idx:02x}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::KeyHasher;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("autoax-sharded-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> CacheKey {
        let mut h = KeyHasher::new("sharded-test");
        h.write_u64(n);
        h.finish()
    }

    #[test]
    fn round_trips_and_counts_tiers() {
        let s = ShardedStore::new(temp_dir("tiers"), 3, 1 << 16);
        let k = key(1);
        s.save_blob("unit", k, *b"UNIT", vec![9; 32]).unwrap();
        // 1st load: LRU hit (save populated the memory tier)
        assert!(matches!(s.load_blob("unit", k, *b"UNIT"), Loaded::Hit(p) if p == vec![9; 32]));
        s.flush_memory();
        // 2nd load: disk hit, promoted back into the LRU
        assert!(matches!(s.load_blob("unit", k, *b"UNIT"), Loaded::Hit(_)));
        // 3rd load: LRU hit again
        assert!(matches!(s.load_blob("unit", k, *b"UNIT"), Loaded::Hit(_)));
        assert!(matches!(
            s.load_blob("unit", key(2), *b"UNIT"),
            Loaded::Miss
        ));
        let st = s.stats();
        assert_eq!(
            (st.lru_hits, st.disk_hits, st.misses, st.saves),
            (2, 1, 1, 1)
        );
    }

    #[test]
    fn overwrite_is_visible_from_both_tiers() {
        let s = ShardedStore::new(temp_dir("overwrite"), 2, 1 << 16);
        let k = key(3);
        s.save_blob("unit", k, *b"UNIT", vec![1, 1]).unwrap();
        s.save_blob("unit", k, *b"UNIT", vec![2, 2, 2]).unwrap();
        assert!(matches!(s.load_blob("unit", k, *b"UNIT"), Loaded::Hit(p) if p == vec![2, 2, 2]));
        s.flush_memory();
        assert!(matches!(s.load_blob("unit", k, *b"UNIT"), Loaded::Hit(p) if p == vec![2, 2, 2]));
    }

    #[test]
    fn keys_spread_over_shards_and_stay_stable() {
        let s = ShardedStore::new(temp_dir("spread"), 4, 1 << 12);
        assert_eq!(s.shard_count(), 16);
        let mut seen = std::collections::HashSet::new();
        for n in 0..64 {
            let k = key(n);
            let idx = s.shard_index(k);
            assert!(idx < 16);
            assert_eq!(idx, s.shard_index(k), "routing must be deterministic");
            seen.insert(idx);
        }
        assert!(seen.len() > 4, "64 keys should land on many shards");
    }

    #[test]
    fn corrupt_disk_entry_is_rejected_not_served() {
        let s = ShardedStore::new(temp_dir("corrupt"), 1, 1 << 16);
        let k = key(5);
        s.save_blob("unit", k, *b"UNIT", vec![7; 64]).unwrap();
        let path = s.entry_path("unit", k);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        s.flush_memory();
        assert!(matches!(
            s.load_blob("unit", k, *b"UNIT"),
            Loaded::Rejected(StoreError::Checksum)
        ));
    }

    #[test]
    fn a_poisoned_shard_drops_its_lru_and_keeps_serving() {
        let s = ShardedStore::new(temp_dir("poison"), 2, 1 << 16);
        let k = key(7);
        s.save_blob("unit", k, *b"UNIT", vec![4; 16]).unwrap();
        let idx = s.shard_index(k);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = s.shards[idx].lock().unwrap();
            panic!("deliberate panic while holding a shard lock");
        }));
        assert!(poison.is_err() && s.shards[idx].is_poisoned());
        // The saved payload sat in the LRU; recovery dropped it, so the
        // load is answered from disk.
        let before = s.stats();
        assert!(matches!(s.load_blob("unit", k, *b"UNIT"), Loaded::Hit(p) if p == vec![4; 16]));
        assert_eq!(s.stats().disk_hits, before.disk_hits + 1);
        assert!(!s.shards[idx].is_poisoned());
        s.save_blob("unit", k, *b"UNIT", vec![5; 8]).unwrap();
        assert!(matches!(s.load_blob("unit", k, *b"UNIT"), Loaded::Hit(p) if p == vec![5; 8]));
    }

    #[test]
    fn zero_bits_degenerates_to_one_shard() {
        let s = ShardedStore::new(temp_dir("one"), 0, 1 << 12);
        assert_eq!(s.shard_count(), 1);
        assert_eq!(s.shard_index(key(1)), 0);
        assert_eq!(s.shard_index(key(99)), 0);
    }
}
