//! Client-side content-addressed block cache for delta extracts.
//!
//! The iterative edit→extract→debug loop (paper §2.2) re-fetches the same
//! UDF inputs over and over; DESIGN §12 makes the repeated case cheap.
//! The client keeps a small MRU store keyed by the **extract
//! fingerprint** — a hash of `(query, udf, options)` — holding, per
//! entry, the dependency epochs the payload was built against, the
//! SHA-256 digest of every plaintext pickle block, and the raw blocks
//! themselves. On the next extract the client sends those epochs and
//! digests in an `ExtractDelta` request; the server answers
//! `NotModified` (epochs still match — zero payload bytes), or ships
//! only the blocks whose digest the client does not hold.
//!
//! Sampled extracts bypass the cache entirely: the server draws a fresh
//! sample per transfer id, so two sampled payloads are never comparable.
//! They, like every extract of a cache-off client, go out as cold
//! `ExtractDelta` requests that claim nothing.
//!
//! # Examples
//!
//! ```
//! use wireproto::delta::{fingerprint, BlockCache, CacheEntry};
//! use wireproto::TransferOptions;
//!
//! let mut cache = BlockCache::new(2);
//! let opts = TransferOptions::compressed();
//! let fp = fingerprint("SELECT f(i) FROM t", "f", &opts);
//!
//! // A fresh payload becomes a cache entry: blocks + their digests.
//! let payload = vec![7u8; 10_000];
//! let entry = CacheEntry::from_raw(&payload, 4096, vec![("t".into(), 3)]);
//! assert_eq!(entry.digests.len(), 3); // ceil(10_000 / 4096)
//! cache.insert(fp, entry);
//!
//! // The entry round-trips and reassembles to the original bytes.
//! let entry = cache.get(fp).unwrap();
//! assert_eq!(entry.reassemble(), payload);
//!
//! // A different query fingerprints to a different slot.
//! assert_ne!(fp, fingerprint("SELECT f(j) FROM u", "f", &opts));
//! ```

use std::collections::HashMap;

use crate::transfer::TransferOptions;

/// One cached extract: everything needed to claim blocks in an
/// `ExtractDelta` request and to rebuild the payload afterwards.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// `(table name, epoch)` pairs the payload was built from. Empty when
    /// a dependency was volatile — the server then never answers
    /// `NotModified`, but block-level reuse still applies.
    pub epochs: Vec<(String, u64)>,
    /// SHA-256 digest of each raw block, in payload order.
    pub digests: Vec<[u8; 32]>,
    /// The raw plaintext pickle blocks; `blocks[i]` hashes to
    /// `digests[i]`.
    pub blocks: Vec<Vec<u8>>,
    /// Total payload length (the sum of the block lengths).
    pub raw_len: usize,
}

impl CacheEntry {
    /// Build an entry by chunking a raw payload at `block_size` and
    /// hashing each block.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn from_raw(raw: &[u8], block_size: usize, epochs: Vec<(String, u64)>) -> CacheEntry {
        assert!(block_size > 0, "block_size must be non-zero");
        let digests = codecs::sha256::block_digests(raw, block_size);
        CacheEntry::from_digests(raw, block_size, digests, epochs)
    }

    /// Build an entry from a raw payload whose block digests are already
    /// known to match — the digest table of a `DeltaBlocks` reply, once
    /// [`crate::transfer::reconstruct_delta`] has checked every block
    /// against it.
    pub(crate) fn from_digests(
        raw: &[u8],
        block_size: usize,
        digests: Vec<[u8; 32]>,
        epochs: Vec<(String, u64)>,
    ) -> CacheEntry {
        debug_assert_eq!(digests.len(), raw.len().div_ceil(block_size));
        CacheEntry {
            epochs,
            digests,
            blocks: raw.chunks(block_size).map(<[u8]>::to_vec).collect(),
            raw_len: raw.len(),
        }
    }

    /// Digest → block lookup for [`crate::transfer::reconstruct_delta`].
    pub fn digest_map(&self) -> HashMap<[u8; 32], &[u8]> {
        self.digests
            .iter()
            .copied()
            .zip(self.blocks.iter().map(Vec::as_slice))
            .collect()
    }

    /// Concatenate the blocks back into the full raw payload.
    pub fn reassemble(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.raw_len);
        for block in &self.blocks {
            out.extend_from_slice(block);
        }
        out
    }
}

/// Small most-recently-used store of [`CacheEntry`]s, keyed by the
/// extract fingerprint. Same discipline as the process-wide KDF cache:
/// a plain vector ordered by recency, capped at a handful of entries —
/// a debug session iterates on one or two queries, not hundreds.
#[derive(Debug)]
pub struct BlockCache {
    entries: Vec<(u64, CacheEntry)>,
    cap: usize,
}

impl BlockCache {
    /// A cache holding at most `cap` entries (at least one).
    pub fn new(cap: usize) -> BlockCache {
        BlockCache {
            entries: Vec::new(),
            cap: cap.max(1),
        }
    }

    /// Look up an entry, marking it most-recently used.
    pub fn get(&mut self, fingerprint: u64) -> Option<&CacheEntry> {
        let i = self.entries.iter().position(|(fp, _)| *fp == fingerprint)?;
        let hit = self.entries.remove(i);
        self.entries.insert(0, hit);
        Some(&self.entries[0].1)
    }

    /// Insert (or replace) an entry, evicting the least-recently used
    /// when over capacity.
    pub fn insert(&mut self, fingerprint: u64, entry: CacheEntry) {
        self.entries.retain(|(fp, _)| *fp != fingerprint);
        self.entries.insert(0, (fingerprint, entry));
        self.entries.truncate(self.cap);
    }

    /// Number of cached extracts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Fingerprint of an extract request: FNV-1a over the query, the UDF
/// name, and every option that changes the payload bytes. Sampling is
/// deliberately excluded — sampled extracts never reach the cache.
pub fn fingerprint(query: &str, udf: &str, options: &TransferOptions) -> u64 {
    let mut canon = Vec::with_capacity(query.len() + udf.len() + 16);
    canon.extend_from_slice(query.as_bytes());
    canon.push(0);
    canon.extend_from_slice(udf.as_bytes());
    canon.push(0);
    canon.push(options.compress as u8);
    canon.push(options.encrypt as u8);
    canon.extend_from_slice(&(options.effective_block_size() as u64).to_le_bytes());
    codecs::fnv1a_64(&canon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_from_raw_chunks_hashes_and_reassembles() {
        // Non-periodic content so all three blocks are distinct.
        let raw: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let entry = CacheEntry::from_raw(&raw, 4096, vec![("t".into(), 1)]);
        assert_eq!(entry.blocks.len(), 3);
        assert_eq!(entry.digests.len(), 3);
        assert_eq!(entry.raw_len, raw.len());
        assert_eq!(entry.blocks[2].len(), 10_000 - 2 * 4096);
        for (block, digest) in entry.blocks.iter().zip(&entry.digests) {
            assert_eq!(codecs::sha256(block), *digest);
        }
        assert_eq!(entry.reassemble(), raw);
        assert_eq!(entry.digest_map().len(), 3);
        assert_eq!(entry.digest_map()[&entry.digests[1]], &raw[4096..8192]);
    }

    #[test]
    fn cache_is_mru_with_eviction() {
        let mut cache = BlockCache::new(2);
        let entry = |n: u8| CacheEntry::from_raw(&[n; 100], 64, vec![]);
        cache.insert(1, entry(1));
        cache.insert(2, entry(2));
        // Touch 1 so 2 becomes the eviction victim.
        assert!(cache.get(1).is_some());
        cache.insert(3, entry(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none(), "LRU entry should have been evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        // Reinsert under an existing key replaces, not duplicates.
        cache.insert(1, entry(9));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(1).unwrap().blocks[0][0], 9);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn fingerprint_separates_queries_udfs_and_options() {
        let base = fingerprint("SELECT f(i) FROM t", "f", &TransferOptions::plain());
        assert_eq!(
            base,
            fingerprint("SELECT f(i) FROM t", "f", &TransferOptions::plain())
        );
        assert_ne!(
            base,
            fingerprint("SELECT f(j) FROM t", "f", &TransferOptions::plain())
        );
        assert_ne!(
            base,
            fingerprint("SELECT f(i) FROM t", "g", &TransferOptions::plain())
        );
        assert_ne!(
            base,
            fingerprint("SELECT f(i) FROM t", "f", &TransferOptions::compressed())
        );
        assert_ne!(
            base,
            fingerprint(
                "SELECT f(i) FROM t",
                "f",
                &TransferOptions::plain().with_block_size(1024)
            )
        );
        // The query/udf boundary is framed: ("ab","c") ≠ ("a","bc").
        assert_ne!(
            fingerprint("ab", "c", &TransferOptions::plain()),
            fingerprint("a", "bc", &TransferOptions::plain())
        );
        // Sampling does not enter the fingerprint (sampled extracts
        // bypass the cache before fingerprinting).
        assert_eq!(
            base,
            fingerprint("SELECT f(i) FROM t", "f", &TransferOptions::sampled(10))
        );
    }
}
