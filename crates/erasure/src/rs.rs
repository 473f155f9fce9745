//! Systematic Reed-Solomon erasure code over GF(2⁸).
//!
//! The generator matrix is derived from an `n × k` Vandermonde matrix `V`
//! by normalizing its top `k × k` block to the identity:
//! `A = V · (V_top)⁻¹`. Any `k` rows of `A` remain linearly independent
//! (row selection commutes with the right-multiplication), so the code is
//! MDS: any `k' = k` encoded blocks recover the page. The first `k`
//! encoded blocks equal the source blocks, which lets intermediate nodes
//! that already decoded a page re-encode it cheaply (paper §IV-D-3: a TX
//! node "applies the same erasure code f" before serving SNACKs).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, PoisonError};

use crate::gf256::{slice_mul_add_accumulate, Gf};
use crate::matrix::Matrix;
use crate::{check_decode_input, CodeError, ErasureCode};

/// Default bound on the number of cached inverted decode matrices.
///
/// A cached entry is `k × k` bytes plus the key; at the paper's
/// `k = 32` that is ~1 KiB per entry, so the default bound costs at
/// most a few hundred KiB while covering far more erasure patterns
/// than a sim run typically produces.
pub const DEFAULT_DECODE_CACHE_CAPACITY: usize = 256;

/// Bounded LRU map from a received-index set to the inverted generator
/// submatrix for that set.
#[derive(Debug, Default)]
struct DecodeCache {
    /// key → (last-touch stamp, inverse). Indices fit in `u8` (n ≤ 255).
    map: HashMap<Box<[u8]>, (u64, Arc<Matrix>)>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

/// The systematic `n × k` generator `V · (V_top)⁻¹`, built once per
/// `(k, n)` for the whole process: it is a pure function of the pair,
/// and every node of a simulated fleet constructs its own codes, so
/// without the memo each of them repeats a `k × k` inversion and an
/// `n × k` product. At most one entry per valid `(k, n)` (≤ 255²/2),
/// in practice the two or three geometries a run uses.
fn systematic_generator(k: usize, n: usize) -> Arc<Matrix> {
    static GENERATORS: Mutex<BTreeMap<(usize, usize), Arc<Matrix>>> = Mutex::new(BTreeMap::new());
    // Poison-tolerant like the decode cache: entries are inserted
    // whole, so a panicked holder cannot leave a half-built matrix.
    let mut memo = GENERATORS.lock().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(memo.entry((k, n)).or_insert_with(|| {
        let v = Matrix::vandermonde(n, k);
        let top_inv = v
            .select_rows(&(0..k).collect::<Vec<_>>())
            .inverse()
            .expect("top Vandermonde block is always invertible");
        Arc::new(v.mul(&top_inv))
    }))
}

/// A systematic `(k, n)` Reed-Solomon code with `k' = k`.
///
/// Cloning shares the decode-matrix cache: all clones of one instance
/// (e.g. the per-node schemes of a sim run) reuse each other's inverted
/// matrices. The cache only short-circuits Gauss-Jordan elimination —
/// decoded bytes are identical with the cache on, off, warm, or cold.
/// The generator matrix is shared wider still, by every instance of the
/// same `(k, n)` in the process.
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    k: usize,
    n: usize,
    /// The systematic generator matrix (n × k); top k rows are identity.
    generator: Arc<Matrix>,
    /// LRU of inverted decode matrices keyed by the received-index set.
    cache: Arc<Mutex<DecodeCache>>,
    cache_capacity: usize,
}

impl ReedSolomon {
    /// Constructs the code with [`DEFAULT_DECODE_CACHE_CAPACITY`].
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadParameters`] unless `1 ≤ k ≤ n ≤ 255`.
    pub fn new(k: usize, n: usize) -> Result<Self, CodeError> {
        Self::with_cache_capacity(k, n, DEFAULT_DECODE_CACHE_CAPACITY)
    }

    /// Constructs the code with an explicit decode-matrix cache bound.
    /// A capacity of 0 disables caching (every parity decode re-inverts).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadParameters`] unless `1 ≤ k ≤ n ≤ 255`.
    pub fn with_cache_capacity(k: usize, n: usize, capacity: usize) -> Result<Self, CodeError> {
        if k == 0 || n < k || n > 255 {
            return Err(CodeError::BadParameters { k, n });
        }
        Ok(ReedSolomon {
            k,
            n,
            generator: systematic_generator(k, n),
            cache: Arc::new(Mutex::new(DecodeCache::default())),
            cache_capacity: capacity,
        })
    }

    /// The systematic generator matrix row for encoded block `idx`.
    fn gen_row(&self, idx: usize) -> &[Gf] {
        self.generator.row(idx)
    }

    /// Decode-matrix cache counters `(hits, misses)` since construction.
    pub fn cache_counters(&self) -> (u64, u64) {
        // Poison-tolerant: the cache is pure memoization, so state left
        // by a panicking thread (e.g. a crashed shard worker) is still
        // coherent and safe to read.
        let c = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        (c.hits, c.misses)
    }

    /// The inverted generator submatrix for the given (sorted, distinct)
    /// row indices, from cache when warm.
    fn inverse_for(&self, indices: &[usize]) -> Arc<Matrix> {
        let invert =
            || {
                Arc::new(self.generator.select_rows(indices).inverse().expect(
                    "any k rows of a systematic Vandermonde-derived matrix are independent",
                ))
            };
        if self.cache_capacity == 0 {
            return invert();
        }
        let key: Box<[u8]> = indices.iter().map(|&i| i as u8).collect();
        // Poison-tolerant for the same reason as `cache_counters`: every
        // mutation below leaves the map consistent at each step, so a
        // panicked holder cannot have left it half-updated in a way that
        // matters for a memo table.
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        cache.stamp += 1;
        let stamp = cache.stamp;
        if let Some((touched, inv)) = cache.map.get_mut(&key) {
            *touched = stamp;
            let inv = Arc::clone(inv);
            cache.hits += 1;
            return inv;
        }
        cache.misses += 1;
        let inv = invert();
        if cache.map.len() >= self.cache_capacity {
            if let Some(oldest) = cache
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                cache.map.remove(&oldest);
            }
        }
        cache.map.insert(key, (stamp, Arc::clone(&inv)));
        inv
    }

    /// Picks the `k`-row subset to decode from: systematic blocks first.
    ///
    /// Systematic indices (`< k`) sort before parity ones, so an
    /// ascending sort + truncate prefers them explicitly; whenever ≥ k
    /// systematic blocks are present — however interleaved with parity
    /// blocks in the input — the chosen subset is exactly `0..k` and the
    /// identity fast path applies. Any full-rank choice decodes to the
    /// same bytes (the code is MDS), so this only affects speed.
    fn choose_rows<'a>(&self, blocks: &[(usize, &'a [u8])]) -> Vec<(usize, &'a [u8])> {
        let mut chosen: Vec<(usize, &'a [u8])> = blocks.to_vec();
        chosen.sort_unstable_by_key(|(idx, _)| *idx);
        chosen.truncate(self.k);
        chosen
    }
}

impl ErasureCode for ReedSolomon {
    fn k(&self) -> usize {
        self.k
    }

    fn n(&self) -> usize {
        self.n
    }

    fn k_prime(&self) -> usize {
        self.k
    }

    fn encode(&self, blocks: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, CodeError> {
        if blocks.len() != self.k {
            return Err(CodeError::BadInput(format!(
                "expected {} source blocks, got {}",
                self.k,
                blocks.len()
            )));
        }
        let block_len = blocks[0].len();
        if blocks.iter().any(|b| b.len() != block_len) {
            return Err(CodeError::BadInput(
                "source blocks have unequal lengths".into(),
            ));
        }
        let mut out = Vec::with_capacity(self.n);
        // Systematic part: identity rows.
        out.extend(blocks.iter().cloned());
        // Parity part: each parity row is one fused generator-row
        // product over all k sources.
        let srcs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        for r in self.k..self.n {
            let mut acc = vec![0u8; block_len];
            slice_mul_add_accumulate(&mut acc, self.gen_row(r), &srcs);
            out.push(acc);
        }
        Ok(out)
    }

    fn decode_refs(
        &self,
        blocks: &[(usize, &[u8])],
        block_len: usize,
    ) -> Result<Vec<Vec<u8>>, CodeError> {
        check_decode_input(blocks, self.n, block_len)?;
        if blocks.len() < self.k {
            return Err(CodeError::NotEnoughBlocks {
                have: blocks.len(),
                need: self.k,
            });
        }
        let chosen = self.choose_rows(blocks);

        // Fast path: all k systematic blocks present (indices are
        // distinct and all < k, hence exactly 0..k in order).
        if chosen.last().is_some_and(|(idx, _)| *idx < self.k) {
            return Ok(chosen.into_iter().map(|(_, b)| b.to_vec()).collect());
        }

        let indices: Vec<usize> = chosen.iter().map(|(idx, _)| *idx).collect();
        let inv = self.inverse_for(&indices);
        let srcs: Vec<&[u8]> = chosen.iter().map(|(_, data)| *data).collect();
        let mut out = Vec::with_capacity(self.k);
        for r in 0..self.k {
            let mut acc = vec![0u8; block_len];
            slice_mul_add_accumulate(&mut acc, inv.row(r), &srcs);
            out.push(acc);
        }
        Ok(out)
    }

    fn decode_into(
        &self,
        blocks: &[(usize, &[u8])],
        block_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError> {
        check_decode_input(blocks, self.n, block_len)?;
        if blocks.len() < self.k {
            return Err(CodeError::NotEnoughBlocks {
                have: blocks.len(),
                need: self.k,
            });
        }
        let chosen = self.choose_rows(blocks);
        out.clear();
        out.resize(self.k * block_len, 0);
        if block_len == 0 {
            return Ok(());
        }

        if chosen.last().is_some_and(|(idx, _)| *idx < self.k) {
            for (dst, (_, src)) in out.chunks_exact_mut(block_len).zip(&chosen) {
                dst.copy_from_slice(src);
            }
            return Ok(());
        }

        let indices: Vec<usize> = chosen.iter().map(|(idx, _)| *idx).collect();
        let inv = self.inverse_for(&indices);
        let srcs: Vec<&[u8]> = chosen.iter().map(|(_, data)| *data).collect();
        for (r, acc) in out.chunks_exact_mut(block_len).enumerate() {
            slice_mul_add_accumulate(acc, inv.row(r), &srcs);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_blocks(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 131 + j * 17 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn systematic_prefix() {
        let code = ReedSolomon::new(4, 8).unwrap();
        let blocks = sample_blocks(4, 32);
        let enc = code.encode(&blocks).unwrap();
        assert_eq!(enc.len(), 8);
        assert_eq!(&enc[..4], &blocks[..]);
    }

    #[test]
    fn decode_from_any_k_subset_small() {
        let code = ReedSolomon::new(3, 6).unwrap();
        let blocks = sample_blocks(3, 10);
        let enc = code.encode(&blocks).unwrap();
        // Every 3-subset of 6 indices.
        for a in 0..6 {
            for b in (a + 1)..6 {
                for c in (b + 1)..6 {
                    let subset: Vec<(usize, Vec<u8>)> =
                        [a, b, c].iter().map(|&i| (i, enc[i].clone())).collect();
                    let dec = code.decode(&subset, 10).unwrap();
                    assert_eq!(dec, blocks, "subset {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn paper_parameters_roundtrip() {
        // The paper's defaults: k = 32, n up to 64; k0 = 8, n0 = 16.
        for (k, n) in [(32usize, 48usize), (32, 64), (8, 16), (3, 6)] {
            let code = ReedSolomon::new(k, n).unwrap();
            let blocks = sample_blocks(k, 72);
            let enc = code.encode(&blocks).unwrap();
            // Take the last k blocks (worst case: all parity where possible).
            let subset: Vec<(usize, Vec<u8>)> = (n - k..n).map(|i| (i, enc[i].clone())).collect();
            assert_eq!(code.decode(&subset, 72).unwrap(), blocks, "k={k} n={n}");
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ReedSolomon::new(0, 4).is_err());
        assert!(ReedSolomon::new(5, 4).is_err());
        assert!(ReedSolomon::new(10, 256).is_err());
        assert!(ReedSolomon::new(1, 1).is_ok());
        assert!(ReedSolomon::new(255, 255).is_ok());
    }

    #[test]
    fn rejects_bad_inputs() {
        let code = ReedSolomon::new(3, 5).unwrap();
        assert!(code.encode(&sample_blocks(2, 8)).is_err());
        let mut uneven = sample_blocks(3, 8);
        uneven[1].push(0);
        assert!(code.encode(&uneven).is_err());
        let enc = code.encode(&sample_blocks(3, 8)).unwrap();
        let too_few: Vec<(usize, Vec<u8>)> = vec![(0, enc[0].clone()), (1, enc[1].clone())];
        assert!(matches!(
            code.decode(&too_few, 8),
            Err(CodeError::NotEnoughBlocks { have: 2, need: 3 })
        ));
    }

    #[test]
    fn encoding_is_deterministic_across_instances() {
        // Two independently constructed instances must agree (paper §IV-B:
        // all nodes hold "the same instance" of f).
        let a = ReedSolomon::new(16, 24).unwrap();
        let b = ReedSolomon::new(16, 24).unwrap();
        let blocks = sample_blocks(16, 40);
        assert_eq!(a.encode(&blocks).unwrap(), b.encode(&blocks).unwrap());
    }

    #[test]
    fn reencode_after_decode_matches() {
        // An intermediate node decodes from parity blocks, then re-encodes;
        // the regenerated packets must be byte-identical (their hash images
        // were fixed at preprocessing time).
        let code = ReedSolomon::new(8, 12).unwrap();
        let blocks = sample_blocks(8, 20);
        let enc = code.encode(&blocks).unwrap();
        let subset: Vec<(usize, Vec<u8>)> = (4..12).map(|i| (i, enc[i].clone())).collect();
        let dec = code.decode(&subset, 20).unwrap();
        assert_eq!(code.encode(&dec).unwrap(), enc);
    }

    #[test]
    fn roundtrip_random_erasures() {
        // Sampled geometries and erasure patterns under a fixed seed.
        let mut rng = lrs_rng::DetRng::seed_from_u64(0x5253_7274);
        for _ in 0..64 {
            let k = rng.gen_range(1usize..20);
            let n = k + rng.gen_range(0usize..20);
            let len = rng.gen_range(1usize..64);
            let code = ReedSolomon::new(k, n).unwrap();
            let blocks: Vec<Vec<u8>> = (0..k)
                .map(|_| {
                    let mut b = vec![0u8; len];
                    rng.fill_bytes(&mut b);
                    b
                })
                .collect();
            let enc = code.encode(&blocks).unwrap();
            // Choose a pseudo-random k-subset of indices.
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            let subset: Vec<(usize, Vec<u8>)> =
                order[..k].iter().map(|&i| (i, enc[i].clone())).collect();
            assert_eq!(
                code.decode(&subset, len).unwrap(),
                blocks,
                "k={k} n={n} len={len}"
            );
        }
    }

    #[test]
    fn paper_points_survive_any_max_erasure_pattern() {
        // Erase any n−k blocks at the paper's operating points and decode
        // from the survivors. Random subsets sampled per point keep the
        // debug-build runtime bounded while still crossing systematic and
        // parity positions.
        let mut rng = lrs_rng::DetRng::seed_from_u64(0x6b_6e_70);
        for (k, n) in [(32usize, 48usize), (32, 64), (8, 16), (3, 6)] {
            let code = ReedSolomon::new(k, n).unwrap();
            let blocks = sample_blocks(k, 48);
            let enc = code.encode(&blocks).unwrap();
            let trials = if n - k <= 3 { usize::MAX } else { 40 };
            if trials == usize::MAX {
                // Small enough to enumerate every k-subset via bitmasks.
                for mask in 0u32..(1 << n) {
                    if mask.count_ones() as usize != k {
                        continue;
                    }
                    let subset: Vec<(usize, Vec<u8>)> = (0..n)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| (i, enc[i].clone()))
                        .collect();
                    assert_eq!(
                        code.decode(&subset, 48).unwrap(),
                        blocks,
                        "k={k} n={n} mask={mask:b}"
                    );
                }
            } else {
                for _ in 0..trials {
                    let mut order: Vec<usize> = (0..n).collect();
                    rng.shuffle(&mut order);
                    let subset: Vec<(usize, Vec<u8>)> =
                        order[..k].iter().map(|&i| (i, enc[i].clone())).collect();
                    assert_eq!(code.decode(&subset, 48).unwrap(), blocks, "k={k} n={n}");
                }
            }
        }
    }
}
