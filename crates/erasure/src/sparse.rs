//! A random-XOR fixed-rate code with small reception overhead.
//!
//! This models the Tornado/LT-style codes the paper surveys in §II-C:
//! XOR-only encoding/decoding (attractive on 8-bit motes) at the price of
//! a reception threshold `k' > k`. Parity block `i ≥ k` is the XOR of a
//! pseudo-random subset of source blocks derived deterministically from
//! `i`, so every node generates identical encoded blocks (required for
//! hash chaining). Decoding is Gaussian elimination over GF(2).
//!
//! Unlike the MDS [`crate::ReedSolomon`], decoding from exactly `k`
//! blocks can fail (rank deficiency); `k'` is sized so that decoding from
//! `k'` random blocks succeeds with high probability, and the
//! dissemination protocol simply keeps requesting packets on failure.

use crate::gf256::slice_add_assign;
use crate::{check_decode_input, start_encode, CodeError, ErasureCode};

/// Reception overhead added to `k` to obtain `k'`.
///
/// With dense random parities, `k + c` random rows are full rank with
/// probability about `1 − 2^{−(c+1)}`; 4 extra blocks give ≈ 97 %.
pub const DEFAULT_OVERHEAD: usize = 4;

/// A systematic `(k, n)` random-XOR code with `k' = k +`
/// [`DEFAULT_OVERHEAD`] (at most `n`).
#[derive(Clone, Debug)]
pub struct SparseXor {
    k: usize,
    n: usize,
    /// Coefficient bitmask (over source blocks) for each encoded block.
    coeffs: Vec<Vec<u64>>,
}

impl SparseXor {
    /// Constructs the code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadParameters`] unless `1 ≤ k ≤ n ≤ 255`.
    pub fn new(k: usize, n: usize) -> Result<Self, CodeError> {
        if k == 0 || n < k || n > 255 {
            return Err(CodeError::BadParameters { k, n });
        }
        let words = k.div_ceil(64);
        let mut coeffs = Vec::with_capacity(n);
        for i in 0..n {
            let mut mask = vec![0u64; words];
            if i < k {
                mask[i / 64] = 1u64 << (i % 64);
            } else {
                // Dense pseudo-random parity row from a splitmix64 stream
                // keyed by the block index; guaranteed nonzero.
                let mut s = (i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ 0x5ee1_0de5;
                loop {
                    for w in mask.iter_mut() {
                        s = s.wrapping_add(0x9e3779b97f4a7c15);
                        let mut z = s;
                        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                        *w = z ^ (z >> 31);
                    }
                    // Clear bits beyond k.
                    let spare = words * 64 - k;
                    if spare > 0 {
                        let last = mask.last_mut().expect("k >= 1 implies words >= 1");
                        *last &= u64::MAX >> spare;
                    }
                    if mask.iter().any(|w| *w != 0) {
                        break;
                    }
                }
            }
            coeffs.push(mask);
        }
        Ok(SparseXor { k, n, coeffs })
    }

    /// The reception threshold `k'` of a `(k, n)` instance, without
    /// building one: `k +` [`DEFAULT_OVERHEAD`], at most `n`.
    pub fn threshold(k: usize, n: usize) -> usize {
        (k + DEFAULT_OVERHEAD).min(n)
    }

    /// The coefficient bitmask for encoded block `idx`.
    fn mask(&self, idx: usize) -> &[u64] {
        &self.coeffs[idx]
    }
}

impl ErasureCode for SparseXor {
    fn k(&self) -> usize {
        self.k
    }

    fn n(&self) -> usize {
        self.n
    }

    fn k_prime(&self) -> usize {
        Self::threshold(self.k, self.n)
    }

    fn encode_into(
        &self,
        input: &[u8],
        block_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError> {
        start_encode(input, self.k, self.n, block_len, out)?;
        for i in self.k..self.n {
            let acc = &mut out[i * block_len..(i + 1) * block_len];
            let mask = self.mask(i);
            for j in (0..self.k).filter(|j| mask[j / 64] >> (j % 64) & 1 == 1) {
                slice_add_assign(acc, &input[j * block_len..(j + 1) * block_len]);
            }
        }
        Ok(())
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
                need: self.k_prime(),
            });
        }
        // Gaussian elimination over GF(2) on (mask, data) rows.
        let mut rows: Vec<(Vec<u64>, Vec<u8>)> = blocks
            .iter()
            .map(|(idx, data)| (self.mask(*idx).to_vec(), data.to_vec()))
            .collect();
        // pivot_of[col] = row index holding the pivot for that column.
        let mut pivot_of: Vec<Option<usize>> = vec![None; self.k];
        let mut next_row = 0usize;
        for (col, pivot) in pivot_of.iter_mut().enumerate() {
            let Some(found) =
                (next_row..rows.len()).find(|&r| rows[r].0[col / 64] >> (col % 64) & 1 == 1)
            else {
                continue;
            };
            rows.swap(next_row, found);
            // Eliminate this column from every other row.
            let (pivot_mask, pivot_data) = {
                let r = &rows[next_row];
                (r.0.clone(), r.1.clone())
            };
            for (r, row) in rows.iter_mut().enumerate() {
                if r != next_row && row.0[col / 64] >> (col % 64) & 1 == 1 {
                    for (rw, &pw) in row.0.iter_mut().zip(&pivot_mask) {
                        *rw ^= pw;
                    }
                    slice_add_assign(&mut row.1, &pivot_data);
                }
            }
            *pivot = Some(next_row);
            next_row += 1;
        }
        if pivot_of.iter().any(|p| p.is_none()) {
            let rank = pivot_of.iter().filter(|p| p.is_some()).count();
            return Err(CodeError::NotEnoughBlocks {
                have: rank,
                need: self.k_prime(),
            });
        }
        out.clear();
        out.reserve(self.k * block_len);
        for pivot in &pivot_of {
            let r = pivot.expect("checked above");
            out.extend_from_slice(&rows[r].1);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::decode_blocks;

    fn sample_blocks(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 37 + j * 11 + 3) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn systematic_prefix() {
        let code = SparseXor::new(4, 10).unwrap();
        let blocks = sample_blocks(4, 16);
        let enc = code.encode(&blocks).unwrap();
        assert_eq!(&enc[..4], &blocks[..]);
    }

    #[test]
    fn decode_from_systematic() {
        let code = SparseXor::new(5, 12).unwrap();
        let blocks = sample_blocks(5, 8);
        let enc = code.encode(&blocks).unwrap();
        let subset: Vec<(usize, Vec<u8>)> = (0..5).map(|i| (i, enc[i].clone())).collect();
        assert_eq!(decode_blocks(&code, &subset, 8).unwrap(), blocks);
    }

    #[test]
    fn decode_from_parity_only_with_overhead() {
        let code = SparseXor::new(8, 32).unwrap();
        let blocks = sample_blocks(8, 24);
        let enc = code.encode(&blocks).unwrap();
        // Give it k' parity blocks; dense random rows make this succeed
        // for this fixed deterministic construction.
        let kp = code.k_prime();
        let subset: Vec<(usize, Vec<u8>)> = (8..8 + kp).map(|i| (i, enc[i].clone())).collect();
        assert_eq!(decode_blocks(&code, &subset, 24).unwrap(), blocks);
    }

    #[test]
    fn k_prime_capped_at_n() {
        let code = SparseXor::new(4, 5).unwrap();
        assert_eq!(code.k_prime(), 5);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = SparseXor::new(16, 32).unwrap();
        let b = SparseXor::new(16, 32).unwrap();
        let blocks = sample_blocks(16, 12);
        assert_eq!(a.encode(&blocks).unwrap(), b.encode(&blocks).unwrap());
    }

    #[test]
    fn rank_deficiency_reported() {
        let code = SparseXor::new(4, 12).unwrap();
        let blocks = sample_blocks(4, 8);
        let enc = code.encode(&blocks).unwrap();
        // Fewer than k blocks can never decode.
        let subset: Vec<(usize, Vec<u8>)> = (0..3).map(|i| (i, enc[i].clone())).collect();
        assert!(matches!(
            decode_blocks(&code, &subset, 8),
            Err(CodeError::NotEnoughBlocks { .. })
        ));
    }

    #[test]
    fn large_k_crossing_word_boundary() {
        // k > 64 exercises multi-word masks.
        let code = SparseXor::new(70, 100).unwrap();
        let blocks = sample_blocks(70, 4);
        let enc = code.encode(&blocks).unwrap();
        let kp = code.k_prime();
        let subset: Vec<(usize, Vec<u8>)> = (100 - kp..100).map(|i| (i, enc[i].clone())).collect();
        assert_eq!(decode_blocks(&code, &subset, 4).unwrap(), blocks);
    }

    #[test]
    fn roundtrip_random_subsets_of_kprime() {
        let mut rng = lrs_rng::DetRng::seed_from_u64(0x7370_7273);
        for _ in 0..48 {
            let k = rng.gen_range(1usize..24);
            let n = k + rng.gen_range(6usize..24);
            let code = SparseXor::new(k, n).unwrap();
            let blocks = sample_blocks(k, 16);
            let enc = code.encode(&blocks).unwrap();
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            let take = code.k_prime().min(n);
            let subset: Vec<(usize, Vec<u8>)> =
                order[..take].iter().map(|&i| (i, enc[i].clone())).collect();
            // With k' = k + 4 random blocks this succeeds with prob ≈ 97 %;
            // on the rare rank-deficient draw, adding the remaining blocks
            // must succeed (the full set always has rank k).
            match decode_blocks(&code, &subset, 16) {
                Ok(dec) => assert_eq!(dec, blocks, "k={k} n={n}"),
                Err(CodeError::NotEnoughBlocks { .. }) => {
                    let all: Vec<(usize, Vec<u8>)> = (0..n).map(|i| (i, enc[i].clone())).collect();
                    assert_eq!(
                        decode_blocks(&code, &all, 16).unwrap(),
                        blocks,
                        "k={k} n={n}"
                    );
                }
                Err(e) => panic!("unexpected error {e} (k={k} n={n})"),
            }
        }
    }
}
