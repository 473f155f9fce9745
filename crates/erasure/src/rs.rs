//! Systematic Reed-Solomon erasure code over GF(2⁸).
//!
//! The generator matrix is derived from an `n × k` Vandermonde matrix `V`
//! by normalizing its top `k × k` block to the identity:
//! `G = V · (V_top)⁻¹`. Any `k` rows of `G` remain linearly independent
//! (row selection commutes with the right-multiplication), so the code is
//! MDS: any `k' = k` encoded blocks recover the page. The first `k`
//! encoded blocks equal the source blocks, which lets intermediate nodes
//! that already decoded a page re-encode it cheaply (paper §IV-D-3: a TX
//! node "applies the same erasure code f" before serving SNACKs).
//!
//! Decoding solves only for what was erased. The received systematic
//! blocks `S` are copied; each received parity block `y_p` minus its
//! `S` terms leaves `r_p = Σ_{j∈M} G[p][j]·x_j` over the `m` missing
//! sources `M`, and the `m × m` system `G[P][M]` is inverted to recover
//! them: `m³` field operations and `m·(k + 1)` row products instead of a
//! `k × k` inversion and `k²` row products. The solution is unique (the
//! code is MDS), so the bytes are those of any other exact decoder.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::gf256::{slice_mul_add_accumulate, Gf};
use crate::matrix::Matrix;
use crate::{check_decode_input, start_encode, CodeError, ErasureCode};

/// The systematic `n × k` generator `V · (V_top)⁻¹`, built once per
/// `(k, n)` for the whole process: it is a pure function of the pair,
/// and every node of a simulated fleet constructs its own codes, so
/// without the memo each of them repeats a `k × k` inversion and an
/// `n × k` product. At most one entry per valid `(k, n)` (≤ 255²/2),
/// in practice the two or three geometries a run uses.
fn systematic_generator(k: usize, n: usize) -> Arc<Matrix> {
    static GENERATORS: Mutex<BTreeMap<(usize, usize), Arc<Matrix>>> = Mutex::new(BTreeMap::new());
    // Poison-tolerant: entries are inserted whole, so a panicked holder
    // cannot leave a half-built matrix.
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
/// The generator matrix is shared by every instance of the same
/// `(k, n)` in the process, so constructing or cloning a code is cheap.
/// A decode inverts only the `m × m` system of the `m` erased source
/// blocks (see the module docs).
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    k: usize,
    n: usize,
    /// The systematic generator matrix (n × k); top k rows are identity.
    generator: Arc<Matrix>,
}

impl ReedSolomon {
    /// Constructs the code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadParameters`] unless `1 ≤ k ≤ n ≤ 255`.
    pub fn new(k: usize, n: usize) -> Result<Self, CodeError> {
        if k == 0 || n < k || n > 255 {
            return Err(CodeError::BadParameters { k, n });
        }
        Ok(ReedSolomon {
            k,
            n,
            generator: systematic_generator(k, n),
        })
    }

    /// The systematic generator matrix row for encoded block `idx`.
    fn gen_row(&self, idx: usize) -> &[Gf] {
        self.generator.row(idx)
    }

    /// Picks the `k`-row subset to decode from: systematic blocks first.
    ///
    /// Systematic indices (`< k`) sort before parity ones, so an
    /// ascending sort + truncate prefers them explicitly; whenever ≥ k
    /// systematic blocks are present — however interleaved with parity
    /// blocks in the input — the chosen subset is exactly `0..k` and
    /// decoding is a copy. Any full-rank choice decodes to the same bytes
    /// (the code is MDS), so this only sets `m`, the size of the system
    /// left to solve.
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

    fn encode_into(
        &self,
        input: &[u8],
        block_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError> {
        start_encode(input, self.k, self.n, block_len, out)?;
        // Parity part: each parity row is one fused generator-row
        // product over all k sources.
        let srcs: Vec<&[u8]> = (0..self.k)
            .map(|j| &input[j * block_len..(j + 1) * block_len])
            .collect();
        for r in self.k..self.n {
            let parity = &mut out[r * block_len..(r + 1) * block_len];
            slice_mul_add_accumulate(parity, self.gen_row(r), &srcs);
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
                need: self.k,
            });
        }
        let chosen = self.choose_rows(blocks);
        out.clear();
        out.resize(self.k * block_len, 0);
        if block_len == 0 {
            return Ok(());
        }

        // S: the received systematic blocks are the sources themselves.
        let (systematic, parity) = chosen.split_at(chosen.partition_point(|(i, _)| *i < self.k));
        let mut present = vec![false; self.k];
        for &(s, data) in systematic {
            out[s * block_len..(s + 1) * block_len].copy_from_slice(data);
            present[s] = true;
        }
        if parity.is_empty() {
            return Ok(());
        }
        // M: the erased sources, one per chosen parity block P.
        let mut missing = Vec::with_capacity(parity.len());
        missing.extend((0..self.k).filter(|&j| !present[j]));
        let mut a = Matrix::zero(parity.len(), missing.len());
        for (i, &(p, _)) in parity.iter().enumerate() {
            let row = self.gen_row(p);
            for (j, &mj) in missing.iter().enumerate() {
                a.set(i, j, row[mj]);
            }
        }
        let a_inv = a
            .inverse()
            .expect("G[P][M] is invertible: any k rows of the generator are independent");

        // r_p = y_p + Σ_{s∈S} G[p][s]·x_s (subtraction is addition in
        // GF(2⁸)), one fused row product with y_p as the unit-weight term.
        let mut residual = vec![0u8; parity.len() * block_len];
        let mut coeffs: Vec<Gf> = Vec::with_capacity(systematic.len() + 1);
        let mut srcs: Vec<&[u8]> = Vec::with_capacity(systematic.len() + 1);
        for (r, &(p, y)) in residual.chunks_exact_mut(block_len).zip(parity) {
            let row = self.gen_row(p);
            coeffs.clear();
            coeffs.push(Gf::ONE);
            coeffs.extend(systematic.iter().map(|&(s, _)| row[s]));
            srcs.clear();
            srcs.push(y);
            srcs.extend(systematic.iter().map(|&(_, x)| x));
            slice_mul_add_accumulate(r, &coeffs, &srcs);
        }

        // x_M = A⁻¹ · r.
        let residuals: Vec<&[u8]> = residual.chunks_exact(block_len).collect();
        for (j, &mj) in missing.iter().enumerate() {
            slice_mul_add_accumulate(
                &mut out[mj * block_len..(mj + 1) * block_len],
                a_inv.row(j),
                &residuals,
            );
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
                    let dec = decode_blocks(&code, &subset, 10).unwrap();
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
            assert_eq!(
                decode_blocks(&code, &subset, 72).unwrap(),
                blocks,
                "k={k} n={n}"
            );
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
            decode_blocks(&code, &too_few, 8),
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
        let dec = decode_blocks(&code, &subset, 20).unwrap();
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
                decode_blocks(&code, &subset, len).unwrap(),
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
                        decode_blocks(&code, &subset, 48).unwrap(),
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
                    assert_eq!(
                        decode_blocks(&code, &subset, 48).unwrap(),
                        blocks,
                        "k={k} n={n}"
                    );
                }
            }
        }
    }
}
