//! A capped LT code (Luby, FOCS 2002) with a robust-soliton degree
//! distribution and a peeling (belief-propagation) decoder.
//!
//! LT codes are the rateless family the paper surveys in §II-C and the
//! reason LR-Seluge exists: rateless packets cannot be pre-authenticated,
//! so LR-Seluge caps the packet space at `n` predetermined symbols. This
//! implementation does exactly that — the first `k` symbols are the
//! systematic source blocks and the remaining `n − k` are LT parity
//! symbols drawn deterministically (per symbol index) from the robust
//! soliton distribution, so every node regenerates identical packets.
//! Decoding is O(edges) peeling instead of Gaussian elimination, which
//! is the property that made LT attractive on motes; the price is a
//! probabilistic reception threshold `k' > k`.

use crate::gf256::slice_add_assign;
use crate::{check_decode_input, start_encode, CodeError, ErasureCode};

/// A systematic, capped LT code.
#[derive(Clone, Debug)]
pub struct Lt {
    k: usize,
    n: usize,
    /// Neighbor sets of the parity symbols (indices into the k sources).
    parity_neighbors: Vec<Vec<usize>>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Robust-soliton degree CDF for `k` source symbols.
fn robust_soliton_cdf(k: usize) -> Vec<f64> {
    let kf = k as f64;
    let c = 0.1f64;
    let delta = 0.5f64;
    let s = (c * (kf / delta).ln() * kf.sqrt()).max(1.0);
    let pivot = (kf / s).round().max(1.0) as usize;
    let mut weights = vec![0.0f64; k + 1];
    for (d, w) in weights.iter_mut().enumerate().skip(1) {
        // Ideal soliton.
        *w = if d == 1 {
            1.0 / kf
        } else {
            1.0 / (d as f64 * (d as f64 - 1.0))
        };
        // Robust correction tau.
        if d < pivot {
            *w += s / (kf * d as f64);
        } else if d == pivot {
            *w += s * (s / delta).ln() / kf;
        }
    }
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(k);
    let mut acc = 0.0;
    for w in &weights[1..] {
        acc += w / total;
        cdf.push(acc);
    }
    cdf
}

impl Lt {
    /// Constructs the code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadParameters`] unless `1 ≤ k ≤ n ≤ 255`.
    pub fn new(k: usize, n: usize) -> Result<Self, CodeError> {
        if k == 0 || n < k || n > 255 {
            return Err(CodeError::BadParameters { k, n });
        }
        let cdf = robust_soliton_cdf(k);
        let mut parity_neighbors = Vec::with_capacity(n - k);
        for i in k..n {
            let mut state = (i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ 0x17_2a9e;
            // Sample a degree from the robust soliton CDF.
            let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let degree = cdf.iter().position(|&c| u <= c).map_or(k, |d| d + 1);
            // Sample `degree` distinct neighbors (partial Fisher-Yates).
            let mut pool: Vec<usize> = (0..k).collect();
            for j in 0..degree.min(k) {
                let pick = j + (splitmix(&mut state) as usize) % (k - j);
                pool.swap(j, pick);
            }
            let mut neighbors = pool[..degree.min(k)].to_vec();
            neighbors.sort_unstable();
            parity_neighbors.push(neighbors);
        }
        Ok(Lt {
            k,
            n,
            parity_neighbors,
        })
    }

    /// Neighbor set of encoded symbol `idx` (singleton for systematic).
    fn neighbors(&self, idx: usize) -> Vec<usize> {
        if idx < self.k {
            vec![idx]
        } else {
            self.parity_neighbors[idx - self.k].clone()
        }
    }

    /// The reception threshold `k'` of a `(k, n)` instance, without
    /// building one. Peeling needs a reception overhead; 15 % + 2
    /// symbols is a practical envelope for soliton codes at these block
    /// counts.
    pub fn threshold(k: usize, n: usize) -> usize {
        ((k * 115).div_ceil(100) + 2).min(n)
    }

    /// Mean parity degree (diagnostic; ~`ln k` for soliton-like codes).
    pub fn mean_parity_degree(&self) -> f64 {
        if self.parity_neighbors.is_empty() {
            return 0.0;
        }
        self.parity_neighbors.iter().map(|n| n.len()).sum::<usize>() as f64
            / self.parity_neighbors.len() as f64
    }
}

impl ErasureCode for Lt {
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
        for (i, neighbors) in (self.k..).zip(&self.parity_neighbors) {
            let acc = &mut out[i * block_len..(i + 1) * block_len];
            for &j in neighbors {
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
        // Peeling decoder: maintain each received symbol's unresolved
        // neighbor set; repeatedly release degree-1 symbols.
        let mut decoded: Vec<Option<Vec<u8>>> = vec![None; self.k];
        let mut symbols: Vec<(Vec<usize>, Vec<u8>)> = blocks
            .iter()
            .map(|(idx, data)| (self.neighbors(*idx), data.to_vec()))
            .collect();
        // Source index -> symbol positions that reference it.
        let mut uses: Vec<Vec<usize>> = vec![Vec::new(); self.k];
        for (pos, (nbrs, _)) in symbols.iter().enumerate() {
            for &j in nbrs {
                uses[j].push(pos);
            }
        }
        let mut ripple: Vec<usize> = symbols
            .iter()
            .enumerate()
            .filter(|(_, (nbrs, _))| nbrs.len() == 1)
            .map(|(pos, _)| pos)
            .collect();
        let mut resolved = 0usize;
        while let Some(pos) = ripple.pop() {
            let (nbrs, data) = {
                let entry = &symbols[pos];
                (entry.0.clone(), entry.1.clone())
            };
            if nbrs.len() != 1 {
                continue; // already reduced further by another release
            }
            let src = nbrs[0];
            if decoded[src].is_some() {
                continue;
            }
            decoded[src] = Some(data.clone());
            resolved += 1;
            // Subtract the resolved source from every symbol using it.
            for &other in &uses[src] {
                if other == pos {
                    continue;
                }
                let entry = &mut symbols[other];
                if let Some(i) = entry.0.iter().position(|&j| j == src) {
                    entry.0.swap_remove(i);
                    slice_add_assign(&mut entry.1, &data);
                    if entry.0.len() == 1 {
                        ripple.push(other);
                    }
                }
            }
        }
        if resolved < self.k {
            return Err(CodeError::NotEnoughBlocks {
                have: resolved,
                need: self.k_prime(),
            });
        }
        out.clear();
        out.reserve(self.k * block_len);
        for d in &decoded {
            out.extend_from_slice(d.as_ref().expect("resolved"));
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
                    .map(|j| ((i * 89 + j * 7 + 5) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn systematic_prefix() {
        let code = Lt::new(8, 24).unwrap();
        let blocks = sample_blocks(8, 16);
        let enc = code.encode(&blocks).unwrap();
        assert_eq!(&enc[..8], &blocks[..]);
        assert_eq!(enc.len(), 24);
    }

    #[test]
    fn decode_from_systematic() {
        let code = Lt::new(8, 24).unwrap();
        let blocks = sample_blocks(8, 16);
        let enc = code.encode(&blocks).unwrap();
        let subset: Vec<(usize, Vec<u8>)> = (0..8).map(|i| (i, enc[i].clone())).collect();
        assert_eq!(decode_blocks(&code, &subset, 16).unwrap(), blocks);
    }

    #[test]
    fn decode_from_mixed_subsets() {
        let code = Lt::new(16, 48).unwrap();
        let blocks = sample_blocks(16, 12);
        let enc = code.encode(&blocks).unwrap();
        let mut successes = 0;
        let trials = 40;
        for seed in 0..trials {
            // Pseudo-random k' subset.
            let mut order: Vec<usize> = (0..48).collect();
            let mut s = seed as u64 + 1;
            for i in (1..order.len()).rev() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(i, (s >> 33) as usize % (i + 1));
            }
            let take = code.k_prime();
            let subset: Vec<(usize, Vec<u8>)> =
                order[..take].iter().map(|&i| (i, enc[i].clone())).collect();
            match decode_blocks(&code, &subset, 12) {
                Ok(dec) => {
                    assert_eq!(dec, blocks, "seed {seed}");
                    successes += 1;
                }
                Err(CodeError::NotEnoughBlocks { .. }) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        // Peeling from k' random symbols succeeds most of the time.
        assert!(
            successes * 2 > trials,
            "peeling succeeded only {successes}/{trials}"
        );
    }

    #[test]
    fn full_reception_always_decodes() {
        let code = Lt::new(12, 36).unwrap();
        let blocks = sample_blocks(12, 8);
        let enc = code.encode(&blocks).unwrap();
        let all: Vec<(usize, Vec<u8>)> = (0..36).map(|i| (i, enc[i].clone())).collect();
        assert_eq!(decode_blocks(&code, &all, 8).unwrap(), blocks);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = Lt::new(16, 40).unwrap();
        let b = Lt::new(16, 40).unwrap();
        let blocks = sample_blocks(16, 10);
        assert_eq!(a.encode(&blocks).unwrap(), b.encode(&blocks).unwrap());
    }

    #[test]
    fn degree_distribution_sane() {
        let code = Lt::new(64, 192).unwrap();
        let mean = code.mean_parity_degree();
        // Robust soliton mean degree is O(ln k); for k = 64 expect
        // something in the low-to-mid single digits up to ~15.
        assert!((1.5..=20.0).contains(&mean), "mean degree {mean}");
    }

    #[test]
    fn insufficient_symbols_reported() {
        let code = Lt::new(8, 24).unwrap();
        let blocks = sample_blocks(8, 16);
        let enc = code.encode(&blocks).unwrap();
        let subset: Vec<(usize, Vec<u8>)> = (8..14).map(|i| (i, enc[i].clone())).collect();
        assert!(matches!(
            decode_blocks(&code, &subset, 16),
            Err(CodeError::NotEnoughBlocks { .. })
        ));
    }

    #[test]
    fn bad_parameters_rejected() {
        assert!(Lt::new(0, 10).is_err());
        assert!(Lt::new(10, 5).is_err());
        assert!(Lt::new(10, 300).is_err());
    }
}
