//! Pluggable page-code selection.
//!
//! The paper's model is a general `k`-`n`-`k'` fixed-rate code
//! (§II-C): Reed-Solomon gives the optimal `k' = k` at the price of
//! GF(256) decoding; Tornado/LT-style XOR codes decode with XORs only
//! but need `k' > k` received packets. [`PageCode`] lets a deployment
//! choose either for the page code `f` and the hash-page code `f0`,
//! and is what makes the `k' > k` plumbing real rather than
//! theoretical.

use lrs_erasure::{CodeError, ErasureCode, Lt, ReedSolomon, SparseXor};

/// Which fixed-rate erasure code a deployment uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CodeKind {
    /// Systematic Reed-Solomon over GF(2⁸): MDS, `k' = k`.
    #[default]
    ReedSolomon,
    /// Systematic random-XOR code: XOR-only decoding, `k' = k + ε`
    /// (probabilistic; the protocol keeps collecting on a rank-deficient
    /// draw).
    SparseXor,
    /// Capped LT code: robust-soliton parity, O(edges) peeling decoding,
    /// `k' ≈ 1.15 k` (probabilistic).
    Lt,
}

impl CodeKind {
    /// The reception threshold `k'` of this kind's `(k, n)` code, the
    /// one the instance [`PageCode::new`] builds reports.
    pub fn k_prime(self, k: usize, n: usize) -> usize {
        match self {
            CodeKind::ReedSolomon => k,
            CodeKind::SparseXor => SparseXor::threshold(k, n),
            CodeKind::Lt => Lt::threshold(k, n),
        }
    }
}

/// A concrete page code instance.
#[derive(Clone, Debug)]
pub enum PageCode {
    /// Reed-Solomon instance.
    Rs(ReedSolomon),
    /// Sparse-XOR instance.
    Xor(SparseXor),
    /// Capped LT instance.
    Lt(Lt),
}

impl PageCode {
    /// Instantiates the chosen code.
    ///
    /// # Errors
    ///
    /// Propagates [`CodeError::BadParameters`] for invalid `(k, n)`.
    pub fn new(kind: CodeKind, k: usize, n: usize) -> Result<Self, CodeError> {
        Ok(match kind {
            CodeKind::ReedSolomon => PageCode::Rs(ReedSolomon::new(k, n)?),
            CodeKind::SparseXor => PageCode::Xor(SparseXor::new(k, n)?),
            CodeKind::Lt => PageCode::Lt(Lt::new(k, n)?),
        })
    }
}

impl ErasureCode for PageCode {
    fn k(&self) -> usize {
        match self {
            PageCode::Rs(c) => c.k(),
            PageCode::Xor(c) => c.k(),
            PageCode::Lt(c) => c.k(),
        }
    }

    fn n(&self) -> usize {
        match self {
            PageCode::Rs(c) => c.n(),
            PageCode::Xor(c) => c.n(),
            PageCode::Lt(c) => c.n(),
        }
    }

    fn k_prime(&self) -> usize {
        match self {
            PageCode::Rs(c) => c.k_prime(),
            PageCode::Xor(c) => c.k_prime(),
            PageCode::Lt(c) => c.k_prime(),
        }
    }

    fn encode_into(
        &self,
        input: &[u8],
        block_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError> {
        match self {
            PageCode::Rs(c) => c.encode_into(input, block_len, out),
            PageCode::Xor(c) => c.encode_into(input, block_len, out),
            PageCode::Lt(c) => c.encode_into(input, block_len, out),
        }
    }

    fn decode_into(
        &self,
        blocks: &[(usize, &[u8])],
        block_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError> {
        match self {
            PageCode::Rs(c) => c.decode_into(blocks, block_len, out),
            PageCode::Xor(c) => c.decode_into(blocks, block_len, out),
            PageCode::Lt(c) => c.decode_into(blocks, block_len, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_instantiate_and_roundtrip() {
        for kind in [CodeKind::ReedSolomon, CodeKind::SparseXor, CodeKind::Lt] {
            let code = PageCode::new(kind, 4, 10).unwrap();
            assert_eq!(code.k(), 4);
            assert_eq!(code.n(), 10);
            let blocks: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
            let enc = code.encode(&blocks).unwrap();
            // Systematic prefix both ways.
            assert_eq!(&enc[..4], &blocks[..]);
            let sys: Vec<(usize, &[u8])> = (0..4).map(|i| (i, enc[i].as_slice())).collect();
            let mut page = Vec::new();
            code.decode_into(&sys, 8, &mut page).unwrap();
            assert_eq!(page, blocks.concat());
        }
    }

    #[test]
    fn k_prime_semantics_differ() {
        let rs = PageCode::new(CodeKind::ReedSolomon, 8, 16).unwrap();
        let xor = PageCode::new(CodeKind::SparseXor, 8, 16).unwrap();
        assert_eq!(rs.k_prime(), 8);
        assert!(xor.k_prime() > 8);
        for kind in [CodeKind::ReedSolomon, CodeKind::SparseXor, CodeKind::Lt] {
            for (k, n) in [(8, 16), (32, 48), (4, 5)] {
                let code = PageCode::new(kind, k, n).unwrap();
                assert_eq!(kind.k_prime(k, n), code.k_prime(), "{kind:?} ({k}, {n})");
            }
        }
    }

    #[test]
    fn bad_parameters_propagate() {
        assert!(PageCode::new(CodeKind::ReedSolomon, 5, 4).is_err());
        assert!(PageCode::new(CodeKind::SparseXor, 0, 4).is_err());
    }
}
