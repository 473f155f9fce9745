//! Fixed-rate erasure codes for LR-Seluge, implemented from scratch.
//!
//! LR-Seluge (paper §II-C, §IV) deliberately uses a *fixed-rate*
//! `k`-`n`-`k'` erasure code rather than a rateless one: a code that maps
//! `k` equal-length blocks to `n ≥ k` encoded blocks such that the
//! originals can be recovered from any `k'` encoded blocks
//! (`k ≤ k' ≤ n`). Because the `n` encoded packets are *predetermined*,
//! their hash images can be chained into the previous page, giving
//! immediate per-packet authentication — the property rateless codes
//! cannot offer.
//!
//! Two implementations are provided:
//!
//! * [`ReedSolomon`] — a systematic MDS code over GF(2⁸) (`k' = k`,
//!   optimal reception efficiency). This is the default code used by the
//!   experiments.
//! * [`SparseXor`] — a dense random-XOR code with a small reception
//!   overhead (`k' > k`) but XOR-only (Gaussian) decoding.
//! * [`Lt`] — a capped LT code (robust soliton degrees, O(edges)
//!   peeling decoder): the rateless family of §II-C with its packet
//!   space capped at `n`, exercising the paper's general `k'` model.
//!
//! # Example
//!
//! ```
//! use lrs_erasure::{ErasureCode, ReedSolomon};
//!
//! let code = ReedSolomon::new(4, 7)?;
//! let blocks: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 16]).collect();
//! let encoded = code.encode(&blocks)?;
//! // Any k' = 4 of the 7 encoded blocks recover the originals.
//! let subset: Vec<(usize, &[u8])> =
//!     [6, 2, 5, 0].iter().map(|&i| (i, encoded[i].as_slice())).collect();
//! let mut page = Vec::new();
//! code.decode_into(&subset, 16, &mut page)?;
//! assert_eq!(page, blocks.concat());
//! # Ok::<(), lrs_erasure::CodeError>(())
//! ```

pub mod gf256;
pub mod kernel;
pub mod lt;
pub mod matrix;
pub mod rs;
pub mod sparse;

pub use lt::Lt;
pub use rs::ReedSolomon;
pub use sparse::SparseXor;

use std::error::Error;
use std::fmt;

/// Errors returned by erasure-code operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// Parameters violate `1 ≤ k ≤ n ≤ 255` (GF(256) index space).
    BadParameters {
        /// Requested number of source blocks.
        k: usize,
        /// Requested number of encoded blocks.
        n: usize,
    },
    /// The number or shape of input blocks does not match the code.
    BadInput(String),
    /// Not enough (or not usable) encoded blocks to decode.
    NotEnoughBlocks {
        /// Usable blocks supplied.
        have: usize,
        /// Blocks required (`k'` for the worst case).
        need: usize,
    },
    /// The same block index was supplied twice.
    DuplicateIndex(usize),
    /// A supplied block index is outside `0..n`.
    IndexOutOfRange(usize),
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::BadParameters { k, n } => {
                write!(
                    f,
                    "invalid code parameters k={k}, n={n} (need 1 <= k <= n <= 255)"
                )
            }
            CodeError::BadInput(msg) => write!(f, "bad input blocks: {msg}"),
            CodeError::NotEnoughBlocks { have, need } => {
                write!(f, "not enough encoded blocks: have {have}, need {need}")
            }
            CodeError::DuplicateIndex(i) => write!(f, "duplicate encoded block index {i}"),
            CodeError::IndexOutOfRange(i) => write!(f, "encoded block index {i} out of range"),
        }
    }
}

impl Error for CodeError {}

/// A fixed-rate `k`-`n`-`k'` erasure code (paper §II-C).
///
/// Implementations must be deterministic: every node preloaded with "the
/// same instance" must produce identical encoded blocks from identical
/// inputs (paper §IV-B), since packet hash images are computed over the
/// encoded blocks.
pub trait ErasureCode {
    /// Number of source blocks per page.
    fn k(&self) -> usize;

    /// Number of encoded blocks per page.
    fn n(&self) -> usize;

    /// Reception threshold: any `k'` encoded blocks suffice to decode.
    /// For an MDS code `k' = k`.
    fn k_prime(&self) -> usize;

    /// Encodes the `k` source blocks of `block_len` bytes laid end to
    /// end in `input` into the `n` encoded blocks, laid end to end in
    /// `out` (`n * block_len` bytes), replacing its contents. Reusing
    /// `out` across pages encodes without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadInput`] unless `input` is `k * block_len`
    /// bytes; `out` is then left as it was.
    fn encode_into(
        &self,
        input: &[u8],
        block_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError>;

    /// Encodes `k` equal-length source blocks into `n` encoded blocks of
    /// the same length: [`encode_into`](Self::encode_into) over owned
    /// blocks.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadInput`] if the block count or shapes are
    /// wrong.
    fn encode(&self, blocks: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, CodeError> {
        if blocks.len() != self.k() {
            return Err(CodeError::BadInput(format!(
                "expected {} source blocks, got {}",
                self.k(),
                blocks.len()
            )));
        }
        let block_len = blocks[0].len();
        if blocks.iter().any(|b| b.len() != block_len) {
            return Err(CodeError::BadInput(
                "source blocks have unequal lengths".into(),
            ));
        }
        let mut out = Vec::new();
        self.encode_into(&blocks.concat(), block_len, &mut out)?;
        let block = |i: usize| out[i * block_len..(i + 1) * block_len].to_vec();
        Ok((0..self.n()).map(block).collect())
    }

    /// Decodes the original `k` blocks from borrowed `(index, block)`
    /// pairs into one contiguous page buffer (`k * block_len` bytes),
    /// replacing the contents of `out`. Callers that hold the received
    /// blocks elsewhere (a scheme's reception buffer) decode without
    /// cloning them, and reuse one scratch buffer across decodes.
    ///
    /// `block_len` is the expected block length (used to validate input).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::NotEnoughBlocks`] if fewer than the required
    /// number of distinct valid blocks are provided, and other variants
    /// for malformed input; `out` is then left as it was.
    fn decode_into(
        &self,
        blocks: &[(usize, &[u8])],
        block_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError>;
}

/// Checks that `input` holds `k` blocks of `block_len` bytes and sizes
/// `out` for `n` of them, its first `k` the systematic copy of `input`.
pub(crate) fn start_encode(
    input: &[u8],
    k: usize,
    n: usize,
    block_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodeError> {
    if input.len() != k * block_len {
        return Err(CodeError::BadInput(format!(
            "expected {k} source blocks of {block_len} bytes, got {} bytes",
            input.len()
        )));
    }
    out.clear();
    out.reserve(n * block_len);
    out.extend_from_slice(input);
    out.resize(n * block_len, 0);
    Ok(())
}

/// Validates common decode-input invariants shared by implementations.
pub(crate) fn check_decode_input(
    blocks: &[(usize, &[u8])],
    n: usize,
    block_len: usize,
) -> Result<(), CodeError> {
    let mut seen = vec![false; n];
    for (idx, data) in blocks {
        if *idx >= n {
            return Err(CodeError::IndexOutOfRange(*idx));
        }
        if seen[*idx] {
            return Err(CodeError::DuplicateIndex(*idx));
        }
        seen[*idx] = true;
        if data.len() != block_len {
            return Err(CodeError::BadInput(format!(
                "block {idx} has length {}, expected {block_len}",
                data.len()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes owned `(index, block)` pairs back into `k` blocks.
    pub(crate) fn decode_blocks(
        code: &impl ErasureCode,
        blocks: &[(usize, Vec<u8>)],
        block_len: usize,
    ) -> Result<Vec<Vec<u8>>, CodeError> {
        let refs: Vec<(usize, &[u8])> = blocks.iter().map(|(i, b)| (*i, b.as_slice())).collect();
        let mut page = Vec::new();
        code.decode_into(&refs, block_len, &mut page)?;
        Ok((0..code.k())
            .map(|i| page[i * block_len..(i + 1) * block_len].to_vec())
            .collect())
    }

    #[test]
    fn check_decode_input_catches_errors() {
        let b4: &[u8] = &[0u8; 4];
        let b3: &[u8] = &[0u8; 3];
        let ok = vec![(0usize, b4), (2, b4)];
        assert!(check_decode_input(&ok, 4, 4).is_ok());
        let dup = vec![(1usize, b4), (1, b4)];
        assert_eq!(
            check_decode_input(&dup, 4, 4),
            Err(CodeError::DuplicateIndex(1))
        );
        let oor = vec![(9usize, b4)];
        assert_eq!(
            check_decode_input(&oor, 4, 4),
            Err(CodeError::IndexOutOfRange(9))
        );
        let short = vec![(0usize, b3)];
        assert!(matches!(
            check_decode_input(&short, 4, 4),
            Err(CodeError::BadInput(_))
        ));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            CodeError::BadParameters { k: 0, n: 0 },
            CodeError::BadInput("x".into()),
            CodeError::NotEnoughBlocks { have: 1, need: 2 },
            CodeError::DuplicateIndex(3),
            CodeError::IndexOutOfRange(4),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
