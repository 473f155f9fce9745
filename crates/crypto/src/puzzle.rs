//! Message-specific puzzles (weak authenticators).
//!
//! Seluge and LR-Seluge attach a *message-specific puzzle* to the
//! signature packet so that sensor nodes only run the expensive signature
//! verification on packets that already passed a cheap check, defeating
//! forged-signature DoS floods (paper §IV-C-3 and §IV-E, citing Ning et
//! al.'s message-specific puzzles).
//!
//! The construction follows the original scheme: the base station commits
//! to a one-way *puzzle key chain* `K_j = H(K_{j+1})`; the chain anchor
//! `K_0` is preloaded on every node. The signature packet for code
//! version `j` discloses `K_j` together with a solution `s` such that
//! `H(K_j || m || s)` has `strength` leading zero bits. Finding `s`
//! requires brute force over the message `m`, which an adversary cannot do
//! ahead of time because `K_j` is unknown until the base station releases
//! it; verifying costs two hashes.

use crate::hash::Digest;
use crate::sha256::{sha256, sha256_concat, PaddedTail, Sha256};

/// A puzzle solution attached to a signature packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PuzzleSolution {
    /// The disclosed puzzle key `K_j` for this version.
    pub key: Digest,
    /// The brute-forced solution value.
    pub solution: u64,
}

impl PuzzleSolution {
    /// Wire size in bytes (key + solution).
    pub const WIRE_LEN: usize = 32 + 8;
}

/// The base station's one-way puzzle key chain.
///
/// # Example
///
/// ```
/// use lrs_crypto::{Puzzle, PuzzleKeyChain};
///
/// let chain = PuzzleKeyChain::generate(b"secret", 16);
/// let puzzle = Puzzle::new(chain.anchor(), 8);
/// let sol = chain.solve(&puzzle, 1, b"signature packet body");
/// assert!(puzzle.verify(1, b"signature packet body", &sol));
/// ```
#[derive(Clone, Debug)]
pub struct PuzzleKeyChain {
    /// keys[j] = K_j; keys[0] is the public anchor.
    keys: Vec<Digest>,
}

impl PuzzleKeyChain {
    /// Generates a chain supporting versions `1..=max_version`.
    pub fn generate(seed: &[u8], max_version: u32) -> Self {
        let mut keys = vec![Digest([0u8; 32]); max_version as usize + 1];
        let tail = sha256_concat(&[b"puzzle-chain", seed]);
        keys[max_version as usize] = tail;
        for j in (0..max_version as usize).rev() {
            keys[j] = sha256(&keys[j + 1].0);
        }
        PuzzleKeyChain { keys }
    }

    /// The public anchor `K_0` preloaded on every sensor node.
    pub fn anchor(&self) -> Digest {
        self.keys[0]
    }

    /// The puzzle key for `version`.
    ///
    /// # Panics
    ///
    /// Panics if `version` exceeds the chain length.
    pub fn key(&self, version: u32) -> Digest {
        self.keys[version as usize]
    }

    /// Brute-forces a solution for `message` under `puzzle`'s strength:
    /// the least `s` counting up from 0 that solves it.
    ///
    /// `K_j ‖ message` is absorbed once; each attempt rewrites the
    /// solution bytes of the padded tail and compresses it from the
    /// saved midstate: one compression per attempt when `K_j ‖ message`
    /// ends less than 48 bytes past a block boundary, two otherwise.
    pub fn solve(&self, puzzle: &Puzzle, version: u32, message: &[u8]) -> PuzzleSolution {
        let key = self.key(version);
        let mut tail = solution_tail(&key, message);
        let mut solution = 0u64;
        loop {
            if solution_bits(&mut tail, solution) >= puzzle.strength {
                return PuzzleSolution { key, solution };
            }
            solution += 1;
        }
    }
}

/// The verifier side of the puzzle, preloaded on sensor nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Puzzle {
    anchor: Digest,
    strength: u32,
}

impl Puzzle {
    /// Creates a verifier with the given chain anchor and difficulty
    /// (required number of leading zero bits).
    pub fn new(anchor: Digest, strength: u32) -> Self {
        Puzzle { anchor, strength }
    }

    /// The difficulty in leading zero bits.
    pub fn strength(&self) -> u32 {
        self.strength
    }

    /// Verifies a claimed solution for `message` at `version`.
    ///
    /// Checks both that the disclosed key hashes back to the anchor in
    /// exactly `version` steps and that the solution meets the strength.
    pub fn verify(&self, version: u32, message: &[u8], sol: &PuzzleSolution) -> bool {
        // Key-chain check: H^version(K_version) == anchor.
        let mut acc = sol.key;
        for _ in 0..version {
            acc = sha256(&acc.0);
        }
        if acc != self.anchor {
            return false;
        }
        let mut tail = solution_tail(&sol.key, message);
        solution_bits(&mut tail, sol.solution) >= self.strength
    }
}

/// `H(key ‖ message ‖ s)` absorbed up to its padded tail, whose last 8
/// message bytes hold `s`.
fn solution_tail(key: &Digest, message: &[u8]) -> PaddedTail {
    let mut h = Sha256::new();
    h.update(&key.0);
    h.update(message);
    // The tail holds up to 63 buffered bytes plus these 8, always.
    h.into_tail(&[&[0u8; 8]])
}

/// The leading zero bits of `H(key ‖ message ‖ solution)`, read
/// straight from the digest's big-endian state words.
fn solution_bits(tail: &mut PaddedTail, solution: u64) -> u32 {
    let msg = tail.message_mut();
    let at = msg.len() - 8;
    msg[at..].copy_from_slice(&solution.to_be_bytes());
    leading_zero_bits(&tail.final_state())
}

fn leading_zero_bits(words: &[u32; 8]) -> u32 {
    let mut bits = 0;
    for w in words {
        bits += w.leading_zeros();
        if *w != 0 {
            break;
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::tests::reference_sha256;

    #[test]
    fn solve_and_verify() {
        let chain = PuzzleKeyChain::generate(b"s", 4);
        let puzzle = Puzzle::new(chain.anchor(), 10);
        let sol = chain.solve(&puzzle, 2, b"msg");
        assert!(puzzle.verify(2, b"msg", &sol));
    }

    #[test]
    fn wrong_message_rejected() {
        let chain = PuzzleKeyChain::generate(b"s", 4);
        let puzzle = Puzzle::new(chain.anchor(), 12);
        let sol = chain.solve(&puzzle, 1, b"msg");
        // Overwhelmingly unlikely that the same solution solves another
        // message at strength 12.
        assert!(!puzzle.verify(1, b"other msg", &sol));
    }

    #[test]
    fn wrong_version_key_rejected() {
        let chain = PuzzleKeyChain::generate(b"s", 4);
        let puzzle = Puzzle::new(chain.anchor(), 4);
        let sol = chain.solve(&puzzle, 2, b"msg");
        // Claiming version 3 with K_2 fails the chain check.
        assert!(!puzzle.verify(3, b"msg", &sol));
    }

    #[test]
    fn forged_key_rejected() {
        let chain = PuzzleKeyChain::generate(b"s", 4);
        let puzzle = Puzzle::new(chain.anchor(), 4);
        let mut sol = chain.solve(&puzzle, 2, b"msg");
        sol.key.0[0] ^= 1;
        assert!(!puzzle.verify(2, b"msg", &sol));
    }

    #[test]
    fn chain_is_one_way_consistent() {
        let chain = PuzzleKeyChain::generate(b"s", 8);
        for v in 1..=8u32 {
            let mut acc = chain.key(v);
            for _ in 0..v {
                acc = sha256(&acc.0);
            }
            assert_eq!(acc, chain.anchor());
        }
    }

    #[test]
    fn leading_zero_bits_counts() {
        let mut w = [u32::MAX; 8];
        assert_eq!(leading_zero_bits(&w), 0);
        w[0] = 0x000f_ffff;
        assert_eq!(leading_zero_bits(&w), 12);
        w[0] = 0;
        w[1] = 1;
        assert_eq!(leading_zero_bits(&w), 63);
        assert_eq!(leading_zero_bits(&[0; 8]), 256);
    }

    /// The search every commit before the midstate search ran: each
    /// attempt hashes all of `key ‖ message ‖ s` (here through the
    /// FIPS reference, not the hasher under test) and counts the
    /// digest's leading zero bytes, then bits.
    fn solve_reference(chain: &PuzzleKeyChain, strength: u32, version: u32, message: &[u8]) -> u64 {
        let key = chain.key(version);
        let mut solution = 0u64;
        loop {
            let d = reference_sha256(&[&key.0, message, &solution.to_be_bytes()]);
            let mut bits = 0;
            for b in d.0 {
                bits += b.leading_zeros();
                if b != 0 {
                    break;
                }
            }
            if bits >= strength {
                return solution;
            }
            solution += 1;
        }
    }

    /// `solve` against [`solve_reference`] on `message`, and `verify`
    /// accepting the solution and rejecting the one before it.
    fn check_solve(chain: &PuzzleKeyChain, strength: u32, version: u32, message: &[u8]) {
        let puzzle = Puzzle::new(chain.anchor(), strength);
        let sol = chain.solve(&puzzle, version, message);
        let want = solve_reference(chain, strength, version, message);
        let ctx = format!(
            "len {} strength {strength} version {version}",
            message.len()
        );
        assert_eq!(sol.key, chain.key(version), "{ctx}");
        assert_eq!(sol.solution, want, "{ctx}");
        assert!(puzzle.verify(version, message, &sol), "{ctx}");
        if want > 0 {
            let before = PuzzleSolution {
                solution: want - 1,
                ..sol
            };
            assert!(!puzzle.verify(version, message, &before), "{ctx}");
        }
    }

    #[test]
    fn solve_matches_the_per_attempt_search() {
        // Lengths put `key ‖ message ‖ s` on both sides of the one/two
        // block tail (key + message = 32 + len bytes; 96 is the
        // signature body) and past one whole streamed block.
        let chain = PuzzleKeyChain::generate(b"differential", 5);
        let mut rng = lrs_rng::DetRng::seed_from_u64(0x7075_7a7a);
        for (i, len) in [0usize, 1, 55, 56, 63, 64, 95, 96, 97, 119, 120, 200]
            .into_iter()
            .enumerate()
        {
            let mut message = vec![0u8; len];
            rng.fill_bytes(&mut message);
            for strength in 0..=12u32 {
                let version = 1 + (i as u32 + strength) % 5;
                check_solve(&chain, strength, version, &message);
            }
        }
    }

    #[test]
    #[ignore = "long form: cargo test -p lrs-crypto --release -- --ignored"]
    fn solve_matches_the_per_attempt_search_long() {
        let chain = PuzzleKeyChain::generate(b"differential", 5);
        let mut rng = lrs_rng::DetRng::seed_from_u64(0x6c6f_6e67);
        for _ in 0..1000 {
            let mut message = vec![0u8; rng.gen_range(0usize..301)];
            rng.fill_bytes(&mut message);
            let strength = rng.gen_range(0u32..15);
            let version = rng.gen_range(1u32..6);
            check_solve(&chain, strength, version, &message);
        }
    }
}
