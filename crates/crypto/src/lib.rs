//! From-scratch cryptographic substrate for the LR-Seluge reproduction.
//!
//! LR-Seluge (Zhang & Zhang, ICDCS 2011) relies on a small set of
//! cryptographic building blocks:
//!
//! * a public cryptographic hash function `H(·)` used for packet hash
//!   images and hash chaining ([`sha256`], [`hash`]),
//! * Merkle hash trees with per-leaf authentication paths used to protect
//!   the hash page `M0` ([`merkle`]),
//! * a digital signature scheme with which the base station signs the
//!   Merkle-tree root ([`schnorr`], built on [`bignum`] and [`ec`]),
//! * *message-specific puzzles* used as weak authenticators that shield
//!   sensor nodes from signature-verification DoS floods ([`puzzle`]), and
//! * *cluster keys* used to authenticate advertisement and SNACK control
//!   packets among one-hop neighbors ([`cluster`], built on [`hmac`]).
//!
//! Everything here is implemented from scratch for the reproduction. The
//! implementations are functionally correct (SHA-256 matches FIPS 180-4
//! test vectors; the curve is the standard secp256k1 group) but are **not
//! hardened production cryptography**: no constant-time guarantees, no
//! side-channel defenses. The paper's protocol logic only needs the
//! functional behaviour and the relative cost profile (hashes cheap,
//! signature verification expensive), which these provide.
//!
//! # Example
//!
//! ```
//! use lrs_crypto::{sha256::sha256, schnorr::Keypair, merkle::MerkleTree};
//!
//! let digest = sha256(b"code image");
//! let kp = Keypair::from_seed(b"base station key");
//! let sig = kp.sign(&digest.0);
//! assert!(kp.public().verify(&digest.0, &sig));
//!
//! let leaves: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 16]).collect();
//! let tree = MerkleTree::build(leaves.iter().map(|l| l.as_slice()));
//! let proof = tree.proof(3);
//! assert!(proof.verify(&leaves[3], &tree.root()));
//! ```

pub mod bignum;
pub mod cluster;
pub mod ec;
pub mod hash;
pub mod hmac;
pub mod leap;
pub mod merkle;
pub mod puzzle;
pub mod schnorr;
pub mod sha256;

pub use hash::{hash_image, Digest, HashImage, HASH_IMAGE_LEN};
pub use leap::LeapKeyring;
pub use merkle::{MerkleProof, MerkleTree};
pub use puzzle::{Puzzle, PuzzleKeyChain, PuzzleSolution};
pub use schnorr::{Keypair, PublicKey, Signature};
pub use sha256::ShaKernel;
