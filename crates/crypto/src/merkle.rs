//! Merkle hash trees with authentication paths.
//!
//! LR-Seluge builds a Merkle hash tree of depth `d` over the `n0 = 2^d`
//! erasure-encoded blocks of the hash page `M0` (paper §IV-C-3, Fig. 2).
//! Each `M0` packet carries its block plus the sibling hashes on the path
//! to the root, so that the packet can be authenticated immediately upon
//! arrival against the signed root:
//!
//! ```text
//! v_{1-8} = H( H( H(e_{0,1}) || v_2 ) || v_{3-4} ) || v_{5-8} )
//! ```

use crate::hash::Digest;
use crate::sha256::{sha256, sha256_concat};

/// A complete binary Merkle hash tree over `2^d` leaves.
///
/// Leaves are hashed with `H(leaf)`; internal nodes are `H(left || right)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes, levels.last() = [root].
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds a tree over the given leaves.
    ///
    /// # Panics
    ///
    /// Panics if the number of leaves is zero or not a power of two; the
    /// paper fixes `n0 = 2^d` for exactly this reason.
    pub fn build<'a, I>(leaves: I) -> Self
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let leaf_hashes: Vec<Digest> = leaves.into_iter().map(sha256).collect();
        assert!(
            !leaf_hashes.is_empty() && leaf_hashes.len().is_power_of_two(),
            "Merkle tree requires a power-of-two leaf count, got {}",
            leaf_hashes.len()
        );
        let mut levels = vec![leaf_hashes];
        while levels.last().unwrap().len() > 1 {
            let next = levels
                .last()
                .unwrap()
                .chunks_exact(2)
                .map(|pair| sha256_concat(&[&pair[0].0, &pair[1].0]))
                .collect();
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The signed root of the tree.
    pub fn root(&self) -> Digest {
        self.levels.last().unwrap()[0]
    }

    /// The tree depth `d` (number of sibling hashes in each proof).
    pub fn depth(&self) -> usize {
        self.levels.len() - 1
    }

    /// Number of leaves (`n0 = 2^d`).
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Authentication path for leaf `index`: the sibling hashes from the
    /// leaf level up to (but excluding) the root.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn proof(&self, index: usize) -> MerkleProof {
        assert!(index < self.leaf_count(), "leaf index out of range");
        let mut siblings = Vec::with_capacity(self.depth());
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            siblings.push(level[idx ^ 1]);
            idx >>= 1;
        }
        MerkleProof { index, siblings }
    }
}

/// An authentication path proving that a leaf belongs to a tree with a
/// known root. This is the `v_1, v_{3-4}, v_{5-8}` material carried inside
/// each hash-page packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    index: usize,
    siblings: Vec<Digest>,
}

impl MerkleProof {
    /// Reconstructs a proof from its wire components.
    pub fn from_parts(index: usize, siblings: Vec<Digest>) -> Self {
        MerkleProof { index, siblings }
    }

    /// The leaf index this proof authenticates.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The sibling hashes, leaf level first.
    pub fn siblings(&self) -> &[Digest] {
        &self.siblings
    }

    /// Serialized length in bytes when embedded in a packet.
    pub fn wire_len(&self) -> usize {
        self.siblings.len() * 32
    }

    /// Verifies that `leaf` hashes up to `root` along this path.
    pub fn verify(&self, leaf: &[u8], root: &Digest) -> bool {
        self.compute_root(leaf) == *root
    }

    /// Computes the root implied by `leaf` and this path.
    pub fn compute_root(&self, leaf: &[u8]) -> Digest {
        let mut acc = sha256(leaf);
        let mut idx = self.index;
        for sib in &self.siblings {
            acc = if idx & 1 == 0 {
                sha256_concat(&[&acc.0, &sib.0])
            } else {
                sha256_concat(&[&sib.0, &acc.0])
            };
            idx >>= 1;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("e_0_{i}").into_bytes()).collect()
    }

    #[test]
    fn all_proofs_verify() {
        for n in [1usize, 2, 4, 8, 16, 32] {
            let data = leaves(n);
            let tree = MerkleTree::build(data.iter().map(|l| l.as_slice()));
            assert_eq!(tree.leaf_count(), n);
            assert_eq!(tree.depth(), n.trailing_zeros() as usize);
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.proof(i);
                assert_eq!(proof.index(), i);
                assert_eq!(proof.siblings().len(), tree.depth());
                assert!(proof.verify(leaf, &tree.root()), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn tampered_leaf_rejected() {
        let data = leaves(8);
        let tree = MerkleTree::build(data.iter().map(|l| l.as_slice()));
        let proof = tree.proof(3);
        assert!(!proof.verify(b"bogus block", &tree.root()));
    }

    #[test]
    fn wrong_index_rejected() {
        let data = leaves(8);
        let tree = MerkleTree::build(data.iter().map(|l| l.as_slice()));
        let proof = tree.proof(3);
        // Using leaf 4's data with leaf 3's proof must fail.
        assert!(!proof.verify(&data[4], &tree.root()));
    }

    #[test]
    fn tampered_sibling_rejected() {
        let data = leaves(8);
        let tree = MerkleTree::build(data.iter().map(|l| l.as_slice()));
        let proof = tree.proof(5);
        let mut siblings = proof.siblings().to_vec();
        siblings[1].0[0] ^= 0x01;
        let forged = MerkleProof::from_parts(5, siblings);
        assert!(!forged.verify(&data[5], &tree.root()));
    }

    #[test]
    fn paper_fig2_structure() {
        // Fig. 2: depth-3 tree over 8 encoded blocks; P_{0,2}'s proof is
        // (v_1, v_{3-4}, v_{5-8}). Check the verification equation shape:
        // root = H(H(H(H(e2) ... with v_1 on the left at the first level.
        let data = leaves(8);
        let tree = MerkleTree::build(data.iter().map(|l| l.as_slice()));
        // leaf index 1 corresponds to e_{0,2} in 1-based paper numbering.
        let proof = tree.proof(1);
        let v1 = sha256(&data[0]);
        assert_eq!(proof.siblings()[0], v1);
        let l01 = sha256_concat(&[&v1.0, &sha256(&data[1]).0]);
        let l23 = sha256_concat(&[&sha256(&data[2]).0, &sha256(&data[3]).0]);
        assert_eq!(proof.siblings()[1], l23);
        let l03 = sha256_concat(&[&l01.0, &l23.0]);
        let l45 = sha256_concat(&[&sha256(&data[4]).0, &sha256(&data[5]).0]);
        let l67 = sha256_concat(&[&sha256(&data[6]).0, &sha256(&data[7]).0]);
        let l47 = sha256_concat(&[&l45.0, &l67.0]);
        assert_eq!(proof.siblings()[2], l47);
        assert_eq!(tree.root(), sha256_concat(&[&l03.0, &l47.0]));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_panics() {
        let data = leaves(3);
        MerkleTree::build(data.iter().map(|l| l.as_slice()));
    }

    #[test]
    fn single_leaf_tree() {
        let data = leaves(1);
        let tree = MerkleTree::build(data.iter().map(|l| l.as_slice()));
        assert_eq!(tree.root(), sha256(&data[0]));
        let proof = tree.proof(0);
        assert_eq!(proof.wire_len(), 0);
        assert!(proof.verify(&data[0], &tree.root()));
    }
}
