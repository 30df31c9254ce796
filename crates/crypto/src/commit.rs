//! Merkle-tree vector commitments.
//!
//! Appendix D.2's commitment to a node's VRF key is the published
//! `pk = g^sk` itself (see [`crate::vrf`]); no separate commitment scheme
//! is instantiated.

use crate::sha256::Sha256;

/// A compact Merkle tree over 32-byte leaves (SHA-256, second-preimage
/// hardened with distinct leaf/node tags).
///
/// Used by the forward-secure signature scheme to commit to a vector of
/// per-slot public keys with logarithmic openings.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes, levels.last() = [root]
    levels: Vec<Vec<[u8; 32]>>,
}

/// A Merkle inclusion proof: sibling hashes from leaf to root.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Sibling hashes, one per level, bottom-up.
    pub siblings: Vec<[u8; 32]>,
}

fn leaf_hash(data: &[u8]) -> [u8; 32] {
    Sha256::digest_parts(&[b"\x00merkle-leaf", data])
}

fn node_hash(l: &[u8; 32], r: &[u8; 32]) -> [u8; 32] {
    Sha256::digest_parts(&[b"\x01merkle-node", l, r])
}

impl MerkleTree {
    /// Builds a tree over the given leaves (duplicating the last leaf of odd
    /// levels, Bitcoin style).
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty.
    pub fn build(leaves: &[Vec<u8>]) -> MerkleTree {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        let mut levels = vec![leaves.iter().map(|l| leaf_hash(l)).collect::<Vec<_>>()];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let l = &pair[0];
                let r = pair.get(1).unwrap_or(l);
                next.push(node_hash(l, r));
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The Merkle root.
    pub fn root(&self) -> [u8; 32] {
        self.levels.last().expect("nonempty")[0]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// Whether the tree is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Produces an inclusion proof for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn prove(&self, index: usize) -> MerkleProof {
        assert!(index < self.len(), "leaf index out of bounds");
        let mut siblings = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sib = if idx.is_multiple_of(2) {
                *level.get(idx + 1).unwrap_or(&level[idx])
            } else {
                level[idx - 1]
            };
            siblings.push(sib);
            idx /= 2;
        }
        MerkleProof { index, siblings }
    }

    /// Verifies an inclusion proof against a root.
    pub fn verify(root: &[u8; 32], leaf_data: &[u8], proof: &MerkleProof) -> bool {
        let mut h = leaf_hash(leaf_data);
        let mut idx = proof.index;
        for sib in &proof.siblings {
            h = if idx.is_multiple_of(2) { node_hash(&h, sib) } else { node_hash(sib, &h) };
            idx /= 2;
        }
        h == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merkle_single_leaf() {
        let t = MerkleTree::build(&[b"only".to_vec()]);
        let p = t.prove(0);
        assert!(MerkleTree::verify(&t.root(), b"only", &p));
        assert!(!MerkleTree::verify(&t.root(), b"fake", &p));
    }

    #[test]
    fn merkle_power_of_two_and_odd_sizes() {
        for n in [2usize, 3, 4, 5, 7, 8, 13, 16] {
            let leaves: Vec<Vec<u8>> = (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect();
            let t = MerkleTree::build(&leaves);
            assert_eq!(t.len(), n);
            for (i, leaf) in leaves.iter().enumerate() {
                let p = t.prove(i);
                assert!(MerkleTree::verify(&t.root(), leaf, &p), "n={n} i={i}");
                // Wrong index fails.
                let mut bad = p.clone();
                bad.index = (i + 1) % n;
                if n > 1 && leaves[bad.index] != *leaf {
                    assert!(!MerkleTree::verify(&t.root(), leaf, &bad), "n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn merkle_proof_for_wrong_root_fails() {
        let t1 = MerkleTree::build(&[b"a".to_vec(), b"b".to_vec()]);
        let t2 = MerkleTree::build(&[b"a".to_vec(), b"c".to_vec()]);
        let p = t1.prove(0);
        assert!(!MerkleTree::verify(&t2.root(), b"a", &p) || t1.root() == t2.root());
        assert_ne!(t1.root(), t2.root());
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn merkle_empty_panics() {
        let _ = MerkleTree::build(&[]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn merkle_prove_out_of_bounds_panics() {
        let t = MerkleTree::build(&[b"a".to_vec()]);
        let _ = t.prove(1);
    }
}
