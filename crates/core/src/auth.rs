//! Message authentication services: the four credential regimes the paper's
//! protocols and ablations need.
//!
//! | Regime | Eligibility | Statement binding | Used by |
//! |--------|-------------|-------------------|---------|
//! | [`Auth::Signed`] | everyone speaks | Schnorr/ideal signature | §3.1 warmup, Appendix C.1, Dolev–Strong |
//! | [`Auth::Mined`] (bit-specific) | VRF/F_mine on `(T, r, b)` | the ticket itself (the tag *is* the statement) | §3.2, Appendix C.2 — the paper's construction |
//! | [`Auth::Mined`] (shared) | VRF/F_mine on `(T, r, *)` | separate signature | the §3.3-Remark ablation (insecure) |
//! | [`Auth::FsMined`] | shared committee | forward-secure signature ± memory erasure | the Chen–Micali strawman |
//!
//! The crucial difference: with bit-specific eligibility, corrupting a node
//! that just voted for `b` yields no credential for `1 − b`. With a shared
//! committee the stolen ticket re-signs any statement — unless the
//! forward-secure key was already erased.

use std::sync::{Arc, Mutex};

use ba_crypto::forward_secure::{
    ForwardSecureKey, ForwardSecurePublicKey, ForwardSecureSignature, SignSlotError,
};
use ba_fmine::{AggSig, Eligibility, Keychain, MineTag, Sig, Ticket, SIG_BITS};
use ba_sim::NodeId;

use crate::cert::{AggregateQuorum, CertEncoding, VoteRef};

/// Authentication evidence attached to a protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Evidence {
    /// Plain signature (full-participation protocols).
    Sig(Sig),
    /// Bit-specific eligibility ticket (the paper's compiled format
    /// `(m, i, ρ, π)` — the ticket binds the whole statement).
    Ticket(Ticket),
    /// Shared-committee ticket plus a signature binding the statement.
    TicketSig(Ticket, Sig),
    /// Shared-committee ticket plus a forward-secure signature.
    FsTicketSig(Ticket, Box<ForwardSecureSignature>),
}

impl Evidence {
    /// Estimated wire size in bits.
    pub fn size_bits(&self) -> usize {
        match self {
            Evidence::Sig(s) => s.size_bits(),
            Evidence::Ticket(t) => t.size_bits(),
            Evidence::TicketSig(t, s) => t.size_bits() + s.size_bits(),
            Evidence::FsTicketSig(t, f) => {
                // slot (64) + Schnorr sig + slot vk (256) + Merkle path.
                t.size_bits() + 64 + SIG_BITS + 256 + 256 * f.proof.siblings.len()
            }
        }
    }
}

/// Shared forward-secure key service for the Chen–Micali ablation.
///
/// All nodes' per-slot keys live here (think of it as each node's memory);
/// the adversary signs through the same service for corrupt nodes, so
/// **erasure is faithfully modeled**: once a slot key is erased, nobody —
/// including an adversary that corrupts the node a microsecond later — can
/// sign for that slot again.
#[derive(Debug)]
pub struct FsService {
    keys: Vec<Mutex<ForwardSecureKey>>,
    pks: Vec<ForwardSecurePublicKey>,
}

impl FsService {
    /// Trusted setup of `n` forward-secure keys covering `slots` epochs.
    pub fn from_seed(seed: u64, n: usize, slots: usize) -> FsService {
        let keys: Vec<ForwardSecureKey> = (0..n)
            .map(|i| {
                let mut s = Vec::with_capacity(32);
                s.extend_from_slice(b"fs-service/v1/");
                s.extend_from_slice(&seed.to_be_bytes());
                s.extend_from_slice(&(i as u64).to_be_bytes());
                ForwardSecureKey::generate(&s, slots)
            })
            .collect();
        let pks = keys.iter().map(|k| k.public_key()).collect();
        FsService { keys: keys.into_iter().map(Mutex::new).collect(), pks }
    }

    /// Signs `msg` for `node` at `slot`.
    ///
    /// # Errors
    ///
    /// Propagates [`SignSlotError`] (out of range / erased).
    pub fn sign(
        &self,
        node: NodeId,
        slot: usize,
        msg: &[u8],
    ) -> Result<ForwardSecureSignature, SignSlotError> {
        self.keys[node.index()].lock().expect("poisoned").sign_slot(slot, msg)
    }

    /// Erases `node`'s keys for all slots `<= slot` (the memory-erasure
    /// step).
    pub fn erase_through(&self, node: NodeId, slot: usize) {
        self.keys[node.index()].lock().expect("poisoned").erase_through(slot);
    }

    /// Whether `node` can still sign for `slot`.
    pub fn slot_available(&self, node: NodeId, slot: usize) -> bool {
        self.keys[node.index()].lock().expect("poisoned").slot_available(slot)
    }

    /// Verifies a slot signature.
    pub fn verify(
        &self,
        node: NodeId,
        slot: usize,
        msg: &[u8],
        sig: &ForwardSecureSignature,
    ) -> bool {
        node.index() < self.pks.len() && self.pks[node.index()].verify(slot, msg, sig)
    }
}

/// The authentication regime for one protocol instance.
///
/// Cheap to clone (all services behind `Arc`).
#[derive(Clone)]
pub enum Auth {
    /// Everyone may speak; statements carry signatures.
    Signed {
        /// The signing service.
        keychain: Arc<Keychain>,
    },
    /// Conditional multicast through eligibility election.
    Mined {
        /// The eligibility backend (ideal `F_mine` or VRF).
        elig: Arc<dyn Eligibility>,
        /// `true` = the paper's bit-specific election; `false` = the
        /// shared-committee ablation (requires `keychain`).
        bit_specific: bool,
        /// Statement-binding signatures for the shared ablation.
        keychain: Option<Arc<Keychain>>,
    },
    /// Shared committee with forward-secure signatures (Chen–Micali).
    FsMined {
        /// The eligibility backend.
        elig: Arc<dyn Eligibility>,
        /// Forward-secure key service.
        fs: Arc<FsService>,
        /// Whether honest nodes erase slot keys immediately after signing.
        erasure: bool,
    },
}

impl std::fmt::Debug for Auth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Auth::Signed { .. } => write!(f, "Auth::Signed"),
            Auth::Mined { bit_specific, .. } => {
                write!(f, "Auth::Mined {{ bit_specific: {bit_specific} }}")
            }
            Auth::FsMined { erasure, .. } => write!(f, "Auth::FsMined {{ erasure: {erasure} }}"),
        }
    }
}

impl Auth {
    /// Attempts to produce evidence allowing `node` to send the statement
    /// `tag`. Returns `None` when the node is not eligible (mined regimes).
    ///
    /// For [`Auth::FsMined`] with erasure on, the slot key is destroyed as a
    /// side effect of signing (sign-then-erase, within the same round).
    pub fn attest(&self, node: NodeId, tag: &MineTag) -> Option<Evidence> {
        match self {
            Auth::Signed { keychain } => Some(Evidence::Sig(keychain.sign(node, &tag.to_bytes()))),
            Auth::Mined { elig, bit_specific: true, .. } => {
                elig.mine(node, tag).map(Evidence::Ticket)
            }
            Auth::Mined { elig, bit_specific: false, keychain } => {
                let ticket = elig.mine(node, &tag.sharedized())?;
                let kc = keychain.as_ref().expect("shared-committee mode requires a keychain");
                Some(Evidence::TicketSig(ticket, kc.sign(node, &tag.to_bytes())))
            }
            Auth::FsMined { elig, fs, erasure } => {
                let ticket = elig.mine(node, &tag.sharedized())?;
                let slot = tag.iter.unwrap_or(0) as usize;
                let sig = fs.sign(node, slot, &tag.to_bytes()).ok()?;
                if *erasure {
                    fs.erase_through(node, slot);
                }
                Some(Evidence::FsTicketSig(ticket, Box::new(sig)))
            }
        }
    }

    /// Verifies that `node` was entitled to send the statement `tag`.
    pub fn verify(&self, node: NodeId, tag: &MineTag, ev: &Evidence) -> bool {
        match (self, ev) {
            (Auth::Signed { keychain }, Evidence::Sig(sig)) => {
                keychain.verify(node, &tag.to_bytes(), sig)
            }
            (Auth::Mined { elig, bit_specific: true, .. }, Evidence::Ticket(t)) => {
                elig.verify(node, tag, t)
            }
            (Auth::Mined { elig, bit_specific: false, keychain }, Evidence::TicketSig(t, sig)) => {
                let kc = keychain.as_ref().expect("shared-committee mode requires a keychain");
                elig.verify(node, &tag.sharedized(), t) && kc.verify(node, &tag.to_bytes(), sig)
            }
            (Auth::FsMined { elig, fs, .. }, Evidence::FsTicketSig(t, sig)) => {
                let slot = tag.iter.unwrap_or(0) as usize;
                elig.verify(node, &tag.sharedized(), t)
                    && fs.verify(node, slot, &tag.to_bytes(), sig)
            }
            _ => false, // evidence kind does not match the regime
        }
    }

    /// Verifies a batch of `(node, tag, evidence)` claims, returning one
    /// result per claim.
    ///
    /// The expensive regimes collapse into the underlying batch
    /// verification APIs — one random-linear-combination
    /// multi-exponentiation for a whole inbox of Schnorr signatures or VRF
    /// tickets — and populate the services' statement caches, so later
    /// [`Auth::verify`] calls on the same evidence (certificates repeat
    /// votes across rounds) are O(1) lookups. When the combined check
    /// fails, claims are re-verified individually to identify the invalid
    /// ones, preserving exactly the per-claim accept set.
    pub fn verify_batch(&self, claims: &[(NodeId, MineTag, &Evidence)]) -> Vec<bool> {
        let per_item = |claims: &[(NodeId, MineTag, &Evidence)]| -> Vec<bool> {
            claims.iter().map(|(n, t, e)| self.verify(*n, t, e)).collect()
        };
        match self {
            Auth::Signed { keychain } => {
                let msgs: Vec<[u8; 11]> = claims.iter().map(|(_, t, _)| t.to_bytes()).collect();
                let mut batch = Vec::with_capacity(claims.len());
                for ((node, _, ev), msg) in claims.iter().zip(msgs.iter()) {
                    let Evidence::Sig(sig) = ev else { return per_item(claims) };
                    batch.push((*node, msg.as_slice(), sig));
                }
                if keychain.verify_batch(&batch) {
                    vec![true; claims.len()]
                } else {
                    per_item(claims)
                }
            }
            Auth::Mined { elig, bit_specific: true, .. } => {
                let mut refs: Vec<(NodeId, &MineTag, &Ticket)> = Vec::with_capacity(claims.len());
                for (node, tag, ev) in claims {
                    let Evidence::Ticket(t) = ev else { return per_item(claims) };
                    refs.push((*node, tag, t));
                }
                if elig.verify_batch(&refs) {
                    vec![true; claims.len()]
                } else {
                    per_item(claims)
                }
            }
            Auth::Mined { elig, bit_specific: false, keychain } => {
                let kc = keychain.as_ref().expect("shared-committee mode requires a keychain");
                let shared_tags: Vec<MineTag> =
                    claims.iter().map(|(_, t, _)| t.sharedized()).collect();
                let msgs: Vec<[u8; 11]> = claims.iter().map(|(_, t, _)| t.to_bytes()).collect();
                let mut tickets = Vec::with_capacity(claims.len());
                let mut sigs = Vec::with_capacity(claims.len());
                for (i, (node, _, ev)) in claims.iter().enumerate() {
                    let Evidence::TicketSig(t, sig) = ev else { return per_item(claims) };
                    tickets.push((*node, &shared_tags[i], t));
                    sigs.push((*node, msgs[i].as_slice(), sig));
                }
                if elig.verify_batch(&tickets) && kc.verify_batch(&sigs) {
                    vec![true; claims.len()]
                } else {
                    per_item(claims)
                }
            }
            // Forward-secure signatures have no batch form; fall through.
            Auth::FsMined { .. } => per_item(claims),
        }
    }

    /// Whether this regime can compress a quorum of evidence into one
    /// aggregate signature. Only [`Auth::Signed`] can: mined tickets prove
    /// *eligibility* (a VRF evaluation), which has no joint-signing
    /// analogue — configurations requesting aggregate certificates under a
    /// mined regime fall back to the vector encoding.
    pub fn supports_aggregation(&self) -> bool {
        matches!(self, Auth::Signed { .. })
    }

    /// The encoding quorums are actually built with when `requested` is
    /// asked for: the request itself when the regime can aggregate, else
    /// [`CertEncoding::Vector`]. Mined tickets prove eligibility and cannot
    /// be jointly signed, so requesting `aggregate` under a mined regime is
    /// a silent no-op — the differential suite relies on the fallback being
    /// byte-identical.
    pub fn effective_encoding(&self, requested: CertEncoding) -> CertEncoding {
        if self.supports_aggregation() {
            requested
        } else {
            CertEncoding::Vector
        }
    }

    /// The signer-bitmap width for aggregate quorums (the enrolled node
    /// count), when this regime supports aggregation.
    pub fn aggregation_domain(&self) -> Option<usize> {
        match self {
            Auth::Signed { keychain } => Some(keychain.n()),
            _ => None,
        }
    }

    /// Aggregates a quorum's evidence on the shared statement `tag` into
    /// one [`AggSig`]. `claims` must be in strictly increasing node order
    /// and every evidence must be a valid [`Evidence::Sig`] on `tag` — the
    /// keychain screens the inputs and refuses otherwise (see
    /// [`Keychain::aggregate`]). `None` under non-signed regimes.
    pub fn aggregate(&self, tag: &MineTag, claims: &[(NodeId, &Evidence)]) -> Option<AggSig> {
        let Auth::Signed { keychain } = self else { return None };
        let mut sigs: Vec<(NodeId, &Sig)> = Vec::with_capacity(claims.len());
        for (node, ev) in claims {
            let Evidence::Sig(sig) = ev else { return None };
            sigs.push((*node, sig));
        }
        keychain.aggregate(&sigs, &tag.to_bytes())
    }

    /// Compresses a quorum of attestations of `tag`, sorted by node, into an
    /// [`AggregateQuorum`]. `None` when the regime cannot aggregate or the
    /// keychain refuses the inputs (see [`Auth::aggregate`]).
    pub fn aggregate_quorum(&self, tag: &MineTag, refs: &[VoteRef]) -> Option<AggregateQuorum> {
        let n = self.aggregation_domain()?;
        let claims: Vec<(NodeId, &Evidence)> = refs.iter().map(|r| (r.from, &r.ev)).collect();
        let agg = self.aggregate(tag, &claims)?;
        Some(AggregateQuorum { n, signers: refs.iter().map(|r| r.from).collect(), agg })
    }

    /// Verifies an aggregate quorum claim for the statement `tag`: the
    /// bitmap width must match the enrolled population and the aggregate
    /// must verify against exactly the listed signers
    /// ([`Keychain::verify_aggregate`] — Straus fast path + claim cache).
    /// Always `false` under regimes that cannot aggregate.
    pub fn verify_aggregate(&self, tag: &MineTag, quorum: &AggregateQuorum) -> bool {
        let Auth::Signed { keychain } = self else { return false };
        quorum.n == keychain.n()
            && keychain.verify_aggregate(&quorum.signers, &tag.to_bytes(), &quorum.agg)
    }

    /// Round-boundary hygiene: in the memory-erasure regime every honest
    /// node destroys its slot-`epoch` key during the round — **whether or
    /// not it spoke** — so an adversary corrupting it right after observing
    /// the round's traffic finds nothing to sign with (Chen–Micali's
    /// "ephemeral keys"). No-op for the other regimes.
    pub fn end_of_round(&self, node: NodeId, epoch: u64) {
        if let Auth::FsMined { fs, erasure: true, .. } = self {
            fs.erase_through(node, epoch as usize);
        }
    }

    /// Whether [`Auth::verify_batch`] has a genuine fast path in this
    /// regime (real signatures / real VRF tickets). When `false`, an
    /// up-front batch pass over an inbox would just duplicate the
    /// per-message work.
    pub fn supports_batch(&self) -> bool {
        match self {
            Auth::Signed { keychain } => keychain.mode() == ba_fmine::SigMode::Real,
            Auth::Mined { elig, keychain, .. } => {
                elig.supports_batch()
                    || keychain.as_ref().is_some_and(|kc| kc.mode() == ba_fmine::SigMode::Real)
            }
            Auth::FsMined { .. } => false,
        }
    }

    /// The eligibility backend, if this regime uses one.
    pub fn eligibility(&self) -> Option<&Arc<dyn Eligibility>> {
        match self {
            Auth::Signed { .. } => None,
            Auth::Mined { elig, .. } | Auth::FsMined { elig, .. } => Some(elig),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_fmine::{IdealMine, MineParams, MsgKind, SigMode};

    fn vote_tag(r: u64, b: bool) -> MineTag {
        MineTag::new(MsgKind::Vote, r, b)
    }

    fn signed_auth() -> Auth {
        Auth::Signed { keychain: Arc::new(Keychain::from_seed(1, 8, SigMode::Ideal)) }
    }

    fn mined_auth(bit_specific: bool) -> Auth {
        Auth::Mined {
            elig: Arc::new(IdealMine::new(2, MineParams::new(8, 8.0))), // prob 1
            bit_specific,
            keychain: (!bit_specific).then(|| Arc::new(Keychain::from_seed(1, 8, SigMode::Ideal))),
        }
    }

    fn fs_auth(erasure: bool) -> Auth {
        Auth::FsMined {
            elig: Arc::new(IdealMine::new(2, MineParams::new(8, 8.0))),
            fs: Arc::new(FsService::from_seed(3, 8, 16)),
            erasure,
        }
    }

    #[test]
    fn signed_attest_verify() {
        let auth = signed_auth();
        let tag = vote_tag(1, true);
        let ev = auth.attest(NodeId(0), &tag).expect("signing always succeeds");
        assert!(auth.verify(NodeId(0), &tag, &ev));
        assert!(!auth.verify(NodeId(1), &tag, &ev));
        assert!(!auth.verify(NodeId(0), &vote_tag(1, false), &ev));
    }

    #[test]
    fn bit_specific_ticket_binds_the_bit() {
        let auth = mined_auth(true);
        let tag = vote_tag(1, true);
        let ev = auth.attest(NodeId(0), &tag).expect("prob 1 eligibility");
        assert!(auth.verify(NodeId(0), &tag, &ev));
        // The same ticket is useless for the other bit — the §3.2 property.
        assert!(!auth.verify(NodeId(0), &vote_tag(1, false), &ev));
    }

    #[test]
    fn shared_ticket_is_bit_agnostic_but_sig_binds() {
        let auth = mined_auth(false);
        let tag = vote_tag(1, true);
        let Some(Evidence::TicketSig(ticket, _sig)) = auth.attest(NodeId(0), &tag) else {
            panic!("expected TicketSig");
        };
        // An adversary controlling node 0 re-signs the flipped statement
        // with the SAME ticket — and it verifies. This is the flaw.
        let flipped = vote_tag(1, false);
        let kc = match &auth {
            Auth::Mined { keychain: Some(kc), .. } => kc.clone(),
            _ => unreachable!(),
        };
        let forged = Evidence::TicketSig(ticket, kc.sign(NodeId(0), &flipped.to_bytes()));
        assert!(auth.verify(NodeId(0), &flipped, &forged));
    }

    #[test]
    fn fs_mode_with_erasure_blocks_reforging() {
        let auth = fs_auth(true);
        let tag = vote_tag(1, true);
        let ev = auth.attest(NodeId(0), &tag).expect("eligible + key available");
        assert!(auth.verify(NodeId(0), &tag, &ev));
        // After sign-then-erase, the slot key is gone: the adversary cannot
        // produce a conflicting vote for the same epoch.
        let Auth::FsMined { fs, .. } = &auth else { unreachable!() };
        assert!(!fs.slot_available(NodeId(0), 1));
        assert!(fs.sign(NodeId(0), 1, b"conflicting").is_err());
        // ...but later slots still work.
        assert!(auth.attest(NodeId(0), &vote_tag(2, false)).is_some());
    }

    #[test]
    fn fs_mode_without_erasure_allows_reforging() {
        let auth = fs_auth(false);
        let tag = vote_tag(1, true);
        let _ev = auth.attest(NodeId(0), &tag).expect("eligible");
        let Auth::FsMined { fs, .. } = &auth else { unreachable!() };
        // The slot key survives: corrupting the node lets the adversary sign
        // the flipped statement.
        assert!(fs.slot_available(NodeId(0), 1));
        let flipped = vote_tag(1, false);
        let forged = fs.sign(NodeId(0), 1, &flipped.to_bytes()).expect("key not erased");
        assert!(fs.verify(NodeId(0), 1, &flipped.to_bytes(), &forged));
    }

    #[test]
    fn cross_regime_evidence_rejected() {
        let signed = signed_auth();
        let mined = mined_auth(true);
        let tag = vote_tag(0, true);
        let sig_ev = signed.attest(NodeId(0), &tag).unwrap();
        let ticket_ev = mined.attest(NodeId(0), &tag).unwrap();
        assert!(!signed.verify(NodeId(0), &tag, &ticket_ev));
        assert!(!mined.verify(NodeId(0), &tag, &sig_ev));
    }

    #[test]
    fn evidence_sizes_ordered() {
        let sig = signed_auth().attest(NodeId(0), &vote_tag(0, true)).unwrap();
        let ticket = mined_auth(true).attest(NodeId(0), &vote_tag(0, true)).unwrap();
        let both = mined_auth(false).attest(NodeId(0), &vote_tag(0, true)).unwrap();
        assert!(sig.size_bits() < ticket.size_bits());
        assert!(ticket.size_bits() < both.size_bits());
    }
}
