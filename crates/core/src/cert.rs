//! Certificates: quorums of votes, ranked by iteration (Appendix C).
//!
//! A collection of `quorum` (signed or mined) iteration-`r` `Vote` messages
//! for the same bit `b` from distinct nodes is an *iteration-`r` certificate
//! for `b`*. A bit without any certificate is treated as having an
//! "iteration-0 certificate", the lowest rank.
//!
//! ## Encodings
//!
//! How a quorum is carried on the wire is a pluggable backend
//! ([`CertEncoding`]):
//!
//! * [`CertEncoding::Vector`] — the literal transcript: one
//!   `(voter, evidence)` pair per quorum member, O(quorum · |evidence|)
//!   bits. Works under every authentication regime.
//! * [`CertEncoding::Aggregate`] — one aggregate signature over the shared
//!   vote statement plus an `n`-bit signer bitmap
//!   ([`AggregateQuorum`]), O(n + |sig|) bits. Only the signed regime can
//!   aggregate (tickets prove *eligibility*, which has no joint-signing
//!   analogue here), so mined configurations silently stay on `Vector` —
//!   see [`Auth::effective_encoding`].
//!
//! Both encodings answer the same question — "did `quorum` distinct nodes
//! attest `(Vote, r, b)`?" — and the differential suite in `ba-bench` pins
//! the protocol's decisions to be identical under either.

use ba_fmine::{AggSig, MineTag, MsgKind, AGG_SIG_BITS};
use ba_sim::{Bit, NodeId};

use crate::auth::{Auth, Evidence};

/// Which wire encoding certificates and commit quorums use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CertEncoding {
    /// One `(voter, evidence)` pair per quorum member (the transcript).
    #[default]
    Vector,
    /// One aggregate signature plus an `n`-bit signer bitmap.
    Aggregate,
}

impl std::fmt::Display for CertEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertEncoding::Vector => f.write_str("vector"),
            CertEncoding::Aggregate => f.write_str("aggregate"),
        }
    }
}

impl std::str::FromStr for CertEncoding {
    type Err = String;

    fn from_str(s: &str) -> Result<CertEncoding, String> {
        match s {
            "vector" => Ok(CertEncoding::Vector),
            "aggregate" => Ok(CertEncoding::Aggregate),
            other => Err(format!("unknown cert encoding '{other}' (expected vector|aggregate)")),
        }
    }
}

/// One attestation inside a quorum: the attesting node and its evidence for
/// the quorum's statement — `(Vote, iter, bit)` inside a certificate,
/// `(Commit, iter, bit)` inside a commit quorum.
#[derive(Clone, Debug, PartialEq)]
pub struct VoteRef {
    /// The attesting node.
    pub from: NodeId,
    /// Its evidence for the quorum's statement.
    pub ev: Evidence,
}

/// One commit reference inside a `Terminate` message: evidence that `from`
/// sent `(Commit, iter, bit)`.
pub type CommitRef = VoteRef;

/// Whether `refs` attest `tag` from distinct nodes, each with valid
/// evidence — the vector-encoded quorum check. All evidence goes through
/// one [`Auth::verify_batch`] call: one combined multi-exponentiation in
/// the real-crypto regimes, and O(1) statement-cache hits for evidence this
/// node has verified before (certificates repeat votes across rounds).
pub(crate) fn distinct_and_valid(refs: &[VoteRef], tag: MineTag, auth: &Auth) -> bool {
    let mut seen: Vec<NodeId> = Vec::with_capacity(refs.len());
    for r in refs {
        if seen.contains(&r.from) {
            return false; // duplicate attester
        }
        seen.push(r.from);
    }
    let claims: Vec<(NodeId, MineTag, &Evidence)> =
        refs.iter().map(|r| (r.from, tag, &r.ev)).collect();
    auth.verify_batch(&claims).iter().all(|&ok| ok)
}

/// A quorum compressed to one aggregate signature plus a signer bitmap —
/// the [`CertEncoding::Aggregate`] payload for certificates and commit
/// quorums alike.
#[derive(Clone, Debug, PartialEq)]
pub struct AggregateQuorum {
    /// Enrolled node count: the width of the signer bitmap.
    pub n: usize,
    /// The quorum members, in strictly increasing id order (the set bits
    /// of the bitmap, which is how the wire format carries them).
    pub signers: Vec<NodeId>,
    /// One aggregate signature by exactly `signers` on the shared
    /// statement.
    pub agg: AggSig,
}

impl AggregateQuorum {
    /// Number of quorum members.
    pub fn len(&self) -> usize {
        self.signers.len()
    }

    /// Whether the quorum is empty (never valid, but keeps clippy's
    /// `len_without_is_empty` honest).
    pub fn is_empty(&self) -> bool {
        self.signers.is_empty()
    }

    /// Wire size in bits: the `n`-wide signer bitmap plus one aggregate
    /// signature — independent of the quorum size. This is the whole
    /// communication win over [`CertEncoding::Vector`].
    pub fn size_bits(&self) -> usize {
        self.n + AGG_SIG_BITS
    }
}

/// The quorum payload of a [`Certificate`], in either encoding.
#[derive(Clone, Debug, PartialEq)]
pub enum CertBody {
    /// The vote transcript.
    Vector(Vec<VoteRef>),
    /// One aggregate signature + bitmap.
    Aggregate(AggregateQuorum),
}

/// An iteration-`r` certificate for a bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Certificate {
    /// The iteration whose votes form the certificate (1-based; rank 0 is
    /// reserved for "no certificate").
    pub iter: u64,
    /// The certified bit.
    pub bit: Bit,
    /// The quorum of votes, in the encoding the sender used.
    pub body: CertBody,
}

impl Certificate {
    /// A vector-encoded certificate (the historical constructor).
    pub fn from_votes(iter: u64, bit: Bit, votes: Vec<VoteRef>) -> Certificate {
        Certificate { iter, bit, body: CertBody::Vector(votes) }
    }

    /// The rank of an optional certificate: `0` for `None` (the paper's
    /// "iteration-0 certificate"), else the certificate's iteration.
    pub fn rank(cert: &Option<Certificate>) -> u64 {
        cert.as_ref().map_or(0, |c| c.iter)
    }

    /// Number of votes the certificate claims.
    pub fn quorum_len(&self) -> usize {
        match &self.body {
            CertBody::Vector(votes) => votes.len(),
            CertBody::Aggregate(q) => q.len(),
        }
    }

    /// Verifies the certificate: at least `quorum` votes from distinct nodes,
    /// each attested for `(Vote, iter, bit)`.
    ///
    /// Vector bodies check all vote evidence in one batch; aggregate
    /// bodies check the single aggregate signature against the claimed
    /// signer bitmap via [`Auth::verify_aggregate`] (Straus fast path +
    /// claim cache).
    pub fn verify(&self, auth: &Auth, quorum: usize) -> bool {
        if self.iter == 0 || self.quorum_len() < quorum {
            return false;
        }
        let tag = MineTag::new(MsgKind::Vote, self.iter, self.bit);
        match &self.body {
            CertBody::Vector(votes) => distinct_and_valid(votes, tag, auth),
            CertBody::Aggregate(q) => auth.verify_aggregate(&tag, q),
        }
    }

    /// Estimated wire size in bits (the quorum dominates).
    pub fn size_bits(&self) -> usize {
        let body = match &self.body {
            CertBody::Vector(votes) => votes.iter().map(|v| 32 + v.ev.size_bits()).sum::<usize>(),
            CertBody::Aggregate(q) => q.size_bits(),
        };
        64 + 8 + body
    }
}

/// The quorum of commits a `Terminate` message carries, in either encoding.
#[derive(Clone, Debug, PartialEq)]
pub enum CommitQuorum {
    /// The commit transcript.
    Vector(Vec<CommitRef>),
    /// One aggregate signature + bitmap over the commit statement.
    Aggregate(AggregateQuorum),
}

impl CommitQuorum {
    /// Number of commits the quorum claims.
    pub fn len(&self) -> usize {
        match self {
            CommitQuorum::Vector(commits) => commits.len(),
            CommitQuorum::Aggregate(q) => q.len(),
        }
    }

    /// Whether the quorum is empty (never valid at any positive quorum).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Verifies the quorum for `(Commit, iter, bit)`: distinct nodes, valid
    /// evidence, at least `quorum` of them.
    pub fn verify(&self, iter: u64, bit: Bit, auth: &Auth, quorum: usize) -> bool {
        if self.len() < quorum {
            return false;
        }
        let tag = MineTag::new(MsgKind::Commit, iter, bit);
        match self {
            CommitQuorum::Vector(commits) => distinct_and_valid(commits, tag, auth),
            CommitQuorum::Aggregate(q) => auth.verify_aggregate(&tag, q),
        }
    }

    /// Estimated wire size in bits.
    pub fn size_bits(&self) -> usize {
        match self {
            CommitQuorum::Vector(commits) => {
                commits.iter().map(|c| 32 + c.ev.size_bits()).sum::<usize>()
            }
            CommitQuorum::Aggregate(q) => q.size_bits(),
        }
    }
}

/// Verifies a quorum of commit references for `(iter, bit)` — the
/// vector-encoded special case of [`CommitQuorum::verify`], kept for
/// callers that hold a bare transcript.
pub fn verify_commit_quorum(
    commits: &[CommitRef],
    iter: u64,
    bit: Bit,
    auth: &Auth,
    quorum: usize,
) -> bool {
    CommitQuorum::Vector(commits.to_vec()).verify(iter, bit, auth, quorum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::IterConfig;
    use ba_fmine::{Keychain, SigMode};
    use std::sync::Arc;

    fn signed_auth(n: usize) -> Auth {
        Auth::Signed { keychain: Arc::new(Keychain::from_seed(1, n, SigMode::Ideal)) }
    }

    fn make_cert(auth: &Auth, iter: u64, bit: Bit, voters: &[usize]) -> Certificate {
        let tag = MineTag::new(MsgKind::Vote, iter, bit);
        Certificate::from_votes(
            iter,
            bit,
            voters
                .iter()
                .map(|&i| VoteRef {
                    from: NodeId(i),
                    ev: auth.attest(NodeId(i), &tag).expect("signed mode always attests"),
                })
                .collect(),
        )
    }

    /// Builds the aggregate-encoded certificate for the same quorum.
    fn make_agg_cert(auth: &Auth, n: usize, iter: u64, bit: Bit, voters: &[usize]) -> Certificate {
        let vector = make_cert(auth, iter, bit, voters);
        let CertBody::Vector(votes) = &vector.body else { unreachable!() };
        let tag = MineTag::new(MsgKind::Vote, iter, bit);
        let mut sorted: Vec<&VoteRef> = votes.iter().collect();
        sorted.sort_by_key(|v| v.from);
        let claims: Vec<(NodeId, &Evidence)> = sorted.iter().map(|v| (v.from, &v.ev)).collect();
        let agg = auth.aggregate(&tag, &claims).expect("signed regime aggregates");
        let signers: Vec<NodeId> = sorted.iter().map(|v| v.from).collect();
        Certificate { iter, bit, body: CertBody::Aggregate(AggregateQuorum { n, signers, agg }) }
    }

    #[test]
    fn cert_encoding_string_roundtrip() {
        for enc in [CertEncoding::Vector, CertEncoding::Aggregate] {
            let s = enc.to_string();
            assert_eq!(s.parse::<CertEncoding>().unwrap(), enc);
        }
        assert!("threshold".parse::<CertEncoding>().is_err());
        assert_eq!(CertEncoding::default(), CertEncoding::Vector);
    }

    #[test]
    fn valid_certificate_verifies() {
        let auth = signed_auth(5);
        let cert = make_cert(&auth, 2, true, &[0, 1, 2]);
        assert!(cert.verify(&auth, 3));
        assert!(cert.verify(&auth, 2)); // higher quorum than needed
        assert!(!cert.verify(&auth, 4)); // not enough votes
    }

    #[test]
    fn valid_aggregate_certificate_verifies() {
        let auth = signed_auth(5);
        let cert = make_agg_cert(&auth, 5, 2, true, &[0, 1, 2]);
        assert!(cert.verify(&auth, 3));
        assert!(cert.verify(&auth, 2));
        assert!(!cert.verify(&auth, 4)); // not enough signers
    }

    #[test]
    fn aggregate_is_smaller_than_vector_at_scale() {
        let n = 64;
        let auth = signed_auth(n);
        let voters: Vec<usize> = (0..33).collect();
        let vector = make_cert(&auth, 1, true, &voters);
        let agg = make_agg_cert(&auth, n, 1, true, &voters);
        assert!(
            agg.size_bits() * 4 <= vector.size_bits(),
            "aggregate {} bits vs vector {} bits",
            agg.size_bits(),
            vector.size_bits()
        );
    }

    #[test]
    fn duplicate_voters_rejected() {
        let auth = signed_auth(5);
        let mut cert = make_cert(&auth, 2, true, &[0, 1]);
        let CertBody::Vector(votes) = &mut cert.body else { unreachable!() };
        votes.push(votes[0].clone());
        assert!(!cert.verify(&auth, 3), "padding with a duplicate must not reach quorum");
    }

    #[test]
    fn aggregate_duplicate_signers_rejected() {
        let auth = signed_auth(5);
        let mut cert = make_agg_cert(&auth, 5, 2, true, &[0, 1]);
        let CertBody::Aggregate(q) = &mut cert.body else { unreachable!() };
        q.signers.push(q.signers[1]);
        assert!(!cert.verify(&auth, 3), "a bitmap cannot name a node twice");
    }

    #[test]
    fn aggregate_bitmap_inflation_rejected() {
        let auth = signed_auth(5);
        let mut cert = make_agg_cert(&auth, 5, 2, true, &[0, 1]);
        let CertBody::Aggregate(q) = &mut cert.body else { unreachable!() };
        q.signers.push(NodeId(3)); // node 3 never voted
        assert!(!cert.verify(&auth, 3), "claiming a non-signer must not reach quorum");
    }

    #[test]
    fn aggregate_under_mined_regime_rejected() {
        // An aggregate body is only meaningful under the signed regime;
        // a mined-regime verifier must reject it outright.
        let signed = signed_auth(5);
        let cert = make_agg_cert(&signed, 5, 2, true, &[0, 1, 2]);
        let mined = Auth::Mined {
            elig: Arc::new(ba_fmine::IdealMine::new(2, ba_fmine::MineParams::new(5, 5.0))),
            bit_specific: true,
            keychain: None,
        };
        assert!(!cert.verify(&mined, 3));
        assert!(
            IterConfig::subq_half(
                5,
                Arc::new(ba_fmine::IdealMine::new(2, ba_fmine::MineParams::new(5, 5.0)))
            )
            .effective_cert_encoding()
                == CertEncoding::Vector
        );
    }

    #[test]
    fn vote_for_other_bit_rejected() {
        let auth = signed_auth(5);
        // Evidence actually covers bit=false, certificate claims bit=true.
        let mut cert = make_cert(&auth, 2, true, &[0, 1]);
        let wrong_tag = MineTag::new(MsgKind::Vote, 2, false);
        let CertBody::Vector(votes) = &mut cert.body else { unreachable!() };
        votes.push(VoteRef { from: NodeId(2), ev: auth.attest(NodeId(2), &wrong_tag).unwrap() });
        assert!(!cert.verify(&auth, 3));
    }

    #[test]
    fn aggregate_for_other_statement_rejected() {
        // Mixed-statement aggregation: an aggregate over the *commit*
        // statement presented as a vote certificate must fail.
        let auth = signed_auth(5);
        let commit_tag = MineTag::new(MsgKind::Commit, 2, true);
        let claims: Vec<(NodeId, Evidence)> =
            (0..3).map(|i| (NodeId(i), auth.attest(NodeId(i), &commit_tag).unwrap())).collect();
        let refs: Vec<(NodeId, &Evidence)> = claims.iter().map(|(n, e)| (*n, e)).collect();
        let agg = auth.aggregate(&commit_tag, &refs).expect("valid commit aggregate");
        let cert = Certificate {
            iter: 2,
            bit: true,
            body: CertBody::Aggregate(AggregateQuorum {
                n: 5,
                signers: (0..3).map(NodeId).collect(),
                agg,
            }),
        };
        assert!(!cert.verify(&auth, 3));
    }

    #[test]
    fn iteration_zero_certificates_invalid() {
        let auth = signed_auth(5);
        let cert = make_cert(&auth, 0, true, &[0, 1, 2]);
        assert!(!cert.verify(&auth, 3), "iteration 0 is the reserved no-certificate rank");
        let agg = make_agg_cert(&auth, 5, 0, true, &[0, 1, 2]);
        assert!(!agg.verify(&auth, 3));
    }

    #[test]
    fn rank_ordering() {
        let auth = signed_auth(5);
        let none: Option<Certificate> = None;
        let low = Some(make_cert(&auth, 1, true, &[0, 1, 2]));
        let high = Some(make_cert(&auth, 7, false, &[0, 1, 2]));
        assert_eq!(Certificate::rank(&none), 0);
        assert!(Certificate::rank(&low) < Certificate::rank(&high));
    }

    #[test]
    fn commit_quorum_verification() {
        let auth = signed_auth(5);
        let tag = MineTag::new(MsgKind::Commit, 3, true);
        let commits: Vec<CommitRef> = (0..3)
            .map(|i| CommitRef { from: NodeId(i), ev: auth.attest(NodeId(i), &tag).unwrap() })
            .collect();
        assert!(verify_commit_quorum(&commits, 3, true, &auth, 3));
        assert!(!verify_commit_quorum(&commits, 3, true, &auth, 4));
        assert!(!verify_commit_quorum(&commits, 3, false, &auth, 3)); // wrong bit
        assert!(!verify_commit_quorum(&commits, 4, true, &auth, 3)); // wrong iter
                                                                     // Two distinct commits padded with a duplicate must not reach quorum.
        let dup = vec![commits[0].clone(), commits[1].clone(), commits[0].clone()];
        assert!(!verify_commit_quorum(&dup, 3, true, &auth, 3));
    }

    #[test]
    fn aggregate_commit_quorum_verification() {
        let auth = signed_auth(5);
        let tag = MineTag::new(MsgKind::Commit, 3, true);
        let claims: Vec<(NodeId, Evidence)> =
            (0..3).map(|i| (NodeId(i), auth.attest(NodeId(i), &tag).unwrap())).collect();
        let refs: Vec<(NodeId, &Evidence)> = claims.iter().map(|(n, e)| (*n, e)).collect();
        let agg = auth.aggregate(&tag, &refs).expect("signed regime aggregates");
        let quorum = CommitQuorum::Aggregate(AggregateQuorum {
            n: 5,
            signers: (0..3).map(NodeId).collect(),
            agg,
        });
        assert!(quorum.verify(3, true, &auth, 3));
        assert!(!quorum.verify(3, true, &auth, 4)); // not enough signers
        assert!(!quorum.verify(3, false, &auth, 3)); // wrong bit
        assert!(!quorum.verify(4, true, &auth, 3)); // wrong iter
    }

    #[test]
    fn size_grows_with_votes() {
        let auth = signed_auth(5);
        let small = make_cert(&auth, 1, true, &[0, 1]);
        let large = make_cert(&auth, 1, true, &[0, 1, 2, 3]);
        assert!(small.size_bits() < large.size_bits());
        // Aggregate certificates cost the same regardless of quorum size.
        let agg_small = make_agg_cert(&auth, 5, 1, true, &[0, 1]);
        let agg_large = make_agg_cert(&auth, 5, 1, true, &[0, 1, 2, 3]);
        assert_eq!(agg_small.size_bits(), agg_large.size_bits());
    }
}
