//! Property-based tests for the cryptographic substrate.

use ba_crypto::bigint::{ModCtx, U256, U512};
use ba_crypto::commit::MerkleTree;
use ba_crypto::group::Group;
use ba_crypto::schnorr::SigningKey;
use ba_crypto::vrf::VrfSecretKey;
use proptest::prelude::*;

fn arb_u256() -> impl Strategy<Value = U256> {
    any::<[u64; 4]>().prop_map(U256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_sub_roundtrip(a in arb_u256(), b in arb_u256()) {
        let (sum, _) = a.overflowing_add(&b);
        let (back, _) = sum.overflowing_sub(&b);
        prop_assert_eq!(back, a);
    }

    #[test]
    fn add_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
    }

    #[test]
    fn mul_wide_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.mul_wide(&b), b.mul_wide(&a));
    }

    #[test]
    fn mul_wide_matches_u128_for_small(a in any::<u64>(), b in any::<u64>()) {
        let product = U256::from_u64(a).mul_wide(&U256::from_u64(b));
        prop_assert_eq!(product.low_u256(), U256::from_u128(a as u128 * b as u128));
    }

    #[test]
    fn be_bytes_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn shl_then_shr_preserves_sub_255_bits(a in arb_u256()) {
        let masked = {
            let mut v = a;
            v.0[3] &= !(1 << 63);
            v
        };
        prop_assert_eq!(masked.shl1().shr1(), masked);
    }

    #[test]
    fn montgomery_matches_u128_reference(
        a in any::<u64>(),
        b in any::<u64>(),
        m in (3u64..u64::MAX / 2).prop_map(|v| v | 1), // odd modulus >= 3
    ) {
        let ctx = ModCtx::new(U256::from_u64(m));
        let expect = ((a as u128 % m as u128) * (b as u128 % m as u128)) % m as u128;
        let got = ctx.mul(
            &U256::from_u64(a).reduce_mod(&U256::from_u64(m)),
            &U256::from_u64(b).reduce_mod(&U256::from_u64(m)),
        );
        prop_assert_eq!(got, U256::from_u128(expect));
    }

    #[test]
    fn reduce_wide_agrees_with_binary_rem(a in arb_u256(), b in arb_u256()) {
        let g = Group::standard();
        let ctx = ModCtx::new(*g.prime());
        let wide = a.mul_wide(&b);
        prop_assert_eq!(ctx.reduce_wide(&wide), wide.rem(g.prime()));
    }

    #[test]
    fn rem_is_below_modulus(a in arb_u256(), b in arb_u256(), m in arb_u256()) {
        prop_assume!(!m.is_zero());
        let wide = a.mul_wide(&b);
        let r = wide.rem(&m);
        prop_assert!(r < m);
    }

    #[test]
    fn rem_of_exact_multiple_is_zero(a in arb_u256()) {
        // a * m mod m == 0 for the group prime m.
        let g = Group::standard();
        let wide = a.mul_wide(g.prime());
        prop_assert_eq!(wide.rem(g.prime()), U256::ZERO);
    }

    #[test]
    fn u512_from_u256_preserves_value(a in arb_u256()) {
        let w = U512::from_u256(&a);
        prop_assert_eq!(w.low_u256(), a);
        prop_assert_eq!(w.bits(), a.bits());
    }

    #[test]
    fn sqr_wide_matches_mul_wide(a in arb_u256()) {
        prop_assert_eq!(a.sqr_wide(), a.mul_wide(&a));
    }

    #[test]
    fn special_modulus_mul_matches_binary_rem(a in arb_u256(), b in arb_u256()) {
        // The pseudo-Mersenne fold path (p = 2^256 - 36113) must agree with
        // the bit-serial long-division reference on full products, and sqr
        // with mul.
        let g = Group::standard();
        let ctx = ModCtx::new(*g.prime());
        let wide = a.mul_wide(&b);
        prop_assert_eq!(ctx.reduce_wide(&wide), wide.rem(g.prime()));
        prop_assert_eq!(ctx.sqr(&a), ctx.mul(&a, &a));
        let ar = a.reduce_mod(g.prime());
        let br = b.reduce_mod(g.prime());
        prop_assert_eq!(ctx.mul(&ar, &br), ar.mul_wide(&br).rem(g.prime()));
    }

    #[test]
    fn cios_matches_generic_montgomery_reference(a in arb_u256(), b in arb_u256()) {
        let g = Group::standard();
        let ctx = ModCtx::new(*g.prime());
        prop_assert_eq!(ctx.mont_mul(&a, &b), ctx.mont_mul_ref(&a, &b));
        prop_assert_eq!(ctx.mont_sqr(&a), ctx.mont_mul_ref(&a, &a));
    }

    #[test]
    fn cios_matches_reference_for_small_odd_moduli(
        a in arb_u256(),
        b in arb_u256(),
        m in (3u64..u64::MAX / 2).prop_map(|v| v | 1),
    ) {
        let ctx = ModCtx::new(U256::from_u64(m));
        let ar = a.reduce_mod(&U256::from_u64(m));
        let br = b.reduce_mod(&U256::from_u64(m));
        prop_assert_eq!(ctx.mont_mul(&ar, &br), ctx.mont_mul_ref(&ar, &br));
        prop_assert_eq!(ctx.mont_sqr(&ar), ctx.mont_mul_ref(&ar, &ar));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn group_exponent_laws(a_seed in any::<[u8; 16]>(), b_seed in any::<[u8; 16]>()) {
        let g = Group::standard();
        let a = g.scalar_from_bytes(&a_seed);
        let b = g.scalar_from_bytes(&b_seed);
        let lhs = g.pow_g(&g.scalar_add(&a, &b));
        let rhs = g.mul(&g.pow_g(&a), &g.pow_g(&b));
        prop_assert_eq!(lhs, rhs);
        prop_assert_eq!(g.pow(&g.pow_g(&a), &b), g.pow(&g.pow_g(&b), &a));
    }

    #[test]
    fn hash_to_group_always_valid(domain in any::<Vec<u8>>(), msg in any::<Vec<u8>>()) {
        let g = Group::standard();
        let e = g.hash_to_group(&domain, &msg);
        prop_assert!(g.is_valid_element(&e));
    }

    #[test]
    fn schnorr_roundtrip_arbitrary_messages(seed in any::<[u8; 16]>(), msg in any::<Vec<u8>>()) {
        let key = SigningKey::from_seed(&seed);
        let sig = key.sign(&msg);
        prop_assert!(key.verifying_key().verify(&msg, &sig));
    }

    #[test]
    fn schnorr_rejects_appended_byte(seed in any::<[u8; 16]>(), msg in any::<Vec<u8>>(), extra in any::<u8>()) {
        let key = SigningKey::from_seed(&seed);
        let sig = key.sign(&msg);
        let mut tampered = msg.clone();
        tampered.push(extra);
        prop_assert!(!key.verifying_key().verify(&tampered, &sig));
    }

    #[test]
    fn vrf_unique_and_verifiable(seed in any::<[u8; 16]>(), msg in any::<Vec<u8>>()) {
        let key = VrfSecretKey::from_seed(&seed);
        let out1 = key.evaluate(&msg);
        let out2 = key.evaluate(&msg);
        prop_assert_eq!(out1.rho(), out2.rho());
        prop_assert!(key.public_key().verify(&msg, &out1));
    }

    #[test]
    fn merkle_inclusion_for_every_leaf(leaves in prop::collection::vec(any::<Vec<u8>>(), 1..24)) {
        let tree = MerkleTree::build(&leaves);
        let root = tree.root();
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i);
            prop_assert!(MerkleTree::verify(&root, leaf, &proof), "leaf {}", i);
        }
    }

    #[test]
    fn merkle_rejects_foreign_leaves(
        leaves in prop::collection::vec(any::<Vec<u8>>(), 1..12),
        foreign in any::<Vec<u8>>(),
    ) {
        prop_assume!(!leaves.contains(&foreign));
        let tree = MerkleTree::build(&leaves);
        let proof = tree.prove(0);
        prop_assert!(!MerkleTree::verify(&tree.root(), &foreign, &proof));
    }
}
