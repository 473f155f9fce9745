//! Property-style tests across the crypto substrate, driven by a
//! fixed-seed deterministic generator (the registry is unreachable in
//! this environment, so `proptest` is unavailable).

use lrs_crypto::bignum::U256;
use lrs_crypto::cluster::{ClusterKey, MAC_LEN};
use lrs_crypto::ec::{fadd, finv, fmul, fsub, generator, mul_generator, Jacobian};
use lrs_crypto::hash::{hash_image, Digest};
use lrs_crypto::hmac::hmac_sha256_parts;
use lrs_crypto::merkle::MerkleTree;
use lrs_crypto::schnorr::Keypair;
use lrs_crypto::sha256::{sha256_concat, Sha256, ShaKernel};
use lrs_rng::DetRng;

fn u256_small(rng: &mut DetRng) -> U256 {
    U256([rng.gen(), rng.gen(), 0, 0])
}

fn u256_any(rng: &mut DetRng) -> U256 {
    U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()])
}

#[test]
fn add_matches_u128() {
    let mut rng = DetRng::seed_from_u64(0xadd0);
    for _ in 0..256 {
        let (a, b): (u64, u64) = (rng.gen(), rng.gen());
        let (sum, carry) = U256::from(a).overflowing_add(U256::from(b));
        assert!(!carry);
        assert_eq!(
            sum.0[0] as u128 + ((sum.0[1] as u128) << 64),
            a as u128 + b as u128
        );
    }
}

#[test]
fn mul_matches_u128() {
    let mut rng = DetRng::seed_from_u64(0x4d55);
    for _ in 0..256 {
        let (a, b): (u64, u64) = (rng.gen(), rng.gen());
        let prod = U256::from(a).full_mul(U256::from(b));
        let want = a as u128 * b as u128;
        assert_eq!(prod.0[0], want as u64);
        assert_eq!(prod.0[1], (want >> 64) as u64);
        assert_eq!(prod.0[2], 0);
    }
}

#[test]
fn sub_is_inverse_of_add() {
    let mut rng = DetRng::seed_from_u64(0x5b5b);
    for _ in 0..256 {
        let (a, b) = (u256_any(&mut rng), u256_any(&mut rng));
        let (sum, _carry) = a.overflowing_add(b);
        // Wrapping arithmetic: (a + b) - b == a mod 2^256.
        assert_eq!(sum.wrapping_sub(b), a);
    }
}

#[test]
fn modular_mul_is_homomorphic() {
    // (a*b) mod m == ((a mod m)*(b mod m)) mod m
    let m = U256::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
    let mut rng = DetRng::seed_from_u64(0x4d4d);
    for _ in 0..128 {
        let (a, b) = (u256_small(&mut rng), u256_small(&mut rng));
        let lhs = a.mul_mod(b, &m);
        let ar = a.full_mul(U256::ONE).reduce(&m);
        let br = b.full_mul(U256::ONE).reduce(&m);
        let rhs = ar.mul_mod(br, &m);
        assert_eq!(lhs, rhs);
    }
}

#[test]
fn field_axioms_hold() {
    let mut rng = DetRng::seed_from_u64(0xf1e1d);
    for _ in 0..128 {
        let (a, b) = (u256_small(&mut rng), u256_small(&mut rng));
        // Work with reduced elements of the secp256k1 field.
        let x = fmul(a, U256::ONE);
        let y = fmul(b, U256::ONE);
        assert_eq!(fadd(x, y), fadd(y, x));
        assert_eq!(fmul(x, y), fmul(y, x));
        assert_eq!(fsub(fadd(x, y), y), x);
        if !x.is_zero() {
            assert_eq!(fmul(x, finv(x)), U256::ONE);
        }
    }
}

#[test]
fn scalar_mult_respects_addition() {
    let mut rng = DetRng::seed_from_u64(0x5ca1a5);
    for _ in 0..16 {
        // (a + b)G == aG + bG for small scalars.
        let a = rng.gen_range(1u64..1_000_000);
        let b = rng.gen_range(1u64..1_000_000);
        let left = mul_generator(&U256::from(a + b));
        let right = Jacobian::from_affine(mul_generator(&U256::from(a)))
            .add(&Jacobian::from_affine(mul_generator(&U256::from(b))))
            .to_affine();
        assert_eq!(left, right);
        assert!(left.is_on_curve());
    }
}

#[test]
fn schnorr_roundtrip_random_keys() {
    let mut rng = DetRng::seed_from_u64(0x5c40);
    for _ in 0..8 {
        let mut seed = [0u8; 16];
        let mut msg = [0u8; 24];
        rng.fill_bytes(&mut seed);
        rng.fill_bytes(&mut msg);
        let kp = Keypair::from_seed(&seed);
        let sig = kp.sign(&msg);
        assert!(kp.public().verify(&msg, &sig));
        let mut other = msg;
        other[0] ^= 1;
        assert!(!kp.public().verify(&other, &sig));
    }
}

#[test]
fn merkle_accepts_honest_rejects_flipped() {
    let mut rng = DetRng::seed_from_u64(0x4d65_726b);
    for _ in 0..32 {
        let depth = rng.gen_range(0u32..5);
        let n = 1usize << depth;
        let leaves: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 9]).collect();
        let tree = MerkleTree::build(leaves.iter().map(|l| l.as_slice()));
        let idx = rng.gen_range(0usize..n);
        let proof = tree.proof(idx);
        assert!(proof.verify(&leaves[idx], &tree.root()));
        let mut forged = leaves[idx].clone();
        let pos = rng.gen_range(0usize..forged.len());
        forged[pos] ^= 0x01;
        assert!(!proof.verify(&forged, &tree.root()));
    }
}

#[test]
fn generator_is_fixed_point_of_one() {
    assert_eq!(mul_generator(&U256::ONE), generator());
}

#[test]
fn active_sha_kernel_honors_env_override_or_is_best() {
    // `ShaKernel::active` is process-wide; this test only asserts the
    // contract that holds under any LRS_SHA_KERNEL value the CI matrix
    // sets: the active kernel is supported, it is the one the env var
    // names when the CPU supports that one, and otherwise the best one.
    let active = ShaKernel::active();
    assert!(active.is_supported());
    match std::env::var("LRS_SHA_KERNEL")
        .ok()
        .and_then(|name| ShaKernel::from_name(&name))
    {
        Some(forced) if forced.is_supported() => {
            assert_eq!(active, forced, "env override must win")
        }
        _ => assert_eq!(active, ShaKernel::best_supported()),
    }
    // The retired batch kernels are unknown names, so forcing one
    // falls back to the best supported kernel.
    for retired in ["ilp4", "avx2"] {
        assert_eq!(ShaKernel::from_name(retired), None, "{retired}");
    }
}

/// `parts` through `kernel`'s one-message-at-a-time hasher.
fn single_stream(kernel: ShaKernel, parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::with_kernel(kernel);
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// The kernels to pin, saying so when SHA-NI is not among them.
fn kernels_under_test(test: &str) -> Vec<ShaKernel> {
    if !ShaKernel::ShaNi.is_supported() {
        eprintln!("{test}: this CPU lacks the SHA extensions, the shani kernel is skipped");
    }
    ShaKernel::supported()
}

#[test]
fn single_stream_nist_vectors_on_every_kernel() {
    let million_a = vec![b'a'; 1_000_000];
    let vectors: [(&[u8], &str); 4] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            &million_a,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ),
    ];
    for kernel in kernels_under_test("single_stream_nist_vectors_on_every_kernel") {
        for (msg, want) in vectors {
            assert_eq!(
                single_stream(kernel, &[msg]).to_hex(),
                want,
                "kernel {} len {}",
                kernel.name(),
                msg.len()
            );
        }
    }
}

#[test]
fn single_stream_matches_scalar_at_every_length_and_split() {
    // Every length that pads to one through five blocks, cut into two
    // `update` calls at every position, read from a subslice that sits
    // at every alignment mod 8: buffered tails, whole blocks taken
    // straight from the caller's slice, and the padding block all meet
    // every boundary.
    let mut rng = DetRng::seed_from_u64(0x5348_414e);
    let mut backing = vec![0u8; 300 + 8];
    rng.fill_bytes(&mut backing);
    let kernels = kernels_under_test("single_stream_matches_scalar_at_every_length_and_split");
    for len in 0..=300usize {
        let data = &backing[len % 8..len % 8 + len];
        let want = single_stream(ShaKernel::Sequential, &[data]);
        for &kernel in &kernels {
            for split in 0..=len {
                assert_eq!(
                    single_stream(kernel, &[&data[..split], &data[split..]]),
                    want,
                    "kernel {} len {len} split {split}",
                    kernel.name()
                );
            }
        }
    }
}

#[test]
fn concat_and_hash_image_match_scalar_on_random_parts() {
    // The dispatched entry points every packet check goes through
    // (`sha256_concat`, `hash_image`) against the scalar hasher, on
    // messages cut into random parts (empty ones included).
    let mut rng = DetRng::seed_from_u64(0x7061_7274);
    let kernels = kernels_under_test("concat_and_hash_image_match_scalar_on_random_parts");
    for _ in 0..200 {
        let mut msg = vec![0u8; rng.gen_range(0usize..700)];
        rng.fill_bytes(&mut msg);
        let mut cuts: Vec<usize> = (0..rng.gen_range(0usize..6))
            .map(|_| rng.gen_range(0usize..msg.len() + 1))
            .collect();
        cuts.extend([0, msg.len()]);
        cuts.sort_unstable();
        let parts: Vec<&[u8]> = cuts.windows(2).map(|w| &msg[w[0]..w[1]]).collect();
        let want = single_stream(ShaKernel::Sequential, &[&msg]);
        assert_eq!(sha256_concat(&parts), want);
        assert_eq!(hash_image(&parts), want.truncate());
        for &kernel in &kernels {
            assert_eq!(
                single_stream(kernel, &parts),
                want,
                "kernel {}",
                kernel.name()
            );
        }
    }
}

#[test]
fn cluster_tag_is_the_truncated_reference_hmac() {
    // The keyed-midstate MAC against RFC 2104 computed from scratch,
    // for random keys and messages of 0..=200 bytes (inner hashes of
    // one, two and three blocks beyond the pad) in random part splits.
    let mut rng = DetRng::seed_from_u64(0x6d61_6373);
    for _ in 0..300 {
        let mut raw = [0u8; 32];
        rng.fill_bytes(&mut raw);
        let key = ClusterKey::from_raw(raw);
        let mut msg = vec![0u8; rng.gen_range(0usize..201)];
        rng.fill_bytes(&mut msg);
        let a = rng.gen_range(0usize..msg.len() + 1);
        let b = rng.gen_range(a..msg.len() + 1);
        let parts: [&[u8]; 3] = [&msg[..a], &msg[a..b], &msg[b..]];
        let want = hmac_sha256_parts(&raw, &[&msg]);
        let tag = key.tag(&parts);
        assert_eq!(tag.0, want.0[..MAC_LEN], "len {} cuts {a},{b}", msg.len());
        assert!(key.check(&parts, &tag));
    }
}
