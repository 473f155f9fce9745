//! The one scalar-multiplication ladder (`ec::double_mul`) pinned
//! against the double-and-add it replaced, and `PublicKey::verify`
//! pinned against the two-ladder formula the parent commit ran.
//!
//! The `#[ignore]`d long forms run the same checks over 20 000 random
//! cases; CI runs them in release
//! (`cargo test -p lrs-crypto --release -- --ignored`).

use lrs_crypto::bignum::U256;
use lrs_crypto::ec::{
    double_mul, fsub, generator, group_order, mul_generator, wnaf, Affine, Jacobian,
};
use lrs_crypto::schnorr::{Keypair, PublicKey, Signature, SIGNATURE_LEN};
use lrs_crypto::sha256::sha256_concat;
use lrs_rng::DetRng;

const MAX: U256 = U256([u64::MAX; 4]);

fn random_u256(rng: &mut DetRng) -> U256 {
    U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()])
}

/// Scalars that stress the recoding: short, sparse, all-ones runs, and
/// the values around the group order and the top of the range.
fn edge_scalars() -> Vec<U256> {
    let n = group_order();
    vec![
        U256::ZERO,
        U256::ONE,
        U256::from(2),
        U256::from(127),
        U256::from(128),
        U256::from(255),
        U256([0, 0, 0, 1 << 63]),
        U256([u64::MAX, 0, 0, 0]),
        U256([0, 0, 0, u64::MAX]),
        n.wrapping_sub(U256::ONE),
        n,
        n.overflowing_add(U256::ONE).0,
        MAX,
    ]
}

// ---------------------------------------------------------------- wNAF

fn check_wnaf(k: &U256, w: u32) {
    let digits = wnaf(k, w);
    let mut last_nonzero: Option<usize> = None;
    for (i, &d) in digits.iter().enumerate() {
        if d == 0 {
            continue;
        }
        assert!(d & 1 == 1, "even digit {d} at {i} (k={k}, w={w})");
        assert!(
            (d as i32).abs() < 1 << (w - 1),
            "digit {d} too wide at {i} (k={k}, w={w})"
        );
        if let Some(prev) = last_nonzero {
            assert!(
                i - prev >= w as usize,
                "digits at {prev} and {i} closer than w={w} (k={k})"
            );
        }
        last_nonzero = Some(i);
    }
    // Σ dᵢ·2ⁱ exactly: signed 64-bit columns first (at most 64 digits
    // below 2^7 shifted below 2^64 each, so no i128 overflows), then one
    // carry pass that must reproduce k's limbs and leave nothing over.
    let mut columns = [0i128; 5];
    for (i, &d) in digits.iter().enumerate() {
        columns[i / 64] += (d as i128) << (i % 64);
    }
    let mut carry = 0i128;
    for (j, column) in columns.iter().enumerate() {
        let v = column + carry;
        let want = if j < 4 { k.0[j] } else { 0 };
        assert_eq!(v as u64, want, "limb {j} of k={k} at w={w}");
        carry = v >> 64;
    }
    assert_eq!(carry, 0, "recoding overshoots k={k} at w={w}");
}

#[test]
fn wnaf_reconstructs_the_scalar_with_odd_bounded_digits() {
    let mut rng = DetRng::seed_from_u64(0x774e_4146);
    for w in [5, 8] {
        for k in edge_scalars() {
            check_wnaf(&k, w);
        }
        for _ in 0..2000 {
            check_wnaf(&random_u256(&mut rng), w);
        }
    }
    // Every other width the recoder accepts, more briefly.
    for w in 2..=8 {
        for k in edge_scalars() {
            check_wnaf(&k, w);
        }
    }
}

// ---------------------------------------------------------- double_mul

/// The reference scalar multiplication `k·P`: double-and-add, most
/// significant bit first, over the public group operations.
fn mul_scalar(p: Affine, k: &U256) -> Jacobian {
    let p = Jacobian::from_affine(p);
    let mut acc = Jacobian::infinity();
    for i in (0..k.bits()).rev() {
        acc = acc.double();
        if k.bit(i) {
            acc = acc.add(&p);
        }
    }
    acc
}

/// `aG + bP` by two independent double-and-add ladders and one addition.
fn reference_double_mul(a: &U256, b: &U256, p: Affine) -> Affine {
    mul_scalar(generator(), a)
        .add(&mul_scalar(p, b))
        .to_affine()
}

fn check_double_mul(a: &U256, b: &U256, p: Affine) -> Affine {
    let want = reference_double_mul(a, b, p);
    let got = double_mul(a, b, p);
    assert_eq!(got.to_affine(), want, "a={a} b={b} P={p:?}");
    assert!(got.eq_affine(&want), "eq_affine: a={a} b={b} P={p:?}");
    assert!(want.is_on_curve());
    want
}

fn negate(p: Affine) -> Affine {
    match p {
        Affine::Infinity => p,
        Affine::Point { x, y } => Affine::Point {
            x,
            y: fsub(U256::ZERO, y),
        },
    }
}

fn check_random_triples(count: usize, seed: u64) {
    let mut rng = DetRng::seed_from_u64(seed);
    // Each expected sum is a pseudo-random curve point computed without
    // the ladder under test; it becomes the next triple's P.
    let mut p = generator();
    for _ in 0..count {
        let (a, b) = (random_u256(&mut rng), random_u256(&mut rng));
        let sum = check_double_mul(&a, &b, p);
        if sum != Affine::Infinity {
            p = sum;
        }
    }
}

#[test]
fn double_mul_matches_reference_on_random_triples() {
    check_random_triples(500, 0xd0b1e);
}

#[test]
#[ignore = "long form of the differential suite; CI runs it in release"]
fn double_mul_matches_reference_on_20k_random_triples() {
    check_random_triples(20_000, 0x0020_0d0b_1e00);
}

/// `λ`, the cube root of unity mod `n` by which the ladder splits each
/// scalar (`k = k₁ + k₂·λ`).
const LAMBDA: U256 = U256([
    0xdf02_967c_1b23_bd72,
    0x122e_22ea_2081_6678,
    0xa526_1c02_8812_645a,
    0x5363_ad4c_c05c_30e0,
]);

/// Scalars `x + y·λ (mod n)` whose split halves `(x, y)` are negative:
/// one, the other, or both, small and near 2¹²⁷.
fn negative_half_scalars() -> Vec<U256> {
    let n = group_order();
    let signed = |v: i64| {
        let m = U256::from(v.unsigned_abs());
        if v < 0 {
            U256::ZERO.sub_mod(m, &n)
        } else {
            m
        }
    };
    let combine = |x: U256, y: U256| x.add_mod(y.mul_mod(LAMBDA, &n), &n);
    let big = U256([0, 1 << 63, 0, 0]);
    let minus_big = U256::ZERO.sub_mod(big, &n);
    let mut scalars: Vec<U256> = [(-1, -1), (3, -5), (-7, 2), (-1, 0), (0, -1)]
        .iter()
        .map(|&(x, y)| combine(signed(x), signed(y)))
        .collect();
    scalars.extend([
        combine(minus_big, minus_big),
        combine(big, minus_big),
        U256([0, 0, 1, 0]), // 2¹²⁸ splits into two negative halves
    ]);
    scalars
}

#[test]
fn double_mul_edge_scalars_and_points() {
    let g = generator();
    let n = group_order();
    let some_p = reference_double_mul(&U256::from(0xabcdef), &U256::ZERO, Affine::Infinity);
    for p in [g, negate(g), some_p, Affine::Infinity] {
        for a in edge_scalars() {
            for b in edge_scalars() {
                check_double_mul(&a, &b, p);
            }
        }
    }
    let negative_halves = negative_half_scalars();
    for p in [g, negate(g), some_p] {
        for a in negative_halves.iter().chain(&[U256::ZERO, U256::ONE]) {
            for b in negative_halves.iter().chain(&[U256::ZERO, U256::ONE]) {
                check_double_mul(a, b, p);
            }
        }
    }
    // a = ±b with P = ±G: sums that double or cancel inside the general
    // addition.
    let mut rng = DetRng::seed_from_u64(0xed6e);
    for _ in 0..16 {
        let a = random_u256(&mut rng);
        let a_mod_n = if a >= n { a.wrapping_sub(n) } else { a };
        let minus_a = U256::ZERO.sub_mod(a_mod_n, &n);
        for p in [g, negate(g)] {
            for b in [a, minus_a] {
                check_double_mul(&a, &b, p);
            }
        }
    }
}

#[test]
fn double_mul_hits_the_mixed_additions_doubling_and_cancellation_branches() {
    // With 2H = G, b = 2 and a = 1 the accumulator is H after b's digit,
    // G after the next doubling, and then a's digit adds the table's G
    // to an accumulator that already equals it (mixed-add doubling
    // branch). With P = −H it equals −G (cancellation branch). Small
    // odd multiples d do the same for the table entry dG.
    let half = U256::from(2).inv_mod_prime(&group_order());
    let h = reference_double_mul(&half, &U256::ZERO, Affine::Infinity);
    assert_eq!(
        reference_double_mul(&U256::ZERO, &U256::from(2), h),
        generator()
    );
    for d in [1u64, 3, 15, 127] {
        // 2·(d·H) = d·G
        let dh = reference_double_mul(&U256::ZERO, &U256::from(d), h);
        let doubled = check_double_mul(&U256::from(d), &U256::from(2), dh);
        assert_eq!(
            doubled,
            reference_double_mul(&U256::from(2 * d), &U256::ZERO, Affine::Infinity)
        );
        let cancelled = check_double_mul(&U256::from(d), &U256::from(2), negate(dh));
        assert_eq!(cancelled, Affine::Infinity);
    }
}

#[test]
fn mul_generator_matches_reference() {
    let mut rng = DetRng::seed_from_u64(0x6d67);
    for k in edge_scalars()
        .into_iter()
        .chain((0..64).map(|_| random_u256(&mut rng)))
    {
        assert_eq!(
            mul_generator(&k),
            mul_scalar(generator(), &k).to_affine(),
            "k={k}"
        );
    }
}

// -------------------------------------------------------------- verify

/// `PublicKey::verify` exactly as the parent commit computed it: two
/// independent double-and-add ladders, two affine conversions, the
/// challenge reduced by long division.
fn parent_verify(pk: &PublicKey, message: &[u8], sig: &Signature) -> bool {
    let n = group_order();
    let (pk_bytes, sig_bytes) = (pk.to_bytes(), sig.to_bytes());
    let r_bytes: [u8; 64] = sig_bytes[..64].try_into().unwrap();
    let s = U256::from_be_bytes(sig_bytes[64..].try_into().unwrap());
    let r_point = Affine::from_bytes(&r_bytes).expect("a Signature holds a curve point");
    let p = Affine::from_bytes(&pk_bytes).expect("a PublicKey holds a curve point");
    if s.is_zero() || s >= n {
        return false;
    }
    if matches!(r_point, Affine::Infinity) {
        return false;
    }
    let d = sha256_concat(&[b"lrs-schnorr", &r_bytes, &pk_bytes, message]);
    let e = U256::from_be_bytes(&d.0).full_mul(U256::ONE).reduce(&n);
    let lhs = mul_scalar(generator(), &s).to_affine();
    let rhs = Jacobian::from_affine(r_point)
        .add(&mul_scalar(p, &e))
        .to_affine();
    lhs == rhs
}

fn with_s(sig: &Signature, s: U256) -> Signature {
    let mut bytes = sig.to_bytes();
    bytes[64..].copy_from_slice(&s.to_be_bytes());
    Signature::from_bytes(&bytes).expect("s is unconstrained at parse")
}

fn with_r(sig: &Signature, r: &[u8; 64]) -> Signature {
    let mut bytes = sig.to_bytes();
    bytes[..64].copy_from_slice(r);
    Signature::from_bytes(&bytes).expect("r is a curve point")
}

fn check_verify_differential(signatures: usize, seed: u64) {
    let mut rng = DetRng::seed_from_u64(seed);
    let n = group_order();
    let mut kp = Keypair::from_seed(b"differential");
    // "Another valid curve point" for the R swap: the previous R.
    let mut other_r = generator().to_bytes();
    for i in 1..=signatures {
        if i % 64 == 0 {
            kp = Keypair::from_seed(&rng.gen::<u64>().to_be_bytes());
        }
        let pk = kp.public();
        let check = |m: &[u8], sg: Signature, honest: bool| {
            let got = pk.verify(m, &sg);
            assert_eq!(
                got,
                parent_verify(&pk, m, &sg),
                "verify disagrees with the parent formula: sig {i}, msg {m:02x?}, sig {:02x?}",
                sg.to_bytes()
            );
            assert_eq!(got, honest, "sig {i}: honest={honest}");
        };
        let mut msg = vec![0u8; rng.gen_range(1usize..48)];
        rng.fill_bytes(&mut msg);
        let sig = kp.sign(&msg);
        let s = U256::from_be_bytes(sig.to_bytes()[64..].try_into().unwrap());
        check(&msg, sig, true);

        let mut flipped_msg = msg.clone();
        let bit = rng.gen_range(0usize..msg.len() * 8);
        flipped_msg[bit / 8] ^= 1 << (bit % 8);
        check(&flipped_msg, sig, false);

        let mut flipped_s = s;
        let bit = rng.gen_range(0usize..256);
        flipped_s.0[bit / 64] ^= 1 << (bit % 64);
        for s in [flipped_s, U256::ZERO, n, n.overflowing_add(U256::ONE).0] {
            check(&msg, with_s(&sig, s), false);
        }
        for r in [other_r, [0u8; 64]] {
            check(&msg, with_r(&sig, &r), false);
        }
        other_r.copy_from_slice(&sig.to_bytes()[..64]);
    }
}

#[test]
fn verify_agrees_with_the_parent_formula_on_1000_signatures() {
    check_verify_differential(1000, 0x5c40_d1ff);
}

#[test]
#[ignore = "long form of the differential suite; CI runs it in release"]
fn verify_agrees_with_the_parent_formula_on_20k_signatures() {
    check_verify_differential(20_000, 0x0020_5c40_d1ff);
}

// ---------------------------------------------------------- known answer

fn unhex<const N: usize>(s: &str) -> [u8; N] {
    assert_eq!(s.len(), 2 * N);
    let mut out = [0u8; N];
    for (i, b) in out.iter_mut().enumerate() {
        *b = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
    }
    out
}

#[test]
fn signing_is_bit_identical_to_the_parent_commit() {
    // Public-key and signature bytes printed by the commit before the
    // ladder changed. Signing is deterministic, so they must not move.
    let cases: [(&[u8], &[u8], &str, &str); 2] = [
        (
            b"base station",
            b"merkle root of image v2",
            "c4170ba97bf9ec4b313d1defe0ab43770ab0b02bcfe0384c8fbd2bcd1a1d0040\
             0e627dbce2e54edd6e96c6ff5dbb952a0d6f0a25f5070485157699bea35f8617",
            "b0213e00daa2a529a42c0fc9eef36bd95f189b526205ff31f995c81194c3bcaf\
             f3f5e78366924937694b516358b7a2497b8ee73dccd281074945f7b72d07aadb\
             e8ca845dd9f7ce4789a907c1b6ebe423e79731171c9e72fabf91a6c97096dfba",
        ),
        (
            b"lrs-kat-2",
            b"",
            "ab0f18e63f509c6edf50de1d45474d4a71fc1c7bcd23f43e0210d2082edf8875\
             e71d8a4460b0882ef010f04d1b84e0d08e024b2a8d576292b324a4040973b55c",
            "154568aa7b9fa9c88013d929bf007dce6c78f6f3dd51b06ba81533443eadcba8\
             0806b5b965ea5288376c7d6fe3dd98ff888cd2825e9bd2ca3dd5d8e1121e89fc\
             c116036c7c52ba691bc9f6bd0aaeaf5edf7cf507b9e5fb5f9a947bab4cb06ca6",
        ),
    ];
    for (seed, msg, pk_hex, sig_hex) in cases {
        let kp = Keypair::from_seed(seed);
        assert_eq!(kp.public().to_bytes(), unhex::<64>(pk_hex));
        let sig_bytes = unhex::<SIGNATURE_LEN>(sig_hex);
        assert_eq!(kp.sign(msg).to_bytes(), sig_bytes);
        let sig = Signature::from_bytes(&sig_bytes).expect("parent's signature parses");
        let pk = PublicKey::from_bytes(&unhex::<64>(pk_hex)).expect("parent's key parses");
        assert!(pk.verify(msg, &sig));
    }
}
