//! Equivalence properties for the optimized hot-path kernels.
//!
//! The table-driven GF(256) slice kernels and the decode-matrix cache
//! are pure speed changes: this suite pins them to the scalar reference
//! implementation and to cache-off decoding, byte for byte, so any
//! future kernel change that alters results fails loudly.

use lrs_erasure::gf256::{
    slice_mul_add_assign, slice_mul_add_assign_scalar, slice_scale, slice_scale_scalar, Gf,
};
use lrs_erasure::kernel::{self, Kernel};
use lrs_erasure::{ErasureCode, ReedSolomon};
use lrs_rng::DetRng;

/// The paper's (k, n) operating points: defaults k = 32 with n = 48/64,
/// the hash-page code k0 = 8, n0 = 16, and the worked example (3, 6).
const PAPER_POINTS: [(usize, usize); 4] = [(32, 48), (32, 64), (8, 16), (3, 6)];

/// Lengths that straddle every kernel's internal boundaries: the 8-byte
/// unrolled chunk, the 16-byte SSSE3 vector, the 32-byte AVX2 vector, and a
/// large body with a ragged tail.
const ADVERSARIAL_LENS: [usize; 13] = [0, 1, 7, 8, 15, 16, 17, 31, 32, 63, 64, 65, 4096 + 29];

#[test]
fn every_supported_kernel_matches_scalar_on_adversarial_lengths() {
    let mut rng = DetRng::seed_from_u64(0x6b65_726e);
    let kernels = Kernel::supported();
    assert!(kernels.contains(&Kernel::Scalar));
    for &len in &ADVERSARIAL_LENS {
        for trial in 0..8 {
            let coeff = match trial {
                // Force the degenerate coefficients alongside random ones.
                0 => Gf(0),
                1 => Gf(1),
                2 => Gf(255),
                _ => Gf(rng.gen_range(0usize..256) as u8),
            };
            let mut src = vec![0u8; len];
            rng.fill_bytes(&mut src);
            let mut base = vec![0u8; len];
            rng.fill_bytes(&mut base);

            let mut mul_ref = base.clone();
            kernel::mul_add_assign(Kernel::Scalar, &mut mul_ref, coeff, &src);
            let mut scale_ref = base.clone();
            kernel::scale(Kernel::Scalar, &mut scale_ref, coeff);
            let mut add_ref = base.clone();
            kernel::add_assign(Kernel::Scalar, &mut add_ref, &src);

            for &k in &kernels {
                let mut out = base.clone();
                kernel::mul_add_assign(k, &mut out, coeff, &src);
                assert_eq!(
                    out,
                    mul_ref,
                    "mul_add {} coeff={} len={len}",
                    k.name(),
                    coeff.0
                );
                let mut out = base.clone();
                kernel::scale(k, &mut out, coeff);
                assert_eq!(
                    out,
                    scale_ref,
                    "scale {} coeff={} len={len}",
                    k.name(),
                    coeff.0
                );
                let mut out = base.clone();
                kernel::add_assign(k, &mut out, &src);
                assert_eq!(out, add_ref, "add {} len={len}", k.name());
            }
        }
    }
}

#[test]
fn every_supported_kernel_matches_scalar_on_unaligned_subslices() {
    // SIMD kernels use unaligned loads; prove it by operating on
    // sub-slices at every offset 0..32 of an over-aligned buffer, with
    // lengths that leave ragged tails.
    let mut rng = DetRng::seed_from_u64(0x756e_616c);
    let kernels = Kernel::supported();
    let mut src_buf = vec![0u8; 512];
    rng.fill_bytes(&mut src_buf);
    let mut dst_buf = vec![0u8; 512];
    rng.fill_bytes(&mut dst_buf);
    for offset in 0..32usize {
        for &len in &[33usize, 48, 100, 257] {
            let coeff = Gf(rng.gen_range(2usize..256) as u8);
            let src = &src_buf[offset..offset + len];
            let base = &dst_buf[offset..offset + len];

            let mut mul_ref = base.to_vec();
            slice_mul_add_assign_scalar(&mut mul_ref, coeff, src);

            for &k in &kernels {
                // The destination keeps the original buffer's alignment
                // by mutating in place at the same offset.
                let mut work = dst_buf.clone();
                kernel::mul_add_assign(k, &mut work[offset..offset + len], coeff, src);
                assert_eq!(
                    &work[offset..offset + len],
                    mul_ref.as_slice(),
                    "mul_add {} offset={offset} len={len}",
                    k.name()
                );
                assert_eq!(&work[..offset], &dst_buf[..offset], "head clobbered");
                assert_eq!(
                    &work[offset + len..],
                    &dst_buf[offset + len..],
                    "tail clobbered"
                );

                let mut work = dst_buf.clone();
                kernel::scale(k, &mut work[offset..offset + len], coeff);
                let mut scale_ref = base.to_vec();
                slice_scale_scalar(&mut scale_ref, coeff);
                assert_eq!(
                    &work[offset..offset + len],
                    scale_ref.as_slice(),
                    "scale {} offset={offset} len={len}",
                    k.name()
                );
            }
        }
    }
}

#[test]
fn every_supported_kernel_exhaustive_over_coefficients() {
    // All 256 coefficients × all supported kernels on one
    // boundary-straddling slice (65 bytes: two AVX2 vectors + 1).
    let src: Vec<u8> = (0..65u16).map(|i| (i * 53 % 256) as u8).collect();
    let base: Vec<u8> = (0..65u16).map(|i| (i * 29 % 256) as u8).collect();
    for c in 0..=255u8 {
        let coeff = Gf(c);
        let mut mul_ref = base.clone();
        slice_mul_add_assign_scalar(&mut mul_ref, coeff, &src);
        let mut scale_ref = src.clone();
        slice_scale_scalar(&mut scale_ref, coeff);
        for k in Kernel::supported() {
            let mut out = base.clone();
            kernel::mul_add_assign(k, &mut out, coeff, &src);
            assert_eq!(out, mul_ref, "mul_add {} coeff={c}", k.name());
            let mut out = src.clone();
            kernel::scale(k, &mut out, coeff);
            assert_eq!(out, scale_ref, "scale {} coeff={c}", k.name());
        }
    }
}

#[test]
fn every_supported_kernel_matches_scalar_on_fused_row_products() {
    // The fused `mul_add_accumulate` (one generator row over many
    // sources) has its own SIMD loops and tail handling — pin it, per
    // kernel, against source-by-source scalar `mul_add_assign` across
    // adversarial lengths and source counts (including 0 sources and
    // coefficient 0/1 mixed into random rows).
    let mut rng = DetRng::seed_from_u64(0x6163_636d);
    let kernels = Kernel::supported();
    for &len in &ADVERSARIAL_LENS {
        for &n_src in &[0usize, 1, 2, 3, 32] {
            let srcs_data: Vec<Vec<u8>> = (0..n_src)
                .map(|_| {
                    let mut s = vec![0u8; len];
                    rng.fill_bytes(&mut s);
                    s
                })
                .collect();
            let srcs: Vec<&[u8]> = srcs_data.iter().map(|s| s.as_slice()).collect();
            let coeffs: Vec<Gf> = (0..n_src)
                .map(|i| match i {
                    0 => Gf(0),
                    1 => Gf(1),
                    _ => Gf(rng.gen_range(0usize..256) as u8),
                })
                .collect();
            let mut base = vec![0u8; len];
            rng.fill_bytes(&mut base);

            let mut reference = base.clone();
            for (coeff, src) in coeffs.iter().zip(&srcs) {
                kernel::mul_add_assign(Kernel::Scalar, &mut reference, *coeff, src);
            }
            for &k in &kernels {
                let mut out = base.clone();
                kernel::mul_add_accumulate(k, &mut out, &coeffs, &srcs);
                assert_eq!(
                    out,
                    reference,
                    "accumulate {} len={len} n_src={n_src}",
                    k.name()
                );
            }
        }
    }
}

#[test]
fn active_kernel_honors_env_override_or_is_best() {
    // `Kernel::active` is process-wide; this test only asserts the
    // contract that holds under any LRS_GF_KERNEL value the CI matrix
    // sets: the active kernel is supported, and when the env var names
    // a supported kernel it is the one selected.
    let active = Kernel::active();
    assert!(active.is_supported());
    if let Ok(name) = std::env::var("LRS_GF_KERNEL") {
        if let Some(forced) = Kernel::from_name(&name) {
            if forced.is_supported() {
                assert_eq!(active, forced, "env override must win");
            }
        }
    }
}

#[test]
fn table_mul_add_matches_scalar_on_random_slices() {
    let mut rng = DetRng::seed_from_u64(0x6766_6d61);
    for trial in 0..512 {
        // Lengths straddle the unrolled 8-byte chunking, including 0
        // and non-multiples of 8.
        let len = (trial % 67) + usize::from(trial % 3 == 0) * (rng.gen_range(0usize..64));
        let coeff = Gf(rng.gen_range(0usize..256) as u8);
        let mut src = vec![0u8; len];
        rng.fill_bytes(&mut src);
        let mut dst = vec![0u8; len];
        rng.fill_bytes(&mut dst);

        let mut fast = dst.clone();
        slice_mul_add_assign(&mut fast, coeff, &src);
        let mut reference = dst;
        slice_mul_add_assign_scalar(&mut reference, coeff, &src);
        assert_eq!(fast, reference, "coeff={} len={len}", coeff.0);
    }
}

#[test]
fn table_scale_matches_scalar_on_random_slices() {
    let mut rng = DetRng::seed_from_u64(0x6766_7363);
    for trial in 0..512 {
        let len = (trial % 61) + rng.gen_range(0usize..9);
        let coeff = Gf(rng.gen_range(0usize..256) as u8);
        let mut buf = vec![0u8; len];
        rng.fill_bytes(&mut buf);

        let mut fast = buf.clone();
        slice_scale(&mut fast, coeff);
        slice_scale_scalar(&mut buf, coeff);
        assert_eq!(fast, buf, "coeff={} len={len}", coeff.0);
    }
}

#[test]
fn kernels_exhaustive_over_coefficients() {
    // Every coefficient, one mixed-content slice: the mul table row must
    // agree with log/exp math everywhere, including the 0 and 1 rows.
    let src: Vec<u8> = (0..96u16).map(|i| (i * 53 % 256) as u8).collect();
    let base: Vec<u8> = (0..96u16).map(|i| (i * 29 % 256) as u8).collect();
    for c in 0..=255u8 {
        let coeff = Gf(c);
        let mut fast = base.clone();
        let mut reference = base.clone();
        slice_mul_add_assign(&mut fast, coeff, &src);
        slice_mul_add_assign_scalar(&mut reference, coeff, &src);
        assert_eq!(fast, reference, "mul_add coeff={c}");

        let mut fast = src.clone();
        let mut reference = src.clone();
        slice_scale(&mut fast, coeff);
        slice_scale_scalar(&mut reference, coeff);
        assert_eq!(fast, reference, "scale coeff={c}");
    }
}

fn random_blocks(rng: &mut DetRng, k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|_| {
            let mut b = vec![0u8; len];
            rng.fill_bytes(&mut b);
            b
        })
        .collect()
}

#[test]
fn decode_cache_on_off_bit_identical_at_paper_points() {
    let mut rng = DetRng::seed_from_u64(0x6361_6368);
    for (k, n) in PAPER_POINTS {
        let cached = ReedSolomon::new(k, n).unwrap();
        let uncached = ReedSolomon::with_cache_capacity(k, n, 0).unwrap();
        let blocks = random_blocks(&mut rng, k, 72);
        let enc = cached.encode(&blocks).unwrap();
        assert_eq!(enc, uncached.encode(&blocks).unwrap());

        for _ in 0..40 {
            // Random erasure pattern: keep a random k-subset.
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            let subset: Vec<(usize, &[u8])> =
                order[..k].iter().map(|&i| (i, enc[i].as_slice())).collect();
            let a = cached.decode_refs(&subset, 72).unwrap();
            let b = uncached.decode_refs(&subset, 72).unwrap();
            assert_eq!(a, b, "k={k} n={n}");
            assert_eq!(a, blocks, "k={k} n={n}");
        }
        let (hits, misses) = cached.cache_counters();
        let (u_hits, _) = uncached.cache_counters();
        assert_eq!(u_hits, 0, "capacity-0 cache must never hit");
        // Repeated patterns across 40 draws make at least one hit
        // overwhelmingly likely for the small points; for all points the
        // totals must account for every non-identity decode.
        assert!(hits + misses > 0 || n == k, "k={k} n={n}");
    }
}

#[test]
fn warm_cache_decodes_repeated_pattern_identically() {
    let mut rng = DetRng::seed_from_u64(0x7761_726d);
    let (k, n) = (32, 48);
    let code = ReedSolomon::new(k, n).unwrap();
    let blocks = random_blocks(&mut rng, k, 72);
    let enc = code.encode(&blocks).unwrap();
    // One fixed all-parity-heavy pattern decoded repeatedly: the first
    // decode misses, later ones hit, and every result is identical.
    let subset: Vec<(usize, &[u8])> = (n - k..n).map(|i| (i, enc[i].as_slice())).collect();
    let first = code.decode_refs(&subset, 72).unwrap();
    assert_eq!(first, blocks);
    for _ in 0..5 {
        assert_eq!(code.decode_refs(&subset, 72).unwrap(), first);
    }
    let (hits, misses) = code.cache_counters();
    assert_eq!(misses, 1, "one inversion for one pattern");
    assert_eq!(hits, 5, "subsequent decodes served from cache");
}

#[test]
fn clones_share_the_decode_cache() {
    let (k, n) = (8, 16);
    let code = ReedSolomon::new(k, n).unwrap();
    let clone = code.clone();
    let blocks: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8; 24]).collect();
    let enc = code.encode(&blocks).unwrap();
    let subset: Vec<(usize, &[u8])> = (n - k..n).map(|i| (i, enc[i].as_slice())).collect();
    assert_eq!(code.decode_refs(&subset, 24).unwrap(), blocks);
    assert_eq!(clone.decode_refs(&subset, 24).unwrap(), blocks);
    let (hits, misses) = code.cache_counters();
    assert_eq!((hits, misses), (1, 1), "clone reused the original's entry");
}

#[test]
fn decode_entry_points_agree() {
    // decode (owned), decode_refs (borrowed) and decode_into (scratch)
    // must produce the same bytes for identical inputs.
    let mut rng = DetRng::seed_from_u64(0x656e_7472);
    for (k, n) in PAPER_POINTS {
        let code = ReedSolomon::new(k, n).unwrap();
        let blocks = random_blocks(&mut rng, k, 40);
        let enc = code.encode(&blocks).unwrap();
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let owned: Vec<(usize, Vec<u8>)> =
            order[..k].iter().map(|&i| (i, enc[i].clone())).collect();
        let refs: Vec<(usize, &[u8])> =
            order[..k].iter().map(|&i| (i, enc[i].as_slice())).collect();
        let from_owned = code.decode(&owned, 40).unwrap();
        let from_refs = code.decode_refs(&refs, 40).unwrap();
        let mut scratch = Vec::new();
        code.decode_into(&refs, 40, &mut scratch).unwrap();
        assert_eq!(from_owned, from_refs, "k={k} n={n}");
        assert_eq!(scratch, from_refs.concat(), "k={k} n={n}");
    }
}

#[test]
fn interleaved_systematic_blocks_take_identity_path() {
    // >= k systematic blocks interleaved with parity blocks: no
    // inversion may happen (the cache sees neither hit nor miss).
    let (k, n) = (8, 16);
    let code = ReedSolomon::new(k, n).unwrap();
    let blocks: Vec<Vec<u8>> = (0..k).map(|i| vec![(i * 3) as u8; 16]).collect();
    let enc = code.encode(&blocks).unwrap();
    // All k systematic blocks plus interleaved parity blocks, shuffled.
    let indices = [9usize, 0, 12, 4, 1, 15, 2, 3, 10, 5, 6, 7];
    let subset: Vec<(usize, &[u8])> = indices.iter().map(|&i| (i, enc[i].as_slice())).collect();
    assert_eq!(code.decode_refs(&subset, 16).unwrap(), blocks);
    let mut scratch = Vec::new();
    code.decode_into(&subset, 16, &mut scratch).unwrap();
    assert_eq!(scratch, blocks.concat());
    assert_eq!(
        code.cache_counters(),
        (0, 0),
        "identity path must not invert"
    );
}
