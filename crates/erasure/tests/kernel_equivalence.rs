//! Equivalence properties for the optimized hot-path kernels and the
//! Reed-Solomon decoder.
//!
//! The table-driven GF(256) slice kernels are pure speed changes: this
//! suite pins them to the scalar reference implementation byte for byte.
//! The RS decoder, which solves only for the erased source blocks, is
//! pinned to a test-only full-inversion decoder built from the public
//! `Matrix` (Vandermonde, systematic generator, chosen rows, inverse,
//! multiply). Each code's encoder output is pinned by digest, on
//! whichever kernel the process selects. Any future kernel, encoder or
//! decoder change that alters results fails loudly.

use lrs_crypto::sha256::sha256;
use lrs_erasure::gf256::{
    slice_mul_add_assign, slice_mul_add_assign_scalar, slice_scale, slice_scale_scalar, Gf,
};
use lrs_erasure::kernel::{self, Kernel};
use lrs_erasure::matrix::Matrix;
use lrs_erasure::{CodeError, ErasureCode, Lt, ReedSolomon, SparseXor};
use lrs_rng::DetRng;

/// The paper's (k, n) operating points: defaults k = 32 with n = 48/64,
/// the hash-page code k0 = 8, n0 = 16, and the worked example (3, 6).
const PAPER_POINTS: [(usize, usize); 4] = [(32, 48), (32, 64), (8, 16), (3, 6)];

/// Lengths that straddle every kernel's internal boundaries: the 8-byte
/// unrolled chunk, the AVX2 kernel's 16-byte tail step and 32-byte
/// vector, and a large body with a ragged tail.
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

/// One encoded page and a full-inversion reference decoder for it: the
/// systematic generator `G = V · (V_top)⁻¹` rebuilt from the public
/// `Matrix`, the rows of the first `k` given blocks, a `k × k`
/// inversion, and a scalar matrix-vector product per byte column.
/// Test-only and deliberately slow.
struct Page {
    code: ReedSolomon,
    generator: Matrix,
    source: Vec<Vec<u8>>,
    enc: Vec<Vec<u8>>,
    len: usize,
}

impl Page {
    /// A `(k, n)` code, random source blocks of `len` bytes and their
    /// encoding.
    fn new(rng: &mut DetRng, k: usize, n: usize, len: usize) -> Page {
        let code = ReedSolomon::new(k, n).unwrap();
        let source = random_blocks(rng, k, len);
        let enc = code.encode(&source).unwrap();
        let v = Matrix::vandermonde(n, k);
        let top_inv = v
            .select_rows(&(0..k).collect::<Vec<_>>())
            .inverse()
            .unwrap();
        Page {
            code,
            generator: v.mul(&top_inv),
            source,
            enc,
            len,
        }
    }

    fn reference_decode(&self, blocks: &[(usize, &[u8])]) -> Vec<Vec<u8>> {
        let used = &blocks[..self.code.k()];
        let rows: Vec<usize> = used.iter().map(|(i, _)| *i).collect();
        let inv = self.generator.select_rows(&rows).inverse().unwrap();
        (0..used.len())
            .map(|r| {
                (0..self.len)
                    .map(|b| {
                        let mut acc = Gf(0);
                        for (c, (_, y)) in used.iter().enumerate() {
                            acc = acc.add(inv.get(r, c).mul(Gf(y[b])));
                        }
                        acc.0
                    })
                    .collect()
            })
            .collect()
    }

    /// Decodes the blocks at `indices` and checks the page byte for byte
    /// against the reference decoder, and the reference against the
    /// source blocks.
    fn check(&self, indices: &[usize]) {
        let (k, n, len) = (self.code.k(), self.code.n(), self.len);
        let subset: Vec<(usize, &[u8])> = indices
            .iter()
            .map(|&i| (i, self.enc[i].as_slice()))
            .collect();
        let reference = self.reference_decode(&subset);
        assert_eq!(reference, self.source, "reference k={k} n={n} {indices:?}");
        let mut page = vec![0xA5; 3];
        self.code.decode_into(&subset, len, &mut page).unwrap();
        assert_eq!(
            page,
            reference.concat(),
            "decode_into k={k} n={n} {indices:?}"
        );
    }
}

/// Calls `f` on every `k`-subset of `0..n`, in lexicographic order.
fn for_each_subset(n: usize, k: usize, mut f: impl FnMut(&[usize])) {
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        f(&idx);
        let Some(i) = (0..k).rev().find(|&i| idx[i] < n - k + i) else {
            return;
        };
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Every `k`-subset at the `exhaustive` points, then `trials` random
/// erasure patterns (the first `k` survivors of a shuffle, unsorted, as
/// the workloads see them) at the `random` points.
fn differential(
    seed: u64,
    exhaustive: &[(usize, usize)],
    random: &[(usize, usize)],
    trials: usize,
) {
    let mut rng = DetRng::seed_from_u64(seed);
    for &(k, n) in exhaustive {
        let page = Page::new(&mut rng, k, n, 24);
        for_each_subset(n, k, |indices| page.check(indices));
    }
    for &(k, n) in random {
        let page = Page::new(&mut rng, k, n, 72);
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..trials {
            rng.shuffle(&mut order);
            page.check(&order[..k]);
        }
    }
}

#[test]
fn erasure_only_decode_matches_full_inversion_reference() {
    // Every k-subset of the worked example, the k = 4 code and the
    // hash-page code (12 870 subsets), then 200 random patterns at each
    // page geometry.
    differential(
        0x6572_6173,
        &[(3, 6), (4, 8), (8, 16)],
        &[(32, 48), (32, 64), (16, 24)],
        200,
    );

    let mut rng = DetRng::seed_from_u64(0x6564_6765);
    // m = 0: all k systematic blocks, interleaved with parity blocks.
    Page::new(&mut rng, 8, 16, 24).check(&[9, 0, 12, 4, 1, 15, 2, 3, 10, 5, 6, 7]);
    // m = n − k: every parity block, the rest systematic (at (32, 64)
    // that is all parity, S empty).
    for (k, n) in [(32, 48), (32, 64), (8, 16), (3, 5)] {
        let indices: Vec<usize> = (n - k..n).collect();
        Page::new(&mut rng, k, n, 40).check(&indices);
    }
    // k = n (no parity at all) and k = 1 (every block is a copy or a
    // scalar multiple of the one source).
    for (k, n) in [(1, 1), (5, 5), (1, 7)] {
        let page = Page::new(&mut rng, k, n, 40);
        for_each_subset(n, k, |indices| page.check(indices));
    }
}

#[test]
#[ignore = "long form: run with `cargo test -p lrs-erasure --release -- --ignored`"]
fn erasure_only_decode_matches_full_inversion_reference_long_form() {
    // Every 10-subset of (10, 20) (184 756 subsets) and 20 000 random
    // patterns at each paper page geometry.
    differential(0x6c6f_6e67, &[(10, 20)], &[(32, 48), (32, 64)], 20_000);
}

#[test]
fn decode_matches_reference_at_paper_points() {
    let mut rng = DetRng::seed_from_u64(0x6361_6368);
    for (k, n) in PAPER_POINTS {
        let page = Page::new(&mut rng, k, n, 72);
        for _ in 0..40 {
            // Random erasure pattern: keep a random k-subset.
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            page.check(&order[..k]);
        }
    }
}

#[test]
fn repeated_pattern_decodes_identically() {
    let mut rng = DetRng::seed_from_u64(0x7761_726d);
    let (k, n) = (32, 48);
    let code = ReedSolomon::new(k, n).unwrap();
    let blocks = random_blocks(&mut rng, k, 72);
    let enc = code.encode(&blocks).unwrap();
    // One fixed all-parity-heavy pattern decoded repeatedly: every
    // result is identical.
    let subset: Vec<(usize, &[u8])> = (n - k..n).map(|i| (i, enc[i].as_slice())).collect();
    let mut first = Vec::new();
    code.decode_into(&subset, 72, &mut first).unwrap();
    assert_eq!(first, blocks.concat());
    let mut page = Vec::new();
    for _ in 0..5 {
        code.decode_into(&subset, 72, &mut page).unwrap();
        assert_eq!(page, first);
    }
}

#[test]
fn clones_decode_identically() {
    let (k, n) = (8, 16);
    let code = ReedSolomon::new(k, n).unwrap();
    let clone = code.clone();
    let blocks: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8; 24]).collect();
    let enc = code.encode(&blocks).unwrap();
    let subset: Vec<(usize, &[u8])> = (n - k..n).map(|i| (i, enc[i].as_slice())).collect();
    let (mut page, mut cloned) = (Vec::new(), Vec::new());
    code.decode_into(&subset, 24, &mut page).unwrap();
    clone.decode_into(&subset, 24, &mut cloned).unwrap();
    assert_eq!(page, blocks.concat());
    assert_eq!(cloned, page);
}

#[test]
fn interleaved_systematic_blocks_take_identity_path() {
    // >= k systematic blocks interleaved with parity blocks: the chosen
    // rows are exactly 0..k, so decoding is a copy.
    let (k, n) = (8, 16);
    let code = ReedSolomon::new(k, n).unwrap();
    let blocks: Vec<Vec<u8>> = (0..k).map(|i| vec![(i * 3) as u8; 16]).collect();
    let enc = code.encode(&blocks).unwrap();
    // All k systematic blocks plus interleaved parity blocks, shuffled.
    let indices = [9usize, 0, 12, 4, 1, 15, 2, 3, 10, 5, 6, 7];
    let subset: Vec<(usize, &[u8])> = indices.iter().map(|&i| (i, enc[i].as_slice())).collect();
    let mut scratch = Vec::new();
    code.decode_into(&subset, 16, &mut scratch).unwrap();
    assert_eq!(scratch, blocks.concat());
}

/// SHA-256 of `encode_into`'s output for a fixed 72-byte-block input,
/// per code and `(k, n)`: the page code `(32, 48)` and the hash-page
/// code `(8, 16)` of the default parameters. The digests were taken from
/// the block-per-`Vec` encoders `encode_into` replaced, and are the same
/// on the scalar and AVX2 GF(256) kernels.
const ENCODE_PINS: [(&str, usize, usize, &str); 6] = [
    (
        "rs",
        32,
        48,
        "1904ff9ac796571f258eb86f2f02130e5e1d262ca856dfc9a0e22b5cc48bfbda",
    ),
    (
        "xor",
        32,
        48,
        "eab28849f5525c39611678fda085c6ff043927d7a0d1fe36f85bc054f09c1a6d",
    ),
    (
        "lt",
        32,
        48,
        "137345860bd63c71155f63ec6b37ece7175641b71d16329043a17999fd4996f6",
    ),
    (
        "rs",
        8,
        16,
        "abc7b343daf0991babf6b8cb99d89788b3b211b144b48bb43c0b64298c965375",
    ),
    (
        "xor",
        8,
        16,
        "ced1ca80d0f6110b870cdc792b2fc796bc89c113454f5627882672f5ec9ed7d2",
    ),
    (
        "lt",
        8,
        16,
        "52e66e4274caabbff9407b7e701114ee76eb05c67c4539743189b2c51d3d8916",
    ),
];

/// Encodes the fixed input with `code`, checks the pinned digest, that
/// `encode` agrees block for block, and that random `k'`-subsets of
/// the encoded blocks decode back to the input. The MDS code decodes
/// every draw; a non-MDS code may refuse an unlucky draw (the protocol
/// then collects more packets), but never decodes one wrongly.
fn check_encoder(code: &dyn ErasureCode, name: &str, pin: &str, rng: &mut DetRng) {
    const LEN: usize = 72;
    let (k, n) = (code.k(), code.n());
    let mut input = vec![0u8; k * LEN];
    DetRng::seed_from_u64(0x656e_636f_6465).fill_bytes(&mut input);
    let mut out = vec![0xA5; 5];
    code.encode_into(&input, LEN, &mut out).unwrap();
    assert_eq!(out.len(), n * LEN);
    assert_eq!(sha256(&out).to_hex(), pin, "{name} ({k}, {n})");
    assert_eq!(&out[..k * LEN], &input[..], "{name}: systematic prefix");
    let blocks: Vec<Vec<u8>> = input.chunks(LEN).map(<[u8]>::to_vec).collect();
    assert_eq!(
        code.encode(&blocks).unwrap().concat(),
        out,
        "{name}: encode"
    );

    let (mut order, mut page, mut decoded) = ((0..n).collect::<Vec<_>>(), Vec::new(), 0);
    const DRAWS: usize = 40;
    for _ in 0..DRAWS {
        rng.shuffle(&mut order);
        let subset: Vec<(usize, &[u8])> = order[..code.k_prime()]
            .iter()
            .map(|&j| (j, &out[j * LEN..(j + 1) * LEN]))
            .collect();
        match code.decode_into(&subset, LEN, &mut page) {
            Ok(()) => {
                assert_eq!(page, input, "{name} ({k}, {n}) {:?}", &order[..k]);
                decoded += 1;
            }
            Err(CodeError::NotEnoughBlocks { .. }) if code.k_prime() > k => {}
            Err(e) => panic!("{name} ({k}, {n}): {e}"),
        }
    }
    assert!(decoded > 0, "{name} ({k}, {n}): no draw decoded");

    // A wrong-sized input is refused and leaves `out` as it was.
    let before = out.clone();
    let short = code.encode_into(&input[1..], LEN, &mut out);
    assert!(matches!(short, Err(CodeError::BadInput(_))), "{name}");
    assert_eq!(out, before);
}

#[test]
fn encoders_reproduce_their_pinned_bytes_and_decode_back() {
    let mut rng = DetRng::seed_from_u64(0x7069_6e73);
    for (name, k, n, pin) in ENCODE_PINS {
        let code: Box<dyn ErasureCode> = match name {
            "rs" => Box::new(ReedSolomon::new(k, n).unwrap()),
            "xor" => Box::new(SparseXor::new(k, n).unwrap()),
            _ => Box::new(Lt::new(k, n).unwrap()),
        };
        check_encoder(code.as_ref(), name, pin, &mut rng);
    }
}
