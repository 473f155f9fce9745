//! Runtime-dispatched SIMD kernels for the GF(256) slice operations.
//!
//! The inner loop of Reed-Solomon encode/decode and of Gauss-Jordan
//! elimination is `dst[i] ^= c · src[i]` over whole block slices. This
//! module provides two interchangeable implementations of that loop
//! and of `buf[i] = c · buf[i]` / `dst[i] ^= src[i]`:
//!
//! * [`Kernel::Scalar`] — the full-mul-table row kernel (one 256-byte
//!   table row per coefficient, one load + XOR per byte). This is the
//!   reference anchor the other kernel is property-tested against.
//! * [`Kernel::Avx2`] — the classic 4-bit split-table shuffle kernel
//!   (`VPSHUFB`): the product `c · b` is `c·lo(b) ⊕ c·(hi(b)·16)`, so
//!   two 16-entry nibble tables looked up with a byte shuffle multiply
//!   32 bytes per instruction pair; 8-31-byte tails take the same
//!   tables at 128- and 64-bit width.
//!
//! Selection happens once per process via [`Kernel::active`]: the
//! best path supported by the CPU (`is_x86_feature_detected!`), unless
//! the `LRS_GF_KERNEL` environment variable (`scalar`, `avx2`)
//! forces a specific one — the hook the forced-kernel CI jobs
//! and the microbenchmarks use. Every kernel produces bit-identical
//! output (GF(256) arithmetic is exact), so dispatch can never change
//! simulation results; `erasure/tests/kernel_equivalence.rs` pins each
//! reachable path against the scalar reference.

use crate::gf256::{mul_row, Gf};
use std::sync::OnceLock;

/// One of the interchangeable GF(256) slice-kernel implementations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernel {
    /// Full-mul-table scalar kernel (the reference anchor).
    Scalar,
    /// 4-bit split-table shuffle kernel over 256-bit registers.
    Avx2,
}

impl Kernel {
    /// All kernels, slowest first.
    pub const ALL: [Kernel; 2] = [Kernel::Scalar, Kernel::Avx2];

    /// The kernel's name as used by `LRS_GF_KERNEL`.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Parses an `LRS_GF_KERNEL` value.
    pub fn from_name(name: &str) -> Option<Kernel> {
        Kernel::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether this kernel can run on the current CPU.
    pub fn is_supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => false,
        }
    }

    /// The kernels the current CPU can run, slowest first.
    pub fn supported() -> Vec<Kernel> {
        Kernel::ALL
            .into_iter()
            .filter(|k| k.is_supported())
            .collect()
    }

    /// The fastest kernel supported by the current CPU.
    pub fn best_supported() -> Kernel {
        *Kernel::supported().last().expect("scalar always supported")
    }

    /// The kernel the public slice operations dispatch to, resolved
    /// once per process: `LRS_GF_KERNEL` when set to a kernel the CPU
    /// supports (unsupported or unknown values are ignored), otherwise
    /// the best supported path.
    pub fn active() -> Kernel {
        static ACTIVE: OnceLock<Kernel> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            if let Ok(name) = std::env::var("LRS_GF_KERNEL") {
                match Kernel::from_name(&name) {
                    Some(k) if k.is_supported() => return k,
                    Some(k) => eprintln!(
                        "LRS_GF_KERNEL={} is not supported on this CPU; using {}",
                        k.name(),
                        Kernel::best_supported().name()
                    ),
                    None => eprintln!(
                        "LRS_GF_KERNEL={name} is not a kernel ({}); using {}",
                        Kernel::ALL.map(Kernel::name).join("|"),
                        Kernel::best_supported().name()
                    ),
                }
            }
            Kernel::best_supported()
        })
    }
}

/// `dst ^= coeff · src` with an explicit kernel (the property suite and
/// the microbenchmarks pin each path through this entry point).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_add_assign(kernel: Kernel, dst: &mut [u8], coeff: Gf, src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    if coeff.0 == 0 {
        return;
    }
    if coeff.0 == 1 {
        add_assign(kernel, dst, src);
        return;
    }
    match kernel {
        Kernel::Scalar => mul_add_table(dst, coeff, src),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only selects this kernel after
        // `is_x86_feature_detected!` confirmed the feature.
        Kernel::Avx2 => unsafe { x86::mul_add_avx2(dst, coeff, src) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => mul_add_table(dst, coeff, src),
    }
}

/// `dst ^= Σ coeffs[i] · srcs[i]` — the fused generator-row product at
/// the heart of RS encode (one parity row over all `k` sources) and
/// decode (one inverse-matrix row over the chosen blocks). Fusing the
/// whole row into one kernel call amortizes dispatch and table setup
/// across all sources, which dominates at the paper's 72-byte blocks:
/// a per-source `mul_add_assign` call can't be inlined across the
/// `#[target_feature]` boundary and reloads its tables every time.
///
/// # Panics
///
/// Panics if `coeffs` and `srcs` have different lengths or any source
/// length differs from `dst`'s.
pub fn mul_add_accumulate(kernel: Kernel, dst: &mut [u8], coeffs: &[Gf], srcs: &[&[u8]]) {
    assert_eq!(
        coeffs.len(),
        srcs.len(),
        "coefficient/source count mismatch"
    );
    for src in srcs {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `mul_add_assign`.
        Kernel::Avx2 => unsafe { x86::mul_add_accumulate_avx2(dst, coeffs, srcs) },
        _ => {
            for (coeff, src) in coeffs.iter().zip(srcs) {
                mul_add_assign(kernel, dst, *coeff, src);
            }
        }
    }
}

/// `buf[i] = coeff · buf[i]` with an explicit kernel.
pub fn scale(kernel: Kernel, buf: &mut [u8], coeff: Gf) {
    if coeff.0 == 1 {
        return;
    }
    match kernel {
        Kernel::Scalar => scale_table(buf, coeff),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `mul_add_assign`.
        Kernel::Avx2 => unsafe { x86::scale_avx2(buf, coeff) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => scale_table(buf, coeff),
    }
}

/// `dst ^= src` (vector addition) with an explicit kernel.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_assign(kernel: Kernel, dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    match kernel {
        Kernel::Scalar => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= s;
            }
        }
        // One XOR implementation serves every wide kernel: the u64
        // chunk loop below autovectorizes to the widest available
        // registers, and XOR has no table to split.
        _ => {
            let mut d = dst.chunks_exact_mut(8);
            let mut s = src.chunks_exact(8);
            for (d8, s8) in d.by_ref().zip(s.by_ref()) {
                let x = u64::from_le_bytes(d8.try_into().expect("8-byte chunk"))
                    ^ u64::from_le_bytes(s8.try_into().expect("8-byte chunk"));
                d8.copy_from_slice(&x.to_le_bytes());
            }
            for (d1, s1) in d.into_remainder().iter_mut().zip(s.remainder()) {
                *d1 ^= s1;
            }
        }
    }
}

/// Full-mul-table kernel: one 256-byte row lookup per byte, unrolled in
/// 8-byte chunks to keep the loads pipelined.
fn mul_add_table(dst: &mut [u8], coeff: Gf, src: &[u8]) {
    let row = mul_row(coeff);
    let mut d_chunks = dst.chunks_exact_mut(8);
    let mut s_chunks = src.chunks_exact(8);
    for (d, s) in d_chunks.by_ref().zip(s_chunks.by_ref()) {
        d[0] ^= row[s[0] as usize];
        d[1] ^= row[s[1] as usize];
        d[2] ^= row[s[2] as usize];
        d[3] ^= row[s[3] as usize];
        d[4] ^= row[s[4] as usize];
        d[5] ^= row[s[5] as usize];
        d[6] ^= row[s[6] as usize];
        d[7] ^= row[s[7] as usize];
    }
    for (d, s) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *d ^= row[*s as usize];
    }
}

fn scale_table(buf: &mut [u8], coeff: Gf) {
    let row = mul_row(coeff);
    let mut chunks = buf.chunks_exact_mut(8);
    for b in chunks.by_ref() {
        b[0] = row[b[0] as usize];
        b[1] = row[b[1] as usize];
        b[2] = row[b[2] as usize];
        b[3] = row[b[3] as usize];
        b[4] = row[b[4] as usize];
        b[5] = row[b[5] as usize];
        b[6] = row[b[6] as usize];
        b[7] = row[b[7] as usize];
    }
    for b in chunks.into_remainder() {
        *b = row[*b as usize];
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::gf256::{nib_row, Gf};
    use core::arch::x86_64::*;

    /// One 8-byte `dst ^= c·src` step: `_mm_loadl_epi64` reads exactly
    /// eight bytes (no over-read past the slice end), so sub-16-byte
    /// tails can use the shuffle tables instead of byte-wise lookups —
    /// the paper's 72-byte blocks end in exactly such a tail on every
    /// kernel call.
    ///
    /// # Safety
    ///
    /// SSSE3 must be available and `dp`/`sp` must be valid for 8 bytes.
    #[inline]
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_add_8(dp: *mut u8, sp: *const u8, lo_tbl: __m128i, hi_tbl: __m128i) {
        let mask = _mm_set1_epi8(0x0f);
        let x = _mm_loadl_epi64(sp as *const __m128i);
        let lo = _mm_and_si128(x, mask);
        let hi = _mm_and_si128(_mm_srli_epi64::<4>(x), mask);
        let prod = _mm_xor_si128(_mm_shuffle_epi8(lo_tbl, lo), _mm_shuffle_epi8(hi_tbl, hi));
        let d = _mm_loadl_epi64(dp as *const __m128i);
        _mm_storel_epi64(dp as *mut __m128i, _mm_xor_si128(d, prod));
    }

    /// `dst ^= coeff · src` at 128-bit width: the tail of
    /// [`mul_add_avx2`] after its last whole 32-byte vector.
    ///
    /// # Safety
    ///
    /// Caller must have verified SSSE3 support (AVX2 implies it).
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_add_ssse3(dst: &mut [u8], coeff: Gf, src: &[u8]) {
        let tbl = nib_row(coeff);
        let lo_tbl = _mm_loadu_si128(tbl.as_ptr() as *const __m128i);
        let hi_tbl = _mm_loadu_si128(tbl.as_ptr().add(16) as *const __m128i);
        let mask = _mm_set1_epi8(0x0f);
        let body = dst.len() & !15;
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i < body {
            let x = _mm_loadu_si128(sp.add(i) as *const __m128i);
            let lo = _mm_and_si128(x, mask);
            let hi = _mm_and_si128(_mm_srli_epi64::<4>(x), mask);
            let prod = _mm_xor_si128(_mm_shuffle_epi8(lo_tbl, lo), _mm_shuffle_epi8(hi_tbl, hi));
            let d = _mm_loadu_si128(dp.add(i) as *const __m128i);
            _mm_storeu_si128(dp.add(i) as *mut __m128i, _mm_xor_si128(d, prod));
            i += 16;
        }
        // Sub-16-byte tail: 8-byte steps through the same shuffle
        // tables, then byte-wise from the nibble table for the last
        // 0–7 bytes — never the 64 KiB full-mul table, whose extra
        // table walk dominated small-slice cost.
        while i + 8 <= dst.len() {
            mul_add_8(dp.add(i), sp.add(i), lo_tbl, hi_tbl);
            i += 8;
        }
        for j in i..dst.len() {
            let s = src[j];
            dst[j] ^= tbl[(s & 0x0f) as usize] ^ tbl[16 + (s >> 4) as usize];
        }
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_add_avx2(dst: &mut [u8], coeff: Gf, src: &[u8]) {
        let tbl = nib_row(coeff);
        let lo_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(tbl.as_ptr() as *const __m128i));
        let hi_tbl =
            _mm256_broadcastsi128_si256(_mm_loadu_si128(tbl.as_ptr().add(16) as *const __m128i));
        let mask = _mm256_set1_epi8(0x0f);
        let body = dst.len() & !31;
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i < body {
            let x = _mm256_loadu_si256(sp.add(i) as *const __m256i);
            let lo = _mm256_and_si256(x, mask);
            let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask);
            let prod = _mm256_xor_si256(
                _mm256_shuffle_epi8(lo_tbl, lo),
                _mm256_shuffle_epi8(hi_tbl, hi),
            );
            let d = _mm256_loadu_si256(dp.add(i) as *const __m256i);
            _mm256_storeu_si256(dp.add(i) as *mut __m256i, _mm256_xor_si256(d, prod));
            i += 32;
        }
        // AVX2 implies SSSE3: mop up 16..31 remaining bytes at 128-bit
        // width, then the scalar row takes the final tail.
        mul_add_ssse3(&mut dst[body..], coeff, &src[body..]);
    }

    /// Fused `dst ^= Σ c_i · src_i`: one `#[target_feature]` region and
    /// one mask constant for the whole generator row; each source pays
    /// only its own nibble-table loads.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; slice lengths must
    /// already be validated (`mul_add_accumulate` asserts them).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_add_accumulate_avx2(dst: &mut [u8], coeffs: &[Gf], srcs: &[&[u8]]) {
        let mask = _mm256_set1_epi8(0x0f);
        let mask128 = _mm_set1_epi8(0x0f);
        let body = dst.len() & !31;
        let half = dst.len() & !15;
        let dp = dst.as_mut_ptr();
        for (coeff, src) in coeffs.iter().zip(srcs) {
            if coeff.0 == 0 {
                continue;
            }
            let tbl = nib_row(*coeff);
            let tbl_lo128 = _mm_loadu_si128(tbl.as_ptr() as *const __m128i);
            let tbl_hi128 = _mm_loadu_si128(tbl.as_ptr().add(16) as *const __m128i);
            let lo_tbl = _mm256_broadcastsi128_si256(tbl_lo128);
            let hi_tbl = _mm256_broadcastsi128_si256(tbl_hi128);
            let sp = src.as_ptr();
            let mut i = 0;
            while i < body {
                let x = _mm256_loadu_si256(sp.add(i) as *const __m256i);
                let lo = _mm256_and_si256(x, mask);
                let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask);
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_tbl, lo),
                    _mm256_shuffle_epi8(hi_tbl, hi),
                );
                let d = _mm256_loadu_si256(dp.add(i) as *const __m256i);
                _mm256_storeu_si256(dp.add(i) as *mut __m256i, _mm256_xor_si256(d, prod));
                i += 32;
            }
            if i < half {
                let x = _mm_loadu_si128(sp.add(i) as *const __m128i);
                let lo = _mm_and_si128(x, mask128);
                let hi = _mm_and_si128(_mm_srli_epi64::<4>(x), mask128);
                let prod = _mm_xor_si128(
                    _mm_shuffle_epi8(tbl_lo128, lo),
                    _mm_shuffle_epi8(tbl_hi128, hi),
                );
                let d = _mm_loadu_si128(dp.add(i) as *const __m128i);
                _mm_storeu_si128(dp.add(i) as *mut __m128i, _mm_xor_si128(d, prod));
                i += 16;
            }
            while i + 8 <= dst.len() {
                mul_add_8(dp.add(i), sp.add(i), tbl_lo128, tbl_hi128);
                i += 8;
            }
            for j in i..dst.len() {
                let s = src[j];
                dst[j] ^= tbl[(s & 0x0f) as usize] ^ tbl[16 + (s >> 4) as usize];
            }
        }
    }

    /// `buf = coeff · buf` at 128-bit width: the tail of
    /// [`scale_avx2`] after its last whole 32-byte vector.
    ///
    /// # Safety
    ///
    /// Caller must have verified SSSE3 support (AVX2 implies it).
    #[target_feature(enable = "ssse3")]
    unsafe fn scale_ssse3(buf: &mut [u8], coeff: Gf) {
        let tbl = nib_row(coeff);
        let lo_tbl = _mm_loadu_si128(tbl.as_ptr() as *const __m128i);
        let hi_tbl = _mm_loadu_si128(tbl.as_ptr().add(16) as *const __m128i);
        let mask = _mm_set1_epi8(0x0f);
        let body = buf.len() & !15;
        let bp = buf.as_mut_ptr();
        let mut i = 0;
        while i < body {
            let x = _mm_loadu_si128(bp.add(i) as *const __m128i);
            let lo = _mm_and_si128(x, mask);
            let hi = _mm_and_si128(_mm_srli_epi64::<4>(x), mask);
            let prod = _mm_xor_si128(_mm_shuffle_epi8(lo_tbl, lo), _mm_shuffle_epi8(hi_tbl, hi));
            _mm_storeu_si128(bp.add(i) as *mut __m128i, prod);
            i += 16;
        }
        // Byte-wise tail from the in-register nibble table (see
        // `mul_add_ssse3`).
        for slot in buf.iter_mut().skip(body) {
            let b = *slot;
            *slot = tbl[(b & 0x0f) as usize] ^ tbl[16 + (b >> 4) as usize];
        }
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_avx2(buf: &mut [u8], coeff: Gf) {
        let tbl = nib_row(coeff);
        let lo_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(tbl.as_ptr() as *const __m128i));
        let hi_tbl =
            _mm256_broadcastsi128_si256(_mm_loadu_si128(tbl.as_ptr().add(16) as *const __m128i));
        let mask = _mm256_set1_epi8(0x0f);
        let body = buf.len() & !31;
        let bp = buf.as_mut_ptr();
        let mut i = 0;
        while i < body {
            let x = _mm256_loadu_si256(bp.add(i) as *const __m256i);
            let lo = _mm256_and_si256(x, mask);
            let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask);
            let prod = _mm256_xor_si256(
                _mm256_shuffle_epi8(lo_tbl, lo),
                _mm256_shuffle_epi8(hi_tbl, hi),
            );
            _mm256_storeu_si256(bp.add(i) as *mut __m256i, prod);
            i += 32;
        }
        scale_ssse3(&mut buf[body..], coeff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::from_name(k.name()), Some(k));
        }
        assert_eq!(Kernel::from_name("neon"), None);
    }

    #[test]
    fn scalar_always_supported() {
        assert!(Kernel::Scalar.is_supported());
        assert!(Kernel::supported().contains(&Kernel::best_supported()));
        assert!(Kernel::active().is_supported());
    }
}
