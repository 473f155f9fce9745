//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! This is the public cryptographic hash function `H(·)` that LR-Seluge
//! preloads on every sensor node. It is used for packet hash images, the
//! hash chaining between pages, the Merkle hash tree over the hash page,
//! message-specific puzzles, and as the compression primitive inside HMAC.
//!
//! Every hash runs through one compression function, chosen once per
//! process like the GF(256) kernel ([`ShaKernel::active`]): the x86 SHA
//! extensions where the CPU has them, the scalar reference otherwise.
//! Both compute exact FIPS 180-4 SHA-256, so the choice never changes a
//! digest.

use crate::hash::Digest;
use std::sync::OnceLock;

/// One of the interchangeable SHA-256 compression functions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShaKernel {
    /// The scalar reference compression.
    Sequential,
    /// The x86 SHA extensions.
    ShaNi,
}

impl ShaKernel {
    /// All kernels, slowest first.
    pub const ALL: [ShaKernel; 2] = [ShaKernel::Sequential, ShaKernel::ShaNi];

    /// The kernel's name as used by `LRS_SHA_KERNEL`.
    pub fn name(self) -> &'static str {
        match self {
            ShaKernel::Sequential => "sequential",
            ShaKernel::ShaNi => "shani",
        }
    }

    /// Parses an `LRS_SHA_KERNEL` value.
    pub fn from_name(name: &str) -> Option<ShaKernel> {
        ShaKernel::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether this kernel can run on the current CPU.
    pub fn is_supported(self) -> bool {
        match self {
            ShaKernel::Sequential => true,
            #[cfg(target_arch = "x86_64")]
            ShaKernel::ShaNi => {
                is_x86_feature_detected!("sha")
                    && is_x86_feature_detected!("ssse3")
                    && is_x86_feature_detected!("sse4.1")
            }
            #[cfg(not(target_arch = "x86_64"))]
            ShaKernel::ShaNi => false,
        }
    }

    /// The kernels the current CPU can run, slowest first.
    pub fn supported() -> Vec<ShaKernel> {
        ShaKernel::ALL
            .into_iter()
            .filter(|k| k.is_supported())
            .collect()
    }

    /// The fastest kernel supported by the current CPU.
    pub fn best_supported() -> ShaKernel {
        *ShaKernel::supported()
            .last()
            .expect("sequential always supported")
    }

    /// The kernel all hashing dispatches to, resolved once per
    /// process: `LRS_SHA_KERNEL` when set to a supported kernel
    /// (unsupported or unknown values are ignored), otherwise the best
    /// supported path.
    pub fn active() -> ShaKernel {
        static ACTIVE: OnceLock<ShaKernel> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            if let Ok(name) = std::env::var("LRS_SHA_KERNEL") {
                match ShaKernel::from_name(&name) {
                    Some(k) if k.is_supported() => return k,
                    Some(k) => eprintln!(
                        "LRS_SHA_KERNEL={} is not supported on this CPU; using {}",
                        k.name(),
                        ShaKernel::best_supported().name()
                    ),
                    None => eprintln!(
                        "LRS_SHA_KERNEL={name} is not a kernel ({}); using {}",
                        ShaKernel::ALL.map(ShaKernel::name).join("|"),
                        ShaKernel::best_supported().name()
                    ),
                }
            }
            ShaKernel::best_supported()
        })
    }
}

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use lrs_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let d = h.finalize();
/// assert_eq!(d, lrs_crypto::sha256::sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
    /// Compress with the SHA-NI kernel instead of the scalar reference.
    /// Private, and only ever set from a [`ShaKernel::ShaNi`] whose
    /// `is_supported()` held: the `unsafe` call in `compress_blocks`
    /// relies on that.
    shani: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the standard initial state, compressing with
    /// the process-wide [`ShaKernel::active`] configuration.
    pub fn new() -> Self {
        Self::resume(H0, 0)
    }

    /// Creates a hasher pinned to `kernel`'s compression function: the
    /// property suite pins each path through this.
    ///
    /// # Panics
    ///
    /// Panics if the CPU cannot run `kernel`.
    pub fn with_kernel(kernel: ShaKernel) -> Self {
        assert!(
            kernel.is_supported(),
            "SHA kernel {} is not supported on this CPU",
            kernel.name()
        );
        Self::start(H0, 0, kernel)
    }

    /// Resumes from a chaining `state` reached after absorbing
    /// `absorbed` bytes (a multiple of the block length): how a keyed
    /// HMAC skips its fixed pad block.
    pub(crate) fn resume(state: [u32; 8], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % 64, 0, "midstates sit on block boundaries");
        // `active()` only ever returns a supported kernel.
        Self::start(state, absorbed, ShaKernel::active())
    }

    /// `kernel` must be supported on this CPU.
    fn start(state: [u32; 8], total_len: u64, kernel: ShaKernel) -> Self {
        Sha256 {
            state,
            buf: [0u8; 64],
            buf_len: 0,
            total_len,
            shani: kernel == ShaKernel::ShaNi,
        }
    }

    /// The chaining state; meaningful on a block boundary only.
    pub(crate) fn midstate(&self) -> [u32; 8] {
        debug_assert_eq!(self.buf_len, 0, "midstates sit on block boundaries");
        self.state
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(self.shani, &mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks are compressed straight from the caller's slice.
        let (blocks, tail) = data.split_at(data.len() & !63);
        compress_blocks(self.shani, &mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Absorbs every part in order, then finishes.
    pub(crate) fn finalize_parts(self, parts: &[&[u8]]) -> Digest {
        digest_of(&self.into_tail(parts).final_state())
    }

    /// Finishes the computation, returning the 32-byte digest.
    pub fn finalize(self) -> Digest {
        self.finalize_parts(&[])
    }

    /// Absorbs `parts` up to the message's last one or two blocks and
    /// lays those out with the FIPS padding, ready for one
    /// `compress_blocks` call. Parts are streamed through [`update`]
    /// (whole blocks straight from the caller's slices) only while the
    /// buffered bytes plus the rest exceed [`MAX_TAIL`], so a short
    /// message costs one copy and one kernel call.
    ///
    /// [`update`]: Self::update
    pub(crate) fn into_tail(mut self, mut parts: &[&[u8]]) -> PaddedTail {
        let mut rest: usize = parts.iter().map(|p| p.len()).sum();
        while self.buf_len + rest > MAX_TAIL {
            let (first, later) = parts.split_first().expect("rest > 0");
            self.update(first);
            rest -= first.len();
            parts = later;
        }
        let bit_len = self.total_len.wrapping_add(rest as u64).wrapping_mul(8);
        let mut block = [0u8; 128];
        block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        let mut msg_len = self.buf_len;
        for p in parts {
            block[msg_len..msg_len + p.len()].copy_from_slice(p);
            msg_len += p.len();
        }
        // 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit length.
        block[msg_len] = 0x80;
        let len = if msg_len < 56 { 64 } else { 128 };
        block[len - 8..len].copy_from_slice(&bit_len.to_be_bytes());
        PaddedTail {
            state: self.state,
            shani: self.shani,
            block,
            msg_len,
            len,
        }
    }
}

/// The most message bytes the final two blocks hold beside the `0x80`
/// marker and the 8-byte length.
const MAX_TAIL: usize = 2 * 64 - 9;

/// A message's padded last one or two blocks and the chaining state
/// they compress from: what [`Sha256::into_tail`] leaves. Rewriting
/// bytes of [`message_mut`](Self::message_mut) and calling
/// [`final_state`](Self::final_state) again hashes another message
/// with the same prefix and length for one compression per block —
/// how the puzzle search tries a solution.
pub(crate) struct PaddedTail {
    state: [u32; 8],
    /// Copied from the [`Sha256`] that made the tail, so it carries the
    /// same guarantee `compress_blocks` relies on.
    shani: bool,
    block: [u8; 128],
    /// Message bytes at the front of `block`.
    msg_len: usize,
    /// Padded length of `block`: 64 or 128.
    len: usize,
}

impl PaddedTail {
    /// The message's bytes in the tail: its last `msg_len` bytes.
    pub(crate) fn message_mut(&mut self) -> &mut [u8] {
        &mut self.block[..self.msg_len]
    }

    /// The chaining state after the tail, whose words are the digest.
    pub(crate) fn final_state(&self) -> [u32; 8] {
        let mut state = self.state;
        compress_blocks(self.shani, &mut state, &self.block[..self.len]);
        state
    }
}

/// The digest whose big-endian words are `state`.
fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// Compresses every 64-byte block of `blocks` (a whole number of them)
/// into `state`, with the SHA-NI kernel when `shani` is set and the
/// scalar reference otherwise.
fn compress_blocks(shani: bool, state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if shani {
        // SAFETY: `shani` is only set from `ShaKernel::ShaNi` (directly
        // in a `Sha256`, by copy in a `PaddedTail`) after its
        // `is_supported()` confirmed the `sha`, `ssse3` and `sse4.1`
        // CPU features (`Sha256::with_kernel` asserts it, and
        // `ShaKernel::active` never returns an unsupported kernel).
        return unsafe { shani::compress(state, blocks) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    debug_assert!(!shani, "ShaNi is never supported off x86_64");
    for block in blocks.chunks_exact(64) {
        compress_block(state, block.try_into().expect("chunks_exact(64)"));
    }
}

/// One SHA-256 compression round over `block`, updating `state` in
/// place: the scalar reference every other kernel is pinned against.
fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The single-stream SHA-NI kernel: the x86 SHA extensions run four
/// rounds per `sha256rnds2` pair and the message schedule in
/// `sha256msg1`/`sha256msg2`, so one message's dependency chain costs
/// about a third of the scalar loop.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use core::arch::x86_64::*;

    /// Compresses every 64-byte block of `blocks` into `state`, which
    /// stays in two `xmm` registers (as `ABEF`/`CDGH`, the layout
    /// `sha256rnds2` wants) from the first block to the last.
    ///
    /// # Safety
    ///
    /// Caller must have verified the `sha`, `ssse3` and `sse4.1` CPU
    /// features. (A trailing partial block in `blocks` is ignored, not
    /// read past: every load stays inside a `chunks_exact(64)` chunk.)
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // Big-endian message words: reverse the bytes of each u32 lane.
        let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let dcba = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

        /// Rounds `4g .. 4g + 4` over the four schedule words in `$w`.
        macro_rules! rounds4 {
            ($w:expr, $g:expr) => {{
                let k = _mm_loadu_si128(K.as_ptr().add(4 * $g) as *const __m128i);
                let wk = _mm_add_epi32($w, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }};
        }
        /// The next four schedule words from the previous sixteen
        /// (`$w0` oldest .. `$w3` newest).
        macro_rules! schedule {
            ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
                _mm_sha256msg2_epu32(
                    _mm_add_epi32(
                        _mm_sha256msg1_epu32($w0, $w1),
                        _mm_alignr_epi8::<4>($w3, $w2),
                    ),
                    $w3,
                )
            };
        }

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr() as *const __m128i;
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), be);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), be);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), be);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), be);
            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            for g in [4, 8, 12] {
                w0 = schedule!(w0, w1, w2, w3);
                rounds4!(w0, g);
                w1 = schedule!(w1, w2, w3, w0);
                rounds4!(w1, g + 1);
                w2 = schedule!(w2, w3, w0, w1);
                rounds4!(w2, g + 2);
                w3 = schedule!(w3, w0, w1, w2);
                rounds4!(w3, g + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, hgfe);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Example
///
/// ```
/// let d = lrs_crypto::sha256::sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    Sha256::new().finalize_parts(&[data])
}

/// SHA-256 over the concatenation of several byte slices, avoiding an
/// intermediate allocation.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    Sha256::new().finalize_parts(parts)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lrs_rng::DetRng;

    fn hex(d: &Digest) -> String {
        d.to_hex()
    }

    #[test]
    fn names_roundtrip() {
        for k in ShaKernel::ALL {
            assert_eq!(ShaKernel::from_name(k.name()), Some(k));
        }
        assert_eq!(ShaKernel::from_name("sha-ni"), None);
    }

    #[test]
    fn sequential_always_supported() {
        assert!(ShaKernel::Sequential.is_supported());
        assert!(ShaKernel::supported().contains(&ShaKernel::best_supported()));
        assert!(ShaKernel::active().is_supported());
    }

    /// SHA-256 as FIPS 180-4 writes it, sharing nothing with the
    /// hasher but the scalar compression: the parts concatenated and
    /// padded into one `Vec`, then compressed block by block.
    pub(crate) fn reference_sha256(parts: &[&[u8]]) -> Digest {
        let mut m = parts.concat();
        let bit_len = (m.len() as u64) * 8;
        m.push(0x80);
        while m.len() % 64 != 56 {
            m.push(0);
        }
        m.extend_from_slice(&bit_len.to_be_bytes());
        let mut state = H0;
        for block in m.chunks_exact(64) {
            compress_block(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// The supported kernels, saying so when SHA-NI is not among them.
    fn kernels_under_test(test: &str) -> Vec<ShaKernel> {
        if !ShaKernel::ShaNi.is_supported() {
            eprintln!("{test}: this CPU lacks the SHA extensions, the shani kernel is skipped");
        }
        ShaKernel::supported()
    }

    /// `data` cut into 1-6 random parts; a random number of leading
    /// parts go through `update` (leaving bytes buffered), the rest
    /// through `finalize_parts`. Checked against [`reference_sha256`].
    fn check_random_splits(kernel: ShaKernel, data: &[u8], rng: &mut DetRng) {
        let want = reference_sha256(&[data]);
        let mut cuts: Vec<usize> = (0..rng.gen_range(0usize..6))
            .map(|_| rng.gen_range(0..=data.len()))
            .collect();
        cuts.extend([0, data.len()]);
        cuts.sort_unstable();
        let parts: Vec<&[u8]> = cuts.windows(2).map(|w| &data[w[0]..w[1]]).collect();
        let streamed = rng.gen_range(0..=parts.len());
        let mut h = Sha256::with_kernel(kernel);
        for p in &parts[..streamed] {
            h.update(p);
        }
        assert_eq!(
            h.finalize_parts(&parts[streamed..]),
            want,
            "kernel {} len {} cuts {cuts:?} streamed {streamed}",
            kernel.name(),
            data.len()
        );
    }

    /// Every length in `lens` on every kernel, four random splits each.
    fn check_lengths(test: &str, lens: std::ops::RangeInclusive<usize>, seed: u64) {
        let mut rng = DetRng::seed_from_u64(seed);
        let kernels = kernels_under_test(test);
        for len in lens {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            for &kernel in &kernels {
                for _ in 0..4 {
                    check_random_splits(kernel, &data, &mut rng);
                }
            }
        }
    }

    #[test]
    fn finishing_routine_matches_the_fips_reference() {
        // 0..=300 meets the 55/56 (one or two padded blocks) and 119/120
        // (the whole rest fits the tail, or whole blocks stream first)
        // boundaries from every buffered length.
        check_lengths(
            "finishing_routine_matches_the_fips_reference",
            0..=300,
            0x6669_7073,
        );
    }

    #[test]
    #[ignore = "long form: cargo test -p lrs-crypto --release -- --ignored"]
    fn finishing_routine_matches_the_fips_reference_long() {
        check_lengths(
            "finishing_routine_matches_the_fips_reference_long",
            0..=2048,
            0x6c6f_6e67,
        );
    }

    #[test]
    fn public_entry_points_match_the_fips_reference() {
        let mut rng = DetRng::seed_from_u64(0x656e_7472);
        for len in [0usize, 1, 55, 56, 63, 64, 78, 119, 120, 128, 300] {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let want = reference_sha256(&[&data]);
            assert_eq!(sha256(&data), want, "len {len}");
            let (a, b) = data.split_at(len / 2);
            assert_eq!(sha256_concat(&[a, b]), want, "len {len}");
            let mut h = Sha256::new();
            h.update(&data);
            assert_eq!(h.finalize(), want, "len {len}");
        }
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_all_split_points() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let whole = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn concat_matches_oneshot() {
        let a = b"page ";
        let b = b"hash ";
        let c = b"images";
        let mut joined = Vec::new();
        joined.extend_from_slice(a);
        joined.extend_from_slice(b);
        joined.extend_from_slice(c);
        assert_eq!(sha256_concat(&[a, b, c]), sha256(&joined));
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn shani_compress_matches_scalar_block_by_block() {
        if !ShaKernel::ShaNi.is_supported() {
            eprintln!("shani_compress_matches_scalar_block_by_block: skipped, CPU lacks `sha`");
            return;
        }
        let mut rng = lrs_rng::DetRng::seed_from_u64(0x7368_616e);
        for _ in 0..500 {
            // Arbitrary chaining states, not only ones reachable from H0.
            let start: [u32; 8] = std::array::from_fn(|_| rng.gen());
            let mut blocks = vec![0u8; 64 * rng.gen_range(0usize..5)];
            rng.fill_bytes(&mut blocks);
            let mut want = start;
            for block in blocks.chunks_exact(64) {
                compress_block(&mut want, block.try_into().unwrap());
            }
            let mut got = start;
            // SAFETY: `ShaNi.is_supported()` was checked above.
            unsafe { shani::compress(&mut got, &blocks) };
            assert_eq!(got, want, "{} blocks", blocks.len() / 64);
        }
    }

    #[test]
    fn multi_block_lengths() {
        // Exercise every length near block boundaries.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129, 200] {
            let data = vec![0xa5u8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for byte in &data {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
