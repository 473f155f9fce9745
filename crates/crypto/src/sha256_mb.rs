//! Multi-buffer SHA-256: hash many independent messages in lockstep.
//!
//! SHA-256's compression function is one long dependency chain — a
//! single message can't use more than a fraction of a modern core. But
//! LR-Seluge's hot paths hash *batches* of independent messages: the `n`
//! per-page packet hashes computed during preprocessing, Merkle tree
//! levels, and digest-cache warming. Independent messages have
//! independent chains, so interleaving 4–8 of them fills the pipeline
//! (scalar instruction-level parallelism) or the vector lanes (AVX2:
//! eight 32-bit states per `ymm` register).
//!
//! [`sha256_batch`] / [`sha256_batch_parts`] bucket the input by padded
//! block count so grouped lanes stay in lockstep, run full groups
//! through the selected kernel's lanes, and fall back to the sequential
//! [`crate::sha256::Sha256`] hasher for remainders (under `shani`, for
//! every message). Every kernel
//! computes exact FIPS 180-4 SHA-256, so results are bit-identical to
//! [`crate::sha256::sha256`] — pinned by an equivalence property in
//! `tests/crypto_props.rs`.
//!
//! Kernel selection mirrors the GF(256) layer: best supported by
//! default, overridable with `LRS_SHA_KERNEL` for testing. Each
//! [`ShaKernel`] name is a complete configuration, covering the
//! one-message-at-a-time hasher as well as batches:
//!
//! | name | single stream ([`Sha256`], HMAC, Merkle paths, puzzles) | full batch groups | batch remainders |
//! |---|---|---|---|
//! | `sequential` | scalar | — | scalar |
//! | `ilp4` | scalar | 4-lane scalar ILP | scalar |
//! | `avx2` | scalar | 8-lane AVX2, then 4-lane ILP | scalar |
//! | `shani` | SHA-NI | SHA-NI | SHA-NI |
//!
//! Under `shani` every message of a batch goes through the SHA-NI
//! hasher one at a time: for the short messages batches carry, one
//! SHA-NI call per message beats both lane kernels.

use crate::hash::Digest;
use crate::sha256::{digest_of, Sha256, H0, K};
use std::sync::OnceLock;

/// One of the interchangeable batch-hash implementations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShaKernel {
    /// One message at a time through the incremental hasher.
    Sequential,
    /// Four interleaved message schedules on scalar registers (ILP).
    Ilp4,
    /// Eight lane-parallel message schedules on AVX2 registers.
    Avx2,
    /// The x86 SHA extensions for every hash, batched messages one at
    /// a time.
    ShaNi,
}

impl ShaKernel {
    /// All kernels, slowest first.
    pub const ALL: [ShaKernel; 4] = [
        ShaKernel::Sequential,
        ShaKernel::Ilp4,
        ShaKernel::Avx2,
        ShaKernel::ShaNi,
    ];

    /// The kernel's name as used by `LRS_SHA_KERNEL`.
    pub fn name(self) -> &'static str {
        match self {
            ShaKernel::Sequential => "sequential",
            ShaKernel::Ilp4 => "ilp4",
            ShaKernel::Avx2 => "avx2",
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
            ShaKernel::Sequential | ShaKernel::Ilp4 => true,
            #[cfg(target_arch = "x86_64")]
            ShaKernel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            ShaKernel::ShaNi => {
                is_x86_feature_detected!("sha")
                    && is_x86_feature_detected!("ssse3")
                    && is_x86_feature_detected!("sse4.1")
            }
            #[cfg(not(target_arch = "x86_64"))]
            ShaKernel::Avx2 | ShaKernel::ShaNi => false,
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

/// SHA-256 of every message in `msgs`, in input order.
///
/// Bit-identical to mapping [`sha256`](crate::sha256::sha256) over the
/// batch, but interleaves independent messages through the widest
/// available kernel.
pub fn sha256_batch(msgs: &[&[u8]]) -> Vec<Digest> {
    let parts: Vec<[&[u8]; 1]> = msgs.iter().map(|m| [*m]).collect();
    sha256_batch_parts(&parts)
}

/// SHA-256 of every multi-part message in `msgs`, in input order. Each
/// message is hashed as the concatenation of its parts without
/// materializing the concatenation — the batched counterpart of
/// [`sha256_concat`](crate::sha256::sha256_concat).
pub fn sha256_batch_parts<'a, M: AsRef<[&'a [u8]]>>(msgs: &[M]) -> Vec<Digest> {
    sha256_batch_parts_with(ShaKernel::active(), msgs)
}

/// [`sha256_batch_parts`] with an explicit kernel (the property suite
/// and the microbenchmarks pin each path through this entry point).
///
/// # Panics
///
/// Panics if the CPU cannot run `kernel`.
pub fn sha256_batch_parts_with<'a, M: AsRef<[&'a [u8]]>>(
    kernel: ShaKernel,
    msgs: &[M],
) -> Vec<Digest> {
    // One message through `kernel`'s single-stream hasher (which also
    // checks that the CPU supports `kernel`).
    let single = Sha256::with_kernel(kernel);
    let one = |parts: &[&[u8]]| single.clone().finalize_parts(parts);
    let mut out = vec![Digest([0u8; 32]); msgs.len()];
    if msgs.is_empty() {
        return out;
    }
    if matches!(kernel, ShaKernel::Sequential | ShaKernel::ShaNi) {
        for (d, m) in out.iter_mut().zip(msgs) {
            *d = one(m.as_ref());
        }
        return out;
    }

    // Lockstep lanes must compress the same number of blocks, so bucket
    // the batch by padded block count. `sort_unstable` on
    // (blocks, index) groups equal-length messages while keeping the
    // output order fixed by the index stored alongside.
    let mut order: Vec<(u64, usize)> = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let len: u64 = m.as_ref().iter().map(|p| p.len() as u64).sum();
            ((len + 8) / 64 + 1, i)
        })
        .collect();
    order.sort_unstable();

    let mut group = 0;
    while group < order.len() {
        let blocks = order[group].0;
        let mut end = group;
        while end < order.len() && order[end].0 == blocks {
            end += 1;
        }
        let bucket = &order[group..end];
        let mut rest = bucket;
        // Full-width groups through the wide kernel; leftovers drop to
        // the next narrower width, then to the single-stream hasher.
        #[cfg(target_arch = "x86_64")]
        if kernel == ShaKernel::Avx2 {
            let mut chunks = rest.chunks_exact(8);
            for chunk in chunks.by_ref() {
                let lanes: [&[&[u8]]; 8] = std::array::from_fn(|l| msgs[chunk[l].1].as_ref());
                // SAFETY: `Sha256::with_kernel` above asserted
                // `ShaKernel::Avx2.is_supported()`, i.e.
                // `is_x86_feature_detected!("avx2")`.
                let digests = unsafe { avx2::digest8(&lanes, blocks) };
                for (l, d) in digests.into_iter().enumerate() {
                    out[chunk[l].1] = d;
                }
            }
            rest = chunks.remainder();
        }
        let mut chunks = rest.chunks_exact(4);
        for chunk in chunks.by_ref() {
            let lanes: [&[&[u8]]; 4] = std::array::from_fn(|l| msgs[chunk[l].1].as_ref());
            let digests = digest4_ilp(&lanes, blocks);
            for (l, d) in digests.into_iter().enumerate() {
                out[chunk[l].1] = d;
            }
        }
        rest = chunks.remainder();
        for &(_, i) in rest {
            out[i] = one(msgs[i].as_ref());
        }
        group = end;
    }
    out
}

/// Streams one message's padded block sequence without concatenating its
/// parts: message bytes, then `0x80`, zeros, and the big-endian bit
/// length, 64 bytes at a time.
struct BlockStream<'a> {
    parts: &'a [&'a [u8]],
    part: usize,
    offset: usize,
    bit_len: u64,
    pad_done: bool,
    emitted: u64,
    nblocks: u64,
}

impl<'a> BlockStream<'a> {
    fn new(parts: &'a [&'a [u8]]) -> Self {
        let total: u64 = parts.iter().map(|p| p.len() as u64).sum();
        BlockStream {
            parts,
            part: 0,
            offset: 0,
            bit_len: total.wrapping_mul(8),
            pad_done: false,
            emitted: 0,
            nblocks: (total + 8) / 64 + 1,
        }
    }

    /// Writes the next padded block into `out`. Must be called exactly
    /// `nblocks` times.
    fn next_block(&mut self, out: &mut [u8; 64]) {
        debug_assert!(self.emitted < self.nblocks, "stream exhausted");
        let mut filled = 0;
        while filled < 64 && self.part < self.parts.len() {
            let p = self.parts[self.part];
            let take = (p.len() - self.offset).min(64 - filled);
            out[filled..filled + take].copy_from_slice(&p[self.offset..self.offset + take]);
            filled += take;
            self.offset += take;
            if self.offset == p.len() {
                self.part += 1;
                self.offset = 0;
            }
        }
        if filled < 64 {
            if !self.pad_done {
                out[filled] = 0x80;
                filled += 1;
                self.pad_done = true;
            }
            out[filled..].fill(0);
        }
        self.emitted += 1;
        if self.emitted == self.nblocks {
            out[56..64].copy_from_slice(&self.bit_len.to_be_bytes());
        }
    }
}

/// Four-lane scalar kernel: the four message schedules and round states
/// live in fixed-size arrays indexed by a lane loop the compiler fully
/// unrolls, so the four independent dependency chains interleave in the
/// pipeline.
fn digest4_ilp(lanes: &[&[&[u8]]; 4], nblocks: u64) -> [Digest; 4] {
    let mut streams: [BlockStream; 4] = std::array::from_fn(|l| BlockStream::new(lanes[l]));
    let mut states = [H0; 4];
    let mut blocks = [[0u8; 64]; 4];
    for _ in 0..nblocks {
        for l in 0..4 {
            debug_assert_eq!(streams[l].nblocks, nblocks, "lanes must be in lockstep");
            streams[l].next_block(&mut blocks[l]);
        }
        compress4(&mut states, &blocks);
    }
    std::array::from_fn(|l| digest_of(&states[l]))
}

fn compress4(states: &mut [[u32; 8]; 4], blocks: &[[u8; 64]; 4]) {
    let mut w = [[0u32; 64]; 4];
    for l in 0..4 {
        for (i, chunk) in blocks[l].chunks_exact(4).enumerate() {
            w[l][i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
    }
    for t in 16..64 {
        for lw in w.iter_mut() {
            let s0 = lw[t - 15].rotate_right(7) ^ lw[t - 15].rotate_right(18) ^ (lw[t - 15] >> 3);
            let s1 = lw[t - 2].rotate_right(17) ^ lw[t - 2].rotate_right(19) ^ (lw[t - 2] >> 10);
            lw[t] = lw[t - 16]
                .wrapping_add(s0)
                .wrapping_add(lw[t - 7])
                .wrapping_add(s1);
        }
    }
    let mut v = *states;
    for t in 0..64 {
        for l in 0..4 {
            let [a, b, c, d, e, f, g, h] = v[l];
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[l][t]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            v[l] = [t1.wrapping_add(t2), a, b, c, d.wrapping_add(t1), e, f, g];
        }
    }
    for l in 0..4 {
        for j in 0..8 {
            states[l][j] = states[l][j].wrapping_add(v[l][j]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::BlockStream;
    use crate::hash::Digest;
    use crate::sha256::{digest_of, H0, K};
    use core::arch::x86_64::*;

    /// `x >>> r` on eight packed u32 lanes.
    macro_rules! rotr {
        ($x:expr, $r:literal) => {
            _mm256_or_si256(
                _mm256_srli_epi32::<$r>($x),
                _mm256_slli_epi32::<{ 32 - $r }>($x),
            )
        };
    }

    /// Eight-lane AVX2 kernel: vector register `j` holds working
    /// variable `j` (or message word `t`) for all eight messages at
    /// once, so each `vpaddd`/`vpxor` advances eight hashes.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn digest8(lanes: &[&[&[u8]]; 8], nblocks: u64) -> [Digest; 8] {
        let mut streams: [BlockStream; 8] = std::array::from_fn(|l| BlockStream::new(lanes[l]));
        let mut state: [__m256i; 8] = std::array::from_fn(|j| _mm256_set1_epi32(H0[j] as i32));
        let mut blocks = [[0u8; 64]; 8];
        for _ in 0..nblocks {
            for l in 0..8 {
                debug_assert_eq!(streams[l].nblocks, nblocks, "lanes must be in lockstep");
                streams[l].next_block(&mut blocks[l]);
            }
            compress8(&mut state, &blocks);
        }
        let mut out = [[0u32; 8]; 8]; // out[j][l] = word j of lane l
        for j in 0..8 {
            _mm256_storeu_si256(out[j].as_mut_ptr() as *mut __m256i, state[j]);
        }
        std::array::from_fn(|l| {
            let words: [u32; 8] = std::array::from_fn(|j| out[j][l]);
            digest_of(&words)
        })
    }

    #[target_feature(enable = "avx2")]
    unsafe fn compress8(state: &mut [__m256i; 8], blocks: &[[u8; 64]; 8]) {
        // Message schedule: w[t] packs word t of all eight blocks.
        let mut w = [_mm256_setzero_si256(); 64];
        for (t, wt) in w.iter_mut().take(16).enumerate() {
            let word = |l: usize| {
                let c = &blocks[l][4 * t..4 * t + 4];
                u32::from_be_bytes([c[0], c[1], c[2], c[3]]) as i32
            };
            *wt = _mm256_setr_epi32(
                word(0),
                word(1),
                word(2),
                word(3),
                word(4),
                word(5),
                word(6),
                word(7),
            );
        }
        for t in 16..64 {
            let x15 = w[t - 15];
            let s0 = _mm256_xor_si256(
                _mm256_xor_si256(rotr!(x15, 7), rotr!(x15, 18)),
                _mm256_srli_epi32::<3>(x15),
            );
            let x2 = w[t - 2];
            let s1 = _mm256_xor_si256(
                _mm256_xor_si256(rotr!(x2, 17), rotr!(x2, 19)),
                _mm256_srli_epi32::<10>(x2),
            );
            w[t] = _mm256_add_epi32(
                _mm256_add_epi32(w[t - 16], s0),
                _mm256_add_epi32(w[t - 7], s1),
            );
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for (t, &wt) in w.iter().enumerate() {
            let big_s1 =
                _mm256_xor_si256(_mm256_xor_si256(rotr!(e, 6), rotr!(e, 11)), rotr!(e, 25));
            // ch = (e & f) ^ (!e & g); `andnot(a, b)` computes !a & b.
            let ch = _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
            let t1 = _mm256_add_epi32(
                _mm256_add_epi32(h, big_s1),
                _mm256_add_epi32(_mm256_add_epi32(ch, _mm256_set1_epi32(K[t] as i32)), wt),
            );
            let big_s0 =
                _mm256_xor_si256(_mm256_xor_si256(rotr!(a, 2), rotr!(a, 13)), rotr!(a, 22));
            let maj = _mm256_xor_si256(
                _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
                _mm256_and_si256(b, c),
            );
            let t2 = _mm256_add_epi32(big_s0, maj);
            h = g;
            g = f;
            f = e;
            e = _mm256_add_epi32(d, t1);
            d = c;
            c = b;
            b = a;
            a = _mm256_add_epi32(t1, t2);
        }
        state[0] = _mm256_add_epi32(state[0], a);
        state[1] = _mm256_add_epi32(state[1], b);
        state[2] = _mm256_add_epi32(state[2], c);
        state[3] = _mm256_add_epi32(state[3], d);
        state[4] = _mm256_add_epi32(state[4], e);
        state[5] = _mm256_add_epi32(state[5], f);
        state[6] = _mm256_add_epi32(state[6], g);
        state[7] = _mm256_add_epi32(state[7], h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{compress_block, sha256};

    #[test]
    fn names_roundtrip() {
        for k in ShaKernel::ALL {
            assert_eq!(ShaKernel::from_name(k.name()), Some(k));
        }
        assert_eq!(ShaKernel::from_name("sha-ni"), None);
    }

    #[test]
    fn sequential_and_ilp4_always_supported() {
        assert!(ShaKernel::Sequential.is_supported());
        assert!(ShaKernel::Ilp4.is_supported());
        assert!(ShaKernel::active().is_supported());
    }

    #[test]
    fn block_stream_matches_incremental_padding() {
        // The streamed padded blocks must hash (via the scalar
        // compression) to exactly what Sha256 produces.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128, 257] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let (head, tail) = data.split_at(len / 3);
            let parts: [&[u8]; 2] = [head, tail];
            let mut stream = BlockStream::new(&parts);
            let mut state = H0;
            let mut block = [0u8; 64];
            for _ in 0..stream.nblocks {
                stream.next_block(&mut block);
                compress_block(&mut state, &block);
            }
            assert_eq!(digest_of(&state), sha256(&data), "len={len}");
        }
    }

    #[test]
    fn every_supported_kernel_matches_sequential() {
        // Mixed lengths force bucketing, partial groups, and multi-block
        // lane streams at once.
        let msgs: Vec<Vec<u8>> = (0..23usize)
            .map(|i| (0..(i * 37) % 200).map(|j| (i * 251 + j) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let expect: Vec<Digest> = refs.iter().map(|m| sha256(m)).collect();
        for k in ShaKernel::supported() {
            let wrapped: Vec<[&[u8]; 1]> = refs.iter().map(|m| [*m]).collect();
            assert_eq!(
                sha256_batch_parts_with(k, &wrapped),
                expect,
                "kernel {}",
                k.name()
            );
        }
        assert_eq!(sha256_batch(&refs), expect);
    }

    #[test]
    fn empty_batch() {
        assert!(sha256_batch(&[]).is_empty());
    }
}
