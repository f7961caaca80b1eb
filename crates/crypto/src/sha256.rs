//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Streaming [`Sha256`] hasher plus a one-shot [`sha256`] helper. The
//! compress function has two kernels. On x86-64 CPUs with the SHA
//! extensions (`sha`, `ssse3` and `sse4.1`, detected at run time on every
//! call) the hardware kernel in the private `shani` module runs; on every
//! other CPU the portable kernel does. Nothing but the CPU selects the
//! kernel. The portable kernel is also the reference: the test module
//! holds the hardware one to it state for state, and runs both through the
//! NIST/FIPS example vectors and the standard million-`a` test.

/// First 32 bits of the fractional parts of the cube roots of the first 64
/// primes (FIPS 180-4 §4.2.2).
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

/// Initial hash value (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partially filled block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, std::slice::from_ref(&self.buf));
                self.buf_len = 0;
            }
        }
        // Every whole block in one kernel call, so the hardware kernel
        // loads and stores the state once per run, not once per block.
        let (blocks, tail) = rest.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
        self
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, then zeros up to 56 bytes into a block (one
        // `update`, compressing a full block first if needed), then the
        // 64-bit big-endian length.
        let mut padding = [0u8; 64];
        padding[0] = 0x80;
        let zeros = (119 - self.buf_len) % 64;
        self.update(&padding[..1 + zeros]);
        // Manual write of the length so total_len isn't double-counted.
        let mut block = self.buf;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &[block]);
        digest(&self.state)
    }
}

/// The big-endian bytes of a final state.
fn digest(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(state) {
        *bytes = word.to_be_bytes();
    }
    out
}

/// Run the compress function over `blocks` in order: on the CPU's SHA
/// extensions where it has them, on the portable kernel everywhere else.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if shani::compress(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// The portable compress function (FIPS 180-4 §6.2.2), one block at a
/// time: the fallback on CPUs without the SHA extensions, and the
/// reference the tests hold the hardware kernel to.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
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
}

/// The compress function on the x86-64 SHA extensions. All of this
/// crate's `unsafe` is in this module: `compress` enters the kernel only
/// after detecting, on the same call, every target feature the kernel is
/// compiled for.
#[cfg(target_arch = "x86_64")]
mod shani {
    #![deny(unsafe_op_in_unsafe_fn)]

    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
        _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
    };

    /// Compress `blocks` into `state` if this CPU has the SHA extensions.
    /// Returns false, with `state` untouched, if it lacks any of them.
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
        if !(is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        {
            return false;
        }
        // SAFETY: `is_x86_feature_detected!` has just found sha, ssse3 and
        // sse4.1, the target features `kernel` is compiled for.
        unsafe { kernel(state, blocks) };
        true
    }

    /// The kernel: it loads `state` once, runs every block through the
    /// rounds and message-schedule instructions, and stores it once.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha`, `ssse3` and `sse4.1` target
    /// features.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn kernel(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // `pshufb` mask that byte-swaps each 32-bit lane: the message
        // words are big-endian.
        let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // The rounds instruction holds the working variables as ABEF and
        // CDGH (A and C in the top lane).
        let dcba = lanes(state[0], state[1], state[2], state[3]);
        let hgfe = lanes(state[4], state[5], state[6], state[7]);
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: `p` points at a 64-byte block, so the unaligned
            // 16-byte loads at `p`..=`p + 3` read only its bytes.
            // `_mm_loadu_si128` needs sse2, which every x86-64 CPU has, so
            // it relies on no detection beyond the one that let us in here.
            let raw = unsafe {
                [
                    _mm_loadu_si128(p),
                    _mm_loadu_si128(p.add(1)),
                    _mm_loadu_si128(p.add(2)),
                    _mm_loadu_si128(p.add(3)),
                ]
            };
            // W[4t..4t + 4] for the last four groups t, in a ring: group t
            // sits in slot t % 4.
            let mut w = [
                _mm_shuffle_epi8(raw[0], swap),
                _mm_shuffle_epi8(raw[1], swap),
                _mm_shuffle_epi8(raw[2], swap),
                _mm_shuffle_epi8(raw[3], swap),
            ];
            for t in 0..16 {
                if t >= 4 {
                    // FIPS 180-4 §6.2.2 step 1 for four words W[i]: msg1
                    // gives W[i - 16] + σ0(W[i - 15]), the `alignr` brings
                    // in W[i - 7], msg2 adds σ1(W[i - 2]).
                    let sigma0 = _mm_sha256msg1_epu32(w[t % 4], w[(t + 1) % 4]);
                    let w7 = _mm_alignr_epi8(w[(t + 3) % 4], w[(t + 2) % 4], 4);
                    w[t % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w7), w[(t + 3) % 4]);
                }
                let k = lanes(K[4 * t], K[4 * t + 1], K[4 * t + 2], K[4 * t + 3]);
                let wk = _mm_add_epi32(w[t % 4], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        *state = [
            _mm_extract_epi32(dcba, 0) as u32,
            _mm_extract_epi32(dcba, 1) as u32,
            _mm_extract_epi32(dcba, 2) as u32,
            _mm_extract_epi32(dcba, 3) as u32,
            _mm_extract_epi32(hgfe, 0) as u32,
            _mm_extract_epi32(hgfe, 1) as u32,
            _mm_extract_epi32(hgfe, 2) as u32,
            _mm_extract_epi32(hgfe, 3) as u32,
        ];
    }

    /// A vector of four words, `w0` in the lowest lane.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn lanes(w0: u32, w1: u32, w2: u32, w3: u32) -> __m128i {
        _mm_set_epi32(w3 as i32, w2 as i32, w1 as i32, w0 as i32)
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `data` padded as FIPS 180-4 §5.1.1 prescribes, as whole blocks:
    /// the padding is written here, apart from `Sha256::finalize`'s.
    fn padded(data: &[u8]) -> Vec<[u8; 64]> {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        msg.as_chunks::<64>().0.to_vec()
    }

    /// `data`'s digest on the portable kernel alone.
    fn portable_sha256(data: &[u8]) -> [u8; 32] {
        let mut state = H0;
        compress_portable(&mut state, &padded(data));
        digest(&state)
    }

    /// Run the hardware kernel. Where this CPU cannot, say so on stderr
    /// and return false, with `state` untouched.
    fn hardware(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
        #[cfg(target_arch = "x86_64")]
        let ran = shani::compress(state, blocks);
        #[cfg(not(target_arch = "x86_64"))]
        let ran = {
            let _ = (state, blocks);
            false
        };
        if !ran {
            eprintln!("this CPU lacks the SHA extensions: the hardware kernel did not run");
        }
        ran
    }

    /// `data`'s digest on the hardware kernel alone, or `None` where this
    /// CPU cannot run it.
    fn hardware_sha256(data: &[u8]) -> Option<[u8; 32]> {
        let mut state = H0;
        hardware(&mut state, &padded(data)).then(|| digest(&state))
    }

    /// `data` hashes to `want` through the streaming hasher, the portable
    /// kernel alone and, where the CPU has it, the hardware kernel alone.
    fn assert_digest(data: &[u8], want: &str) {
        assert_eq!(hex(&sha256(data)), want, "streaming hasher");
        assert_eq!(hex(&portable_sha256(data)), want, "portable kernel");
        if let Some(d) = hardware_sha256(data) {
            assert_eq!(hex(&d), want, "hardware kernel");
        }
    }

    #[test]
    fn fips_vector_abc() {
        assert_digest(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_digest(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn fips_vector_two_block() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        let want = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(&h.finalize()), want);
        assert_digest(&vec![b'a'; 1_000_000], want);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn length_boundary_padding() {
        // Messages of exactly 55, 56, 64 bytes hit all padding branches.
        for len in [55usize, 56, 57, 63, 64, 119, 120] {
            let data = vec![0x5a; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    proptest! {
        #[test]
        fn hardware_and_portable_kernels_leave_the_same_state(
            state in prop::array::uniform8(any::<u32>()),
            count in 1usize..=8,
            bytes in prop::collection::vec(any::<u8>(), 8 * 64),
        ) {
            let blocks = &bytes.as_chunks::<64>().0[..count];
            let mut portable = state;
            compress_portable(&mut portable, blocks);
            let mut hardware_state = state;
            if hardware(&mut hardware_state, blocks) {
                prop_assert_eq!(hardware_state, portable);
            }
        }

        #[test]
        fn streaming_equals_a_portable_one_shot_at_every_split(
            data in prop::collection::vec(any::<u8>(), 0..=300usize),
        ) {
            let want = portable_sha256(&data);
            for split in 0..=data.len() {
                let mut h = Sha256::new();
                h.update(&data[..split]).update(&data[split..]);
                prop_assert_eq!(h.finalize(), want, "split at {}", split);
            }
        }
    }
}
