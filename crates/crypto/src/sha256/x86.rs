//! SHA-256 compression on the x86-64 SHA extensions (`sha256rnds2`,
//! `sha256msg1`, `sha256msg2`).
//!
//! This is the crypto crate's single sanctioned `unsafe` island: the crate
//! root `deny`s unsafe everywhere else. The kernel is compiled for
//! `sha,sse2,ssse3,sse4.1` and only entered after
//! [`compress_blocks`] has confirmed all four features at run time, so a
//! CPU without them never executes an instruction it lacks; the caller then
//! falls back to the portable compression function.

#![allow(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

use super::K;
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8,
};

/// True when this CPU has every feature the kernel is compiled for.
pub(super) fn detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Compresses every block of `blocks` into `state`, in order, and returns
/// `true`; returns `false` with `state` untouched when the CPU lacks the
/// SHA extensions.
pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
    if !detected() {
        return false;
    }
    // SAFETY: `detected` confirmed at run time that this CPU supports
    // `sha`, `sse2`, `ssse3` and `sse4.1`, the kernel's whole feature set.
    unsafe { compress_blocks_sha(state, blocks) };
    true
}

/// The kernel. The state lives in two registers in the layout
/// `sha256rnds2` expects — `abef` (lanes F, E, B, A from lane 0 up) and
/// `cdgh` (H, G, D, C) — and is shuffled in and out once per call, not
/// once per block.
///
/// Calling it is `unsafe` outside code compiled for the same features: the
/// caller must have confirmed them at run time, as [`compress_blocks`]
/// does with [`detected`].
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_sha(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let quarters = block.as_chunks::<16>().0;
        // `w0..w3` hold message words 4q..4q+4 of the current round
        // quad's window; each group of four quads refills them in place.
        let mut w0 = load_be_words(&quarters[0]);
        let mut w1 = load_be_words(&quarters[1]);
        let mut w2 = load_be_words(&quarters[2]);
        let mut w3 = load_be_words(&quarters[3]);
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        for group in 1..4 {
            let quad = 4 * group;
            w0 = next_words(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, quad);
            w1 = next_words(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, quad + 1);
            w2 = next_words(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, quad + 2);
            w3 = next_words(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, quad + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|word| word as u32);
}

/// Loads 16 message bytes as four big-endian words, word 0 in lane 0.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
fn load_be_words(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is a live, readable 16-byte array and `loadu` has no
    // alignment requirement.
    let raw = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
    // Reverse the bytes within each 32-bit lane.
    let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    _mm_shuffle_epi8(raw, swap)
}

/// Message schedule: words `4q+16..4q+20` from the four preceding quads
/// `w[4q..4q+4]` (`v0`) through `w[4q+12..4q+16]` (`v3`).
#[inline]
#[target_feature(enable = "sha,sse2,ssse3")]
fn next_words(v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i) -> __m128i {
    // w[i] + σ0(w[i+1]), then + w[i+9], then + σ1(w[i+14]).
    let partial = _mm_sha256msg1_epu32(v0, v1);
    let partial = _mm_add_epi32(partial, _mm_alignr_epi8::<4>(v3, v2));
    _mm_sha256msg2_epu32(partial, v3)
}

/// Four rounds (round quad `quad`) over message words `words`.
#[inline]
#[target_feature(enable = "sha,sse2")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, words: __m128i, quad: usize) {
    let k = &K[4 * quad..4 * quad + 4];
    let wk = _mm_add_epi32(
        words,
        _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
    );
    // Each `sha256rnds2` runs two rounds on the low two lanes and returns
    // the new ABEF; the old ABEF is the new CDGH, hence the swap.
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
}
