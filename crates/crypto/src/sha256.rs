//! SHA-256 (FIPS 180-4).
//!
//! This is the `H(.)` of the 2LDAG paper: every block-header digest, Merkle
//! node, puzzle evaluation, and signature challenge in the workspace flows
//! through this implementation. It is validated against the NIST short/long
//! message vectors in the unit tests below.
//!
//! # Which compression path runs
//!
//! Every full 64-byte block goes through one dispatch point that picks, per
//! call, between two compression functions with bit-identical output:
//!
//! * on x86-64 CPUs with the SHA extensions (`sha`, plus `sse2`, `ssse3`,
//!   `sse4.1`), detected at run time with `is_x86_feature_detected!`, a
//!   hardware kernel (`sha256/x86.rs`, the crate's only `unsafe` code);
//! * everywhere else — other x86-64 CPUs and every other architecture — the
//!   portable pure-Rust compression function, which the unit tests also use
//!   as the reference the hardware kernel is checked against.
//!
//! [`Sha256::update`] hands all full blocks of one call to the chosen path
//! at once, and [`Sha256::finalize`] pads in place and compresses once or
//! twice. No configuration selects the path; digests never depend on it.

use crate::digest::Digest;

#[cfg(target_arch = "x86_64")]
mod x86;

/// SHA-256 round constants (first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes).
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

/// Initial hash values (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use tldag_crypto::sha256::{sha256, Sha256};
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffer_len > 0 {
            let take = rest.len().min(64 - self.buffer_len);
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&rest[..take]);
            self.buffer_len += take;
            rest = &rest[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer_len = 0;
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finishes the hash and returns the digest, consuming the hasher.
    ///
    /// The `0x80` marker, the zero padding and the 64-bit big-endian bit
    /// length are written into the block buffer in place: one compression
    /// when at most 55 bytes are buffered, two otherwise.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        let used = self.buffer_len;
        self.buffer[used] = 0x80;
        self.buffer[used + 1..].fill(0);
        if used >= 56 {
            // No room for the length: this block carries only the marker.
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer.fill(0);
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));

        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest::from_bytes(out)
    }
}

/// Compresses `blocks` into `state` in order, on the hardware kernel when
/// the CPU has one and with the portable [`compress`] otherwise.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if x86::compress_blocks(state, blocks) {
        return;
    }
    for block in blocks {
        compress(state, block);
    }
}

/// The portable SHA-256 compression function: absorbs one 64-byte block
/// into `state`. The fallback on CPUs without a hardware kernel and the
/// reference the kernel is tested against.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("chunks_exact(4)"));
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
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Example
///
/// ```
/// use tldag_crypto::sha256::sha256;
///
/// let d = sha256(b"abc");
/// assert_eq!(
///     d.to_string(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// SHA-256 over the concatenation of two byte slices, a frequent pattern when
/// hashing `(parent_digest ‖ child_bytes)` pairs.
pub fn sha256_pair(a: &[u8], b: &[u8]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(a);
    hasher.update(b);
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_digest(s: &str) -> String {
        sha256(s.as_bytes()).to_string()
    }

    #[test]
    fn nist_empty_message() {
        assert_eq!(
            hex_digest(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex_digest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block_message() {
        assert_eq!(
            hex_digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bit_message() {
        assert_eq!(
            hex_digest(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                 hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            ),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn nist_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_string(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// Lengths around every padding boundary (55/56 decide one or two
    /// final compressions, 63/64 a full buffered block) over one, two and
    /// several blocks.
    const BOUNDARY_LENGTHS: [usize; 19] = [
        0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 121, 127, 128, 129, 183, 184, 191, 192, 300,
    ];

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        for len in BOUNDARY_LENGTHS {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let expect = sha256(&data);
            // Byte at a time: every block goes through the buffer.
            let mut bytewise = Sha256::new();
            for byte in &data {
                bytewise.update(std::slice::from_ref(byte));
            }
            assert_eq!(bytewise.finalize(), expect, "len {len} byte at a time");
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), expect, "len {len} split at {split}");
            }
        }
    }

    #[test]
    fn hardware_kernel_matches_portable_compress() {
        #[cfg(target_arch = "x86_64")]
        {
            if !x86::detected() {
                eprintln!(
                    "hardware_kernel_matches_portable_compress: this CPU lacks the SHA \
                     extensions; only the portable path was exercised"
                );
                return;
            }
            // xorshift64: seeded, dependency-free, same inputs every run.
            let mut seed = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = || {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed
            };
            for case in 0..200 {
                let mut state = [0u32; 8];
                for word in &mut state {
                    *word = next() as u32;
                }
                let count = 1 + case % 64;
                let blocks: Vec<[u8; 64]> = (0..count)
                    .map(|_| std::array::from_fn(|_| next() as u8))
                    .collect();
                let mut portable = state;
                for block in &blocks {
                    compress(&mut portable, block);
                }
                let mut hardware = state;
                assert!(x86::compress_blocks(&mut hardware, &blocks));
                assert_eq!(hardware, portable, "case {case}: {count} blocks");
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        eprintln!(
            "hardware_kernel_matches_portable_compress: no hardware kernel on this \
             architecture; only the portable path was exercised"
        );
    }

    #[test]
    fn lengths_spanning_padding_boundaries() {
        // 55, 56, 63, 64, 65 bytes hit every branch of the padding logic on
        // one block, 119, 120, 127, 128 the same branches after a full one.
        let known = [
            (
                55usize,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                65,
                "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
            (
                120,
                "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
            ),
            (
                127,
                "c57e9278af78fa3cab38667bef4ce29d783787a2f731d4e12200270f0c32320a",
            ),
            (
                128,
                "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e",
            ),
        ];
        for (len, expect) in known {
            let data = vec![b'a'; len];
            assert_eq!(sha256(&data).to_string(), expect, "len {len}");
        }
    }

    #[test]
    fn pair_equals_concatenation() {
        assert_eq!(sha256_pair(b"foo", b"bar"), sha256(b"foobar"));
    }
}
