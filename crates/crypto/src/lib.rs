//! Cryptographic substrate for the 2LDAG protocol.
//!
//! The 2LDAG paper (ICDCS 2023) assumes a 256-bit hash function `H(.)`, a Merkle
//! tree root function `M(.)`, a public-key signature scheme `E(., sk)` / `D(., pk)`,
//! and a proof-of-work style difficulty puzzle used to rate-limit block generation
//! (Eq. 5). This crate implements all four from scratch so the workspace has no
//! external cryptographic dependencies:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4), validated against NIST vectors: a
//!   pure-Rust compression function, plus an x86-64 SHA-extension kernel
//!   picked at run time on CPUs that have it.
//! * [`merkle`] — a binary Merkle tree with inclusion proofs over block bodies.
//! * [`schnorr`] — Schnorr signatures over a 64-bit safe-prime field. This is
//!   **simulation-grade**: structurally a real Schnorr scheme (key generation,
//!   deterministic nonces, batch-verifiable equations) but with a deliberately small
//!   field, so it must never be used outside simulations. The 2LDAG overhead model
//!   accounts signatures at the paper's `f_s = 256` bits regardless.
//! * [`puzzle`] — leading-zero-bit difficulty puzzles (`H(fields ‖ nonce) ≤ ρ`).
//!
//! # Example
//!
//! ```
//! use tldag_crypto::{sha256::sha256, schnorr::KeyPair, puzzle};
//!
//! let digest = sha256(b"sensor reading");
//! let kp = KeyPair::from_seed(7);
//! let sig = kp.sign(digest.as_bytes());
//! assert!(kp.public().verify(digest.as_bytes(), &sig));
//!
//! let nonce = puzzle::solve(b"block header", 8, 0);
//! assert!(puzzle::check(&puzzle::puzzle_digest(b"block header", nonce), 8));
//! ```

// The SHA-256 hardware kernel (`sha256/x86.rs`) is the one leaf module that
// opts back in with its own `allow(unsafe_code)`; it is only entered after a
// run-time CPU feature check, and no other module can grow unsafe blocks
// without tripping this lint.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod hex;
pub mod merkle;
pub mod puzzle;
pub mod schnorr;
pub mod sha256;

pub use digest::Digest;
pub use merkle::{MerkleProof, MerkleTree};
pub use schnorr::{KeyPair, PublicKey, SecretKey, Signature};
