//! A multiplicative hasher for the small integer keys of the synthesis
//! kernels.
//!
//! The structural hash, the resynthesis plan memo, the mapper's match
//! memo and fraig's class table are looked up millions of times per
//! recipe with keys that are a few machine words (literal pairs, truth
//! tables, signature hashes). SipHash's DoS resistance buys nothing there
//! and costs most of a lookup: the keys are literals the graph assigns in
//! creation order and truth tables and signatures the kernels derive,
//! never raw outside input. None of these tables is ever iterated, so the
//! hasher cannot affect any output.

use std::hash::{BuildHasherDefault, Hasher};

/// Fx-style multiply-rotate hasher over machine words.
#[derive(Clone, Copy, Default)]
pub struct FastHasher(u64);

/// `BuildHasher` for [`FastHasher`]-keyed `HashMap`s.
pub type FastBuild = BuildHasherDefault<FastHasher>;

const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        // The product's entropy sits in the high bits; hash tables index
        // buckets with the low ones.
        self.0.rotate_left(26)
    }
}
