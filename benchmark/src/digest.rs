//! FNV-1a over the simulated outputs a run reports. Floats are hashed
//! by bit pattern: a simulator-only change must leave every simulated
//! statistic identical, not merely close.

#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        for b in s.bytes() {
            self.u64(b as u64);
        }
        self.u64(s.len() as u64)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
