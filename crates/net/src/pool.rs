//! Arena-allocated packet pool with generation-tagged `u32` handles.
//!
//! The wire path allocates and frees one `Packet` per hop; doing that
//! through the global allocator is the single biggest per-event cost at
//! fat-tree scale. The pool keeps every in-flight packet in one flat
//! `Vec<Packet>` and hands out [`PktHandle`]s — a 24-bit slot index plus
//! an 8-bit generation tag. Freed slots go on a free list and are reused
//! LIFO (hot in cache); the generation is bumped on every release so a
//! stale handle held past its packet's lifetime trips a `debug_assert`
//! instead of silently aliasing the slot's next tenant.
//!
//! Determinism: slot assignment depends only on the alloc/release
//! sequence, which is itself a pure function of the event order — so
//! handles are reproducible run-to-run. Checkpoints never persist
//! handles; the state layer resolves them to full `Packet`s on encode
//! and re-allocates on decode (see `state.rs`), which keeps the golden
//! format independent of pool layout.

use crate::types::Packet;

/// Handle to a pooled packet: low 24 bits slot index, high 8 bits
/// generation tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PktHandle(u32);

const SLOT_BITS: u32 = 24;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;

impl PktHandle {
    #[inline]
    fn new(slot: u32, generation: u8) -> Self {
        debug_assert!(slot <= SLOT_MASK, "packet pool exceeded 2^24 live slots");
        PktHandle(slot | ((generation as u32) << SLOT_BITS))
    }

    #[inline]
    pub fn slot(self) -> usize {
        (self.0 & SLOT_MASK) as usize
    }

    #[inline]
    pub fn generation(self) -> u8 {
        (self.0 >> SLOT_BITS) as u8
    }

    /// The handle as the word a packed event carries.
    #[inline]
    pub(crate) fn bits(self) -> u32 {
        self.0
    }

    /// The handle [`Self::bits`] came from.
    #[inline]
    pub(crate) fn from_bits(bits: u32) -> Self {
        PktHandle(bits)
    }
}

/// Free-list arena of [`Packet`]s. One per [`crate::Network`].
#[derive(Default, Debug)]
pub struct PacketPool {
    slots: Vec<Packet>,
    gens: Vec<u8>,
    free: Vec<u32>,
}

impl PacketPool {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        PacketPool {
            slots: Vec::with_capacity(n),
            gens: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
        }
    }

    /// Number of live (allocated, unreleased) packets.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slots ever grown to (live + free).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Store `pkt` and return its handle. Reuses a freed slot when one
    /// exists; grows the arena only when the free list is empty.
    #[inline]
    pub fn alloc(&mut self, pkt: Packet) -> PktHandle {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = pkt;
            PktHandle::new(slot, self.gens[slot as usize])
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(pkt);
            self.gens.push(0);
            PktHandle::new(slot, 0)
        }
    }

    /// Generation-tag aliasing check. A `debug_assert` in normal
    /// builds; the `pool-paranoid` feature compiles it into release
    /// builds too, so the CI equivalence legs (which run the sharded
    /// executor's cross-shard packet hand-off at `--release` speed)
    /// still trip on a stale handle instead of silently reading the
    /// slot's next tenant.
    #[inline]
    fn check(&self, h: PktHandle) {
        #[cfg(any(debug_assertions, feature = "pool-paranoid"))]
        assert_eq!(
            self.gens[h.slot()],
            h.generation(),
            "stale packet handle: slot {} is generation {}, handle is {}",
            h.slot(),
            self.gens[h.slot()],
            h.generation()
        );
        #[cfg(not(any(debug_assertions, feature = "pool-paranoid")))]
        let _ = h;
    }

    #[inline]
    pub fn get(&self, h: PktHandle) -> &Packet {
        self.check(h);
        &self.slots[h.slot()]
    }

    #[inline]
    pub fn get_mut(&mut self, h: PktHandle) -> &mut Packet {
        self.check(h);
        &mut self.slots[h.slot()]
    }

    /// Release `h`'s slot for reuse, returning the packet by value.
    /// Bumps the slot generation so the released handle goes stale.
    #[inline]
    pub fn release(&mut self, h: PktHandle) -> Packet {
        self.check(h);
        let slot = h.slot();
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot as u32);
        self.slots[slot]
    }

    /// Every live packet, in slot order. O(capacity): checkpoint-time
    /// only (the per-pair delivery marks are derived from it).
    pub fn live_packets(&self) -> impl Iterator<Item = &Packet> {
        let mut free = vec![false; self.slots.len()];
        for &s in &self.free {
            free[s as usize] = true;
        }
        self.slots
            .iter()
            .zip(free)
            .filter_map(|(p, free)| (!free).then_some(p))
    }

    /// Drop all live packets and reset generations. Used by
    /// checkpoint-restore, which re-allocates every persisted packet
    /// from scratch so restored handles are self-consistent.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.gens.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PacketKind;
    use ibsim_engine::time::Time;

    fn pkt(seq: u32) -> Packet {
        Packet {
            src: 0,
            dst: 1,
            bytes: 2048,
            vl: 0,
            sl: 0,
            kind: PacketKind::Data { class: 0 },
            fecn: false,
            seq,
            injected_at: Time::ZERO,
        }
    }

    #[test]
    fn alloc_get_release_roundtrip() {
        let mut p = PacketPool::new();
        let h = p.alloc(pkt(7));
        assert_eq!(p.get(h).seq, 7);
        assert_eq!(p.live(), 1);
        let out = p.release(h);
        assert_eq!(out.seq, 7);
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn freed_slot_is_reused_with_new_generation() {
        let mut p = PacketPool::new();
        let a = p.alloc(pkt(1));
        p.release(a);
        let b = p.alloc(pkt(2));
        assert_eq!(a.slot(), b.slot());
        assert_ne!(a.generation(), b.generation());
        assert_eq!(p.get(b).seq, 2);
        assert_eq!(p.capacity(), 1);
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "pool-paranoid"))]
    #[should_panic(expected = "stale packet handle")]
    fn stale_handle_trips_in_debug() {
        let mut p = PacketPool::new();
        let a = p.alloc(pkt(1));
        p.release(a);
        let _ = p.alloc(pkt(2));
        let _ = p.get(a);
    }

    #[test]
    fn live_packets_skips_freed_slots() {
        let mut p = PacketPool::new();
        let hs: Vec<_> = (1..=4).map(|s| p.alloc(pkt(s))).collect();
        p.release(hs[1]);
        p.release(hs[3]);
        let live: Vec<u32> = p.live_packets().map(|k| k.seq).collect();
        assert_eq!(live, [1, 3]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut p = PacketPool::new();
        let _ = p.alloc(pkt(1));
        let h = p.alloc(pkt(2));
        p.release(h);
        p.clear();
        assert_eq!(p.live(), 0);
        assert_eq!(p.capacity(), 0);
        let h2 = p.alloc(pkt(3));
        assert_eq!(h2.slot(), 0);
        assert_eq!(h2.generation(), 0);
    }

    #[test]
    fn generation_wraps_without_panic() {
        let mut p = PacketPool::new();
        for i in 0..260 {
            let h = p.alloc(pkt(i));
            p.release(h);
        }
        let h = p.alloc(pkt(999));
        assert_eq!(p.get(h).seq, 999);
    }
}
