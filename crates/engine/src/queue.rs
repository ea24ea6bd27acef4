//! The discrete-event queue.
//!
//! Two implementations of the same deterministic future-event list:
//!
//! - [`CalendarQueue`] (the default [`EventQueue`]): a flat bucketed
//!   calendar queue / timing wheel. Events land in fixed-width time
//!   buckets carved out of one contiguous slot array (a power-of-two
//!   *stride* of slots per bucket), each bucket kept sorted so its
//!   minimum pops from the end in O(1). Whatever does not fit its
//!   bucket — far-future events (CCTI recovery timers live ~150 µs out
//!   while data events churn at ns scale) and overflow from dense
//!   buckets — waits in a single spill heap that competes with the
//!   wheel at every pop, so exact order never depends on the wheel
//!   geometry. The geometry itself (bucket width, count, stride)
//!   retunes from the observed misfit rate and inter-event spacing
//!   (amortized O(1) rebuilds), so the structure adapts to any
//!   workload scale without tuning; in the worst case everything
//!   spills and the queue degrades to the plain binary heap.
//! - [`HeapQueue`]: the classic binary-heap queue, kept as the reference
//!   implementation. A differential property test (tests/prop.rs) pins
//!   the two to byte-identical pop streams; building with
//!   `RUSTFLAGS="--cfg ibsim_heap_queue"` swaps it back in globally to
//!   reproduce pre-calendar behaviour (the two must — and do — produce
//!   identical simulation results).
//!
//! Both order events by `(time, sequence)`: the monotone sequence number
//! makes simultaneous events pop in insertion order, which is what makes
//! whole-simulation determinism possible — two runs with the same
//! configuration schedule the same events in the same order and
//! therefore pop them in the same order. Every structural parameter of
//! the calendar (width, bucket count, stride, retune points) is derived
//! from already-scheduled events only, so it never perturbs that order.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The event-queue implementation the simulator runs on.
#[cfg(not(ibsim_heap_queue))]
pub type EventQueue<E> = CalendarQueue<E>;
/// The event-queue implementation the simulator runs on.
#[cfg(ibsim_heap_queue)]
pub type EventQueue<E> = HeapQueue<E>;

struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[inline]
fn entry_before<E>(a: &Entry<E>, b: &Entry<E>) -> bool {
    (a.at, a.seq) < (b.at, b.seq)
}

/// Everything needed to rebuild an identical queue at a later time or in
/// another process: clock, counters, and the pending entries *with their
/// original sequence numbers* (tie order among simultaneous events is
/// part of the determinism contract and must survive a checkpoint).
///
/// The snapshot is geometry-free: both [`CalendarQueue`] and
/// [`HeapQueue`] produce and accept the same shape, so a checkpoint
/// taken under one implementation restores under the other.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueueSnapshot<E> {
    pub now: Time,
    /// Next sequence number to assign.
    pub seq: u64,
    pub processed: u64,
    pub last_pop: Option<(Time, u64)>,
    /// Pending entries sorted by `(time, seq)`.
    pub entries: Vec<(Time, u64, E)>,
}

// ---------------------------------------------------------------------------
// Calendar queue
// ---------------------------------------------------------------------------

/// Default bucket count (always a power of two so slot → bucket is a
/// mask, and ≥ 64 for the occupancy bitset).
const DEFAULT_BUCKETS: usize = 1024;
const MIN_BUCKETS: usize = 1024;
const MAX_BUCKETS: usize = 1 << 16;
/// Default bucket width: 2^13 ps ≈ 8 ns, near the link/switch latency
/// scale that dominates fabric simulations before any adaptation.
const DEFAULT_WIDTH_SHIFT: u32 = 13;
/// Slots per bucket (log2). Small buckets keep the common insert/pop
/// touching one or two cache lines; dense tie-heavy loads retune to a
/// larger stride instead of spilling everything.
const MIN_STRIDE_SHIFT: u32 = 3;
const MAX_STRIDE_SHIFT: u32 = 6;
/// Hard cap on `buckets × stride` so a retune can never ask for an
/// unbounded slot array.
const MAX_SLOTS: u64 = 1 << 18;
/// Pending-event distances a retune samples (about this many, by
/// decimation) to estimate the population's spread.
const RETUNE_SAMPLES: usize = 4096;

/// Hysteresis for one log2 shape parameter. `want` is rounded from a
/// noisy sample, so a population near a rounding boundary would flip
/// between two adjacent values on every retune. Of two adjacent values
/// the one that makes the slot array smaller is taken at once — the
/// targets carry more than a power of two of headroom, and the smaller
/// array is the cache-friendlier one — while a move that grows the
/// array waits until `want` is more than one power of two away.
fn settle(cur: u32, want: u32, grows_array: Ordering) -> u32 {
    if want.cmp(&cur) == grows_array && want.abs_diff(cur) <= 1 {
        cur
    } else {
        want
    }
}

/// A deterministic future-event list (bucketed calendar queue).
pub struct CalendarQueue<E> {
    /// One contiguous array of `n_buckets << stride_shift` slots; bucket
    /// `b` owns `slots[b << stride_shift ..][..lens[b]]`, unsorted —
    /// inserts append in O(1), pops linear-scan the bucket for its
    /// `(time, seq)` minimum (bounded by the stride, cache-dense, and
    /// branch-predictable, which beats keeping the bucket sorted).
    slots: Vec<Option<Entry<E>>>,
    /// Per-bucket occupancy (physical index order).
    lens: Vec<u16>,
    mask: usize,
    stride_shift: u32,
    width_shift: u32,
    /// Exclusive upper slot bound of the wheel window
    /// `[hor_slot - n_buckets, hor_slot)`; slides forward with the clock.
    hor_slot: u64,
    /// Lower bound for the next occupied-bucket scan: no non-empty
    /// bucket has a slot below this.
    hint_slot: u64,
    /// Occupancy bitset, one bit per bucket (physical index order).
    occupied: Vec<u64>,
    /// Events currently sitting in wheel buckets (excludes spill).
    bucketed: usize,
    /// Everything that did not fit its bucket — far-future events and
    /// overflow from full buckets — ordered min-first. Competes with the
    /// wheel at every pop, so placement never affects pop order.
    spill: BinaryHeap<Entry<E>>,
    inserts_since_retune: usize,
    misfits_since_retune: usize,
    /// Inserts required before the next adaptation is considered.
    cooldown: usize,
    /// Reusable distance-sample buffer for [`Self::retune`], kept
    /// across calls so steady-state retune checks stay allocation-free.
    retune_scratch: Vec<u64>,
    /// Reusable redistribution buffer for [`Self::retune`]: holds every
    /// entry while the wheel geometry changes underneath it. Kept across
    /// calls for the same reason as `retune_scratch` — once its capacity
    /// reaches the population high-water mark, retunes stop allocating.
    redist_scratch: Vec<Entry<E>>,
    /// Count of sub-threshold decay steps since the last retune; a slow
    /// drift check forces a retune every 16th one, so a persistent
    /// low-rate misfit trickle (geometry mildly wrong, never wrong
    /// enough to trip the 25 % threshold) still converges to the right
    /// shape eventually.
    halvings: u32,
    /// Retunes that changed the geometry (each one redistributed every
    /// pending entry).
    retunes: u64,
    seq: u64,
    now: Time,
    processed: u64,
    /// `(time, seq)` of the last popped event — the pop stream is
    /// strictly monotone in this key, and invariant auditors read it to
    /// verify exactly that.
    last_pop: Option<(Time, u64)>,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    pub fn new() -> Self {
        Self::with_shape(DEFAULT_BUCKETS, DEFAULT_WIDTH_SHIFT, MIN_STRIDE_SHIFT)
    }

    /// Pre-size for roughly `pending_hint` simultaneously pending events
    /// (e.g. nodes × ports for a network simulation). The bucket count
    /// is a structural hint only — correctness and adaptation never
    /// depend on it.
    pub fn with_capacity(pending_hint: usize) -> Self {
        let n = (pending_hint.max(1) * 2)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        Self::with_shape(n, DEFAULT_WIDTH_SHIFT, MIN_STRIDE_SHIFT)
    }

    fn with_shape(n_buckets: usize, width_shift: u32, stride_shift: u32) -> Self {
        debug_assert!(n_buckets.is_power_of_two() && n_buckets >= 64);
        let mut slots = Vec::new();
        slots.resize_with(n_buckets << stride_shift, || None);
        CalendarQueue {
            slots,
            lens: vec![0u16; n_buckets],
            mask: n_buckets - 1,
            stride_shift,
            width_shift,
            hor_slot: n_buckets as u64,
            hint_slot: 0,
            occupied: vec![0u64; n_buckets / 64],
            bucketed: 0,
            spill: BinaryHeap::new(),
            inserts_since_retune: 0,
            misfits_since_retune: 0,
            cooldown: 256,
            retune_scratch: Vec::new(),
            redist_scratch: Vec::new(),
            halvings: 0,
            retunes: 0,
            seq: 0,
            now: Time::ZERO,
            processed: 0,
            last_pop: None,
        }
    }

    /// How many times the wheel changed shape (width, bucket count or
    /// stride) since construction. A steady workload settles after a
    /// few; a count that keeps climbing means the geometry is thrashing.
    pub fn retunes(&self) -> u64 {
        self.retunes
    }

    /// Current simulation time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// `(time, seq)` key of the most recently popped event, if any.
    /// Consecutive pops are strictly increasing in this key — the
    /// determinism contract both queue implementations share.
    #[inline]
    pub fn last_pop(&self) -> Option<(Time, u64)> {
        self.last_pop
    }

    /// Number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.bucketed + self.spill.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    #[inline]
    fn base_slot(&self) -> u64 {
        self.hor_slot - (self.mask as u64 + 1)
    }

    #[inline]
    fn mark(&mut self, phys: usize) {
        self.occupied[phys >> 6] |= 1u64 << (phys & 63);
    }

    #[inline]
    fn unmark(&mut self, phys: usize) {
        self.occupied[phys >> 6] &= !(1u64 << (phys & 63));
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Panics in debug builds if `at` lies in the past; scheduling *at*
    /// the current instant is allowed and pops after everything already
    /// queued for that instant.
    #[inline]
    pub fn schedule(&mut self, at: Time, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.insert(Entry { at, seq, event });
    }

    /// Schedule `event` at absolute time `at` under a caller-chosen
    /// sequence key instead of the next counter value. The internal
    /// counter is bumped past `seq` so later [`Self::schedule`] calls
    /// never collide with an explicit key. This is how the sharded
    /// executor re-labels provisional event keys with their
    /// globally-agreed `(time, seq)` identity: tie order among
    /// simultaneous events *is* the determinism contract, so the key —
    /// not insertion order — must decide.
    pub fn schedule_keyed(&mut self, at: Time, seq: u64, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        if seq >= self.seq {
            self.seq = seq + 1;
        }
        self.insert(Entry { at, seq, event });
    }

    fn insert(&mut self, e: Entry<E>) {
        self.inserts_since_retune += 1;
        if let Some(e) = self.try_bucket(e) {
            // No room in the wheel for this event: it waits in the
            // spill heap and competes at pop time, so nothing is ever
            // mis-ordered — just slower. A high misfit rate is the
            // signal that the geometry no longer matches the workload.
            self.spill.push(e);
            self.misfits_since_retune += 1;
            if self.inserts_since_retune >= self.cooldown {
                if self.misfits_since_retune * 4 > self.inserts_since_retune {
                    self.retune();
                } else {
                    // Below the retune threshold: decay both counters so
                    // the test tracks the recent misfit rate instead of
                    // averaging over the whole history (a workload shift
                    // must show up within ~one cooldown window).
                    self.inserts_since_retune /= 2;
                    self.misfits_since_retune /= 2;
                    self.halvings += 1;
                    if self.halvings >= 16 {
                        self.retune();
                    }
                }
            }
        }
    }

    /// Place `e` into its wheel bucket, or hand it back if it lies
    /// beyond the window or its bucket is full.
    #[inline]
    fn try_bucket(&mut self, e: Entry<E>) -> Option<Entry<E>> {
        let slot = e.at.0 >> self.width_shift;
        if slot >= self.hor_slot {
            return Some(e);
        }
        // Events behind the window base (only reachable if a caller
        // schedules into the past with debug assertions off) are clamped
        // into the base bucket; the sorted bucket still pops them in
        // exact (time, seq) order, and the base bucket is scanned first.
        let slot = slot.max(self.base_slot());
        let phys = (slot & self.mask as u64) as usize;
        let len = self.lens[phys] as usize;
        if len == 1usize << self.stride_shift {
            return Some(e);
        }
        let base = phys << self.stride_shift;
        self.slots[base + len] = Some(e);
        self.lens[phys] = (len + 1) as u16;
        self.mark(phys);
        self.bucketed += 1;
        if slot < self.hint_slot {
            self.hint_slot = slot;
        }
        None
    }

    /// Recompute bucket width/count/stride from the live event
    /// population and redistribute everything. Order is unaffected:
    /// structure only changes *where* entries wait, never how they
    /// compare.
    fn retune(&mut self) {
        self.inserts_since_retune = 0;
        self.misfits_since_retune = 0;
        self.halvings = 0;
        let total = self.pending();
        if total == 0 {
            return;
        }
        // Span estimate from an unbiased decimated sample of the whole
        // population (wheel and spill together — sampling either side
        // first would hide whichever band the geometry failed). The
        // 25th-percentile distance-from-now × 4 locks the width onto
        // the densest near-future band of a bimodal population (data
        // churn vs far-out recovery timers) and reduces to the plain
        // span estimate when the population is unimodal.
        let step = (total / RETUNE_SAMPLES).max(1);
        let mut dists = std::mem::take(&mut self.retune_scratch);
        dists.clear();
        // `total / step` stays below twice the target for every
        // `total`; reserving that bound once means no later check can
        // grow the buffer, whatever the population is when it runs.
        dists.reserve(2 * RETUNE_SAMPLES);
        let mut c = 0usize;
        for e in self.spill.iter() {
            if c.is_multiple_of(step) {
                dists.push(e.at.0.saturating_sub(self.now.0));
            }
            c += 1;
        }
        for (phys, &l) in self.lens.iter().enumerate() {
            let base = phys << self.stride_shift;
            for k in 0..l as usize {
                if c.is_multiple_of(step) {
                    let at = self.slots[base + k].as_ref().expect("occupied slot").at;
                    dists.push(at.0.saturating_sub(self.now.0));
                }
                c += 1;
            }
        }
        let i25 = (dists.len() / 4).min(dists.len() - 1);
        let (_, &mut d25, _) = dists.select_nth_unstable(i25);
        let spread = (d25 * 4).max(1);
        self.retune_scratch = dists;

        // Width target: ~1 event per slot across the near-future bulk;
        // when events are denser than one per picosecond the width
        // bottoms out and the stride grows to hold the pile-ups inline.
        //
        // Every target goes through [`settle`]; the later ones are
        // derived from the settled earlier ones, so the shape stays
        // consistent.
        let per_event = spread / total as u64;
        let width_target = if per_event >= 2 {
            per_event.next_power_of_two().trailing_zeros()
        } else {
            0
        };
        let width_shift = settle(self.width_shift, width_target, Ordering::Less);
        let slots_needed = (spread >> width_shift).max(1);
        let per_bucket4 = ((total as u64 * 4) / slots_needed).max(1);
        let stride_target = per_bucket4.next_power_of_two().trailing_zeros();
        let stride_shift = settle(self.stride_shift, stride_target, Ordering::Greater)
            .clamp(MIN_STRIDE_SHIFT, MAX_STRIDE_SHIFT);
        let max_n = ((MAX_SLOTS >> stride_shift) as usize).max(MIN_BUCKETS);
        let n_target = slots_needed.saturating_mul(2).next_power_of_two();
        let n_shift = settle(
            (self.mask + 1).trailing_zeros(),
            n_target.trailing_zeros(),
            Ordering::Greater,
        );
        let n = 1usize << n_shift;
        let n = n.clamp(MIN_BUCKETS, MAX_BUCKETS).min(max_n);

        // A retune that cannot change the geometry (e.g. a pile of
        // simultaneous events already at minimum width and maximum
        // stride) gets a long cooldown so pathological loads degrade to
        // the spill heap instead of thrashing on O(n) redistributions.
        if width_shift == self.width_shift
            && stride_shift == self.stride_shift
            && n == self.mask + 1
        {
            self.cooldown = (total * 8).max(4096);
            return;
        }
        self.cooldown = total.max(256);
        self.retunes += 1;

        // Drain into the reusable buffer; `spill.drain()` keeps the
        // heap's allocation alive (unlike take + into_vec, which would
        // force it to regrow from nothing afterwards).
        let mut all = std::mem::take(&mut self.redist_scratch);
        all.clear();
        all.reserve(total);
        for phys in 0..self.lens.len() {
            let base = phys << self.stride_shift;
            for k in 0..self.lens[phys] as usize {
                all.push(self.slots[base + k].take().expect("occupied slot"));
            }
        }
        all.extend(self.spill.drain());

        self.width_shift = width_shift;
        self.stride_shift = stride_shift;
        self.mask = n - 1;
        self.slots.clear();
        self.slots.resize_with(n << stride_shift, || None);
        self.lens.clear();
        self.lens.resize(n, 0);
        self.occupied.clear();
        self.occupied.resize(n / 64, 0);
        self.bucketed = 0;
        let now_slot = self.now.0 >> width_shift;
        self.hor_slot = now_slot + n as u64;
        self.hint_slot = now_slot;
        for e in all.drain(..) {
            if let Some(e) = self.try_bucket(e) {
                self.spill.push(e);
            }
        }
        self.redist_scratch = all;
    }

    /// Index of the bucket's `(time, seq)`-minimum entry within
    /// `slots` (buckets are unsorted; the scan is stride-bounded).
    #[inline]
    fn bucket_min(&self, phys: usize) -> usize {
        let base = phys << self.stride_shift;
        let len = self.lens[phys] as usize;
        debug_assert!(len > 0);
        let mut mi = base;
        for i in base + 1..base + len {
            let (a, b) = (
                self.slots[i].as_ref().expect("occupied slot"),
                self.slots[mi].as_ref().expect("occupied slot"),
            );
            if entry_before(a, b) {
                mi = i;
            }
        }
        mi
    }

    /// First occupied slot in `[from, hor_slot)`, in slot order.
    fn next_occupied(&self, from: u64) -> Option<u64> {
        let end = self.hor_slot;
        let mut s = from.max(self.base_slot());
        while s < end {
            let phys = (s & self.mask as u64) as usize;
            let bit = phys & 63;
            let word = self.occupied[phys >> 6] & (!0u64 << bit);
            if word != 0 {
                let found = s + (word.trailing_zeros() as u64 - bit as u64);
                return (found < end).then_some(found);
            }
            s += 64 - bit as u64;
        }
        None
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        let bucket_at = if self.bucketed > 0 {
            let slot = self
                .next_occupied(self.hint_slot)
                .expect("bucketed > 0 implies an occupied bucket");
            let phys = (slot & self.mask as u64) as usize;
            let idx = self.bucket_min(phys);
            Some(self.slots[idx].as_ref().expect("occupied slot").at)
        } else {
            None
        };
        match (bucket_at, self.spill.peek().map(|e| e.at)) {
            (Some(b), Some(s)) => Some(b.min(s)),
            (b, s) => b.or(s),
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = if self.bucketed == 0 {
            self.spill.pop()?
        } else {
            let slot = self
                .next_occupied(self.hint_slot)
                .expect("non-empty wheel has an occupied bucket");
            self.hint_slot = slot;
            let phys = (slot & self.mask as u64) as usize;
            let len = self.lens[phys] as usize;
            // The bucket minimum competes with the spill top, so wheel
            // geometry never affects pop order.
            let idx = self.bucket_min(phys);
            let take_spill = match self.spill.peek() {
                Some(s) => {
                    let b = self.slots[idx].as_ref().expect("occupied slot");
                    entry_before(s, b)
                }
                None => false,
            };
            if take_spill {
                self.spill.pop().expect("peeked entry")
            } else {
                let e = self.slots[idx].take().expect("occupied slot");
                let last = (phys << self.stride_shift) + len - 1;
                if idx != last {
                    self.slots[idx] = self.slots[last].take();
                }
                self.lens[phys] = (len - 1) as u16;
                if len == 1 {
                    self.unmark(phys);
                }
                self.bucketed -= 1;
                e
            }
        };
        debug_assert!(e.at >= self.now, "time went backwards");
        debug_assert!(
            self.last_pop.is_none_or(|k| (e.at, e.seq) > k),
            "pop order regressed: ({:?}, {}) after {:?}",
            e.at,
            e.seq,
            self.last_pop
        );
        self.now = e.at;
        self.last_pop = Some((e.at, e.seq));
        self.processed += 1;
        // Slide the window forward with the clock: buckets falling off
        // the back are provably empty (every remaining event's time is
        // ≥ now, so its slot is ≥ the new base), and the freed room
        // lets near-future schedules stay bucketed instead of detouring
        // through the spill heap. No events move — O(1).
        let min_hor = (self.now.0 >> self.width_shift) + self.mask as u64 + 1;
        if min_hor > self.hor_slot {
            self.hor_slot = min_hor;
        }
        Some((e.at, e.event))
    }

    /// Schedule `event` `delta` after now.
    #[inline]
    pub fn schedule_in(&mut self, delta: crate::time::TimeDelta, event: E) {
        let at = self.now + delta;
        self.schedule(at, event);
    }

    /// Pop the next event only if it is due at or before `limit`.
    /// The clock never advances beyond `limit` through this method.
    #[inline]
    pub fn pop_until(&mut self, limit: Time) -> Option<(Time, E)> {
        match self.peek_time() {
            Some(t) if t <= limit => self.pop(),
            _ => None,
        }
    }

    /// Drain *every* event due at the earliest pending timestamp `t`
    /// (if `t ≤ limit`) into `out` in `(time, seq)` order, advancing the
    /// clock to `t`. Returns `t`, or `None` if nothing is due.
    ///
    /// All same-`t` wheel entries share one bucket, so the whole batch
    /// comes out of a single bucket scan plus a spill drain — one
    /// occupied-slot search per *timestamp* instead of per event.
    ///
    /// Unlike [`pop`](Self::pop) this does **not** advance `processed`
    /// or `last_pop`: the caller dispatches the batch one event at a
    /// time and acknowledges each with
    /// [`note_dispatched`](Self::note_dispatched), keeping every
    /// per-event observable (audit cadence, event-order ledger)
    /// byte-identical to the one-pop-per-event loop.
    pub fn pop_batch_until(&mut self, limit: Time, out: &mut Vec<(u64, E)>) -> Option<Time> {
        let t = self.peek_time()?;
        if t > limit {
            return None;
        }
        let start = out.len();
        if self.bucketed > 0 {
            let slot = (t.0 >> self.width_shift).max(self.base_slot());
            if slot < self.hor_slot {
                let phys = (slot & self.mask as u64) as usize;
                let base = phys << self.stride_shift;
                let orig = self.lens[phys] as usize;
                let mut len = orig;
                let mut i = base;
                // Swap-remove every at-t entry; the swapped-in tail
                // entry is re-examined before the cursor advances.
                while i < base + len {
                    if self.slots[i].as_ref().expect("occupied slot").at == t {
                        let e = self.slots[i].take().expect("occupied slot");
                        let last = base + len - 1;
                        if i != last {
                            self.slots[i] = self.slots[last].take();
                        }
                        len -= 1;
                        out.push((e.seq, e.event));
                    } else {
                        i += 1;
                    }
                }
                self.bucketed -= orig - len;
                self.lens[phys] = len as u16;
                if len == 0 && orig > 0 {
                    self.unmark(phys);
                }
                // Everything below t's slot is already drained.
                if slot > self.hint_slot {
                    self.hint_slot = slot;
                }
            }
        }
        while self.spill.peek().is_some_and(|e| e.at == t) {
            let e = self.spill.pop().expect("peeked entry");
            out.push((e.seq, e.event));
        }
        debug_assert!(out.len() > start, "peeked timestamp yielded no events");
        // Bucket order is arbitrary; restore the (time, seq) contract.
        out[start..].sort_unstable_by_key(|&(seq, _)| seq);
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        let min_hor = (t.0 >> self.width_shift) + self.mask as u64 + 1;
        if min_hor > self.hor_slot {
            self.hor_slot = min_hor;
        }
        Some(t)
    }

    /// Record that one event handed out by
    /// [`pop_batch_until`](Self::pop_batch_until) was dispatched:
    /// advances `processed` and the `last_pop` key exactly as a plain
    /// [`pop`](Self::pop) of that event would have.
    #[inline]
    pub fn note_dispatched(&mut self, at: Time, seq: u64) {
        debug_assert!(
            self.last_pop.is_none_or(|k| (at, seq) > k),
            "dispatch order regressed: ({at:?}, {seq}) after {:?}",
            self.last_pop
        );
        self.last_pop = Some((at, seq));
        self.processed += 1;
    }

    /// Capture the queue's complete state (see [`QueueSnapshot`]).
    pub fn snapshot(&self) -> QueueSnapshot<E>
    where
        E: Clone,
    {
        let mut entries: Vec<(Time, u64, E)> = Vec::with_capacity(self.pending());
        for phys in 0..self.lens.len() {
            let base = phys << self.stride_shift;
            for k in 0..self.lens[phys] as usize {
                let e = self.slots[base + k].as_ref().expect("occupied slot");
                entries.push((e.at, e.seq, e.event.clone()));
            }
        }
        for e in self.spill.iter() {
            entries.push((e.at, e.seq, e.event.clone()));
        }
        entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        QueueSnapshot {
            now: self.now,
            seq: self.seq,
            processed: self.processed,
            last_pop: self.last_pop,
            entries,
        }
    }

    /// Rebuild a queue from a snapshot. Entry sequence numbers are
    /// reinstated verbatim, so ties pop in exactly the captured order;
    /// the wheel geometry is rebuilt fresh (it never affects order).
    pub fn from_snapshot(snap: QueueSnapshot<E>) -> Self {
        let mut q = Self::with_capacity(snap.entries.len());
        q.now = snap.now;
        q.seq = snap.seq;
        q.processed = snap.processed;
        q.last_pop = snap.last_pop;
        let now_slot = snap.now.0 >> q.width_shift;
        q.hor_slot = now_slot + q.mask as u64 + 1;
        q.hint_slot = now_slot;
        for (at, seq, event) in snap.entries {
            q.insert(Entry { at, seq, event });
        }
        q
    }

    /// Drop all pending events and reset the clock (for reuse in sweeps).
    pub fn reset(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.lens.fill(0);
        self.occupied.fill(0);
        self.spill.clear();
        self.bucketed = 0;
        self.hor_slot = self.mask as u64 + 1;
        self.hint_slot = 0;
        self.halvings = 0;
        self.inserts_since_retune = 0;
        self.misfits_since_retune = 0;
        self.cooldown = 256;
        self.seq = 0;
        self.now = Time::ZERO;
        self.processed = 0;
        self.last_pop = None;
    }
}

// ---------------------------------------------------------------------------
// Reference binary-heap queue
// ---------------------------------------------------------------------------

/// The classic binary-heap future-event list; reference implementation
/// for the calendar queue's determinism contract.
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: Time,
    processed: u64,
    /// `(time, seq)` of the last popped event (see [`CalendarQueue::last_pop`]).
    last_pop: Option<(Time, u64)>,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// Pre-size for roughly `pending_hint` simultaneously pending events.
    pub fn with_capacity(pending_hint: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(pending_hint.max(1)),
            seq: 0,
            now: Time::ZERO,
            processed: 0,
            last_pop: None,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// `(time, seq)` key of the most recently popped event, if any.
    #[inline]
    pub fn last_pop(&self) -> Option<(Time, u64)> {
        self.last_pop
    }

    /// Number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at` (see [`CalendarQueue::schedule`]).
    #[inline]
    pub fn schedule(&mut self, at: Time, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedule under a caller-chosen sequence key (see
    /// [`CalendarQueue::schedule_keyed`]).
    #[inline]
    pub fn schedule_keyed(&mut self, at: Time, seq: u64, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        if seq >= self.seq {
            self.seq = seq + 1;
        }
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedule `event` `delta` after now.
    #[inline]
    pub fn schedule_in(&mut self, delta: crate::time::TimeDelta, event: E) {
        let at = self.now + delta;
        self.schedule(at, event);
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.at >= self.now, "time went backwards");
        debug_assert!(
            self.last_pop.is_none_or(|k| (e.at, e.seq) > k),
            "pop order regressed: ({:?}, {}) after {:?}",
            e.at,
            e.seq,
            self.last_pop
        );
        self.now = e.at;
        self.last_pop = Some((e.at, e.seq));
        self.processed += 1;
        Some((e.at, e.event))
    }

    /// Pop the next event only if it is due at or before `limit`.
    #[inline]
    pub fn pop_until(&mut self, limit: Time) -> Option<(Time, E)> {
        match self.peek_time() {
            Some(t) if t <= limit => self.pop(),
            _ => None,
        }
    }

    /// Drain every event due at the earliest pending timestamp into
    /// `out` (see [`CalendarQueue::pop_batch_until`]).
    pub fn pop_batch_until(&mut self, limit: Time, out: &mut Vec<(u64, E)>) -> Option<Time> {
        let t = self.peek_time()?;
        if t > limit {
            return None;
        }
        // Heap pops for a tied timestamp already come out seq-ascending.
        while self.heap.peek().is_some_and(|e| e.at == t) {
            let e = self.heap.pop().expect("peeked entry");
            out.push((e.seq, e.event));
        }
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        Some(t)
    }

    /// Record one dispatched batch event (see
    /// [`CalendarQueue::note_dispatched`]).
    #[inline]
    pub fn note_dispatched(&mut self, at: Time, seq: u64) {
        debug_assert!(
            self.last_pop.is_none_or(|k| (at, seq) > k),
            "dispatch order regressed: ({at:?}, {seq}) after {:?}",
            self.last_pop
        );
        self.last_pop = Some((at, seq));
        self.processed += 1;
    }

    /// Capture the queue's complete state (see [`QueueSnapshot`]).
    pub fn snapshot(&self) -> QueueSnapshot<E>
    where
        E: Clone,
    {
        let mut entries: Vec<(Time, u64, E)> = self
            .heap
            .iter()
            .map(|e| (e.at, e.seq, e.event.clone()))
            .collect();
        entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        QueueSnapshot {
            now: self.now,
            seq: self.seq,
            processed: self.processed,
            last_pop: self.last_pop,
            entries,
        }
    }

    /// Rebuild a queue from a snapshot (see [`CalendarQueue::from_snapshot`]).
    pub fn from_snapshot(snap: QueueSnapshot<E>) -> Self {
        let mut q = Self::with_capacity(snap.entries.len());
        q.now = snap.now;
        q.seq = snap.seq;
        q.processed = snap.processed;
        q.last_pop = snap.last_pop;
        for (at, seq, event) in snap.entries {
            q.heap.push(Entry { at, seq, event });
        }
        q
    }

    /// Drop all pending events and reset the clock (for reuse in sweeps).
    pub fn reset(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.now = Time::ZERO;
        self.processed = 0;
        self.last_pop = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeDelta;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(30), "c");
        q.schedule(Time(10), "a");
        q.schedule(Time(20), "b");
        assert_eq!(q.pop(), Some((Time(10), "a")));
        assert_eq!(q.pop(), Some((Time(20), "b")));
        assert_eq!(q.pop(), Some((Time(30), "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Time(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Time(5), i)));
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.schedule(Time(100), ());
        q.pop();
        assert_eq!(q.now(), Time(100));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), 0);
        q.pop();
        q.schedule_in(TimeDelta(5), 1);
        assert_eq!(q.peek_time(), Some(Time(15)));
    }

    #[test]
    fn pop_until_respects_limit() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), "a");
        q.schedule(Time(20), "b");
        assert_eq!(q.pop_until(Time(15)), Some((Time(10), "a")));
        assert_eq!(q.pop_until(Time(15)), None);
        assert_eq!(q.pending(), 1);
        // The clock did not jump past the limit.
        assert_eq!(q.now(), Time(10));
    }

    // The pop-order ledger (`now`, `last_pop`, `processed`) is the
    // spine of the determinism audit and of the sharded executor's
    // replay: a `pop_batch_until` that touches any of it on the empty
    // or past-limit path would silently corrupt both. These macros pin
    // the contract for each implementation separately — the EventQueue
    // alias only compiles one of them into the simulator.
    macro_rules! empty_batch_pop_is_inert {
        ($name:ident, $q:ty) => {
            #[test]
            fn $name() {
                let mut q = <$q>::new();
                let mut out: Vec<(u64, &str)> = vec![(99, "sentinel")];

                // Brand-new queue: nothing due, nothing mutated.
                assert_eq!(q.pop_batch_until(Time(1_000), &mut out), None);
                assert_eq!(out, vec![(99, "sentinel")], "out buffer touched");
                assert_eq!(q.now(), Time::ZERO);
                assert_eq!(q.last_pop(), None);
                assert_eq!(q.processed(), 0);

                // Head past the limit: same story, and the pending
                // event survives untouched.
                q.schedule(Time(500), "later");
                assert_eq!(q.pop_batch_until(Time(400), &mut out), None);
                assert_eq!(out, vec![(99, "sentinel")]);
                assert_eq!((q.now(), q.last_pop(), q.processed()), (Time::ZERO, None, 0));
                assert_eq!(q.pending(), 1);

                // Drain it for real, acknowledge the dispatch, then
                // exhaust: the ledger must hold the *last real* pop,
                // not a stale or cleared value.
                out.clear();
                assert_eq!(q.pop_batch_until(Time(500), &mut out), Some(Time(500)));
                assert_eq!(out.len(), 1);
                let (seq, _) = out[0];
                q.note_dispatched(Time(500), seq);
                for limit in [Time(500), Time(600), Time::MAX] {
                    assert_eq!(q.pop_batch_until(limit, &mut out), None);
                    assert_eq!(q.now(), Time(500), "empty batch-pop moved the clock");
                    assert_eq!(
                        q.last_pop(),
                        Some((Time(500), seq)),
                        "empty batch-pop disturbed the pop-order ledger"
                    );
                    assert_eq!(q.processed(), 1);
                }
            }
        };
    }
    empty_batch_pop_is_inert!(empty_batch_pop_is_inert_calendar, CalendarQueue<&'static str>);
    empty_batch_pop_is_inert!(empty_batch_pop_is_inert_heap, HeapQueue<&'static str>);

    macro_rules! schedule_keyed_orders_by_key {
        ($name:ident, $q:ty) => {
            #[test]
            fn $name() {
                let mut q = <$q>::new();
                // Interleave counter-assigned and explicit keys; pops
                // must follow (time, seq), not insertion order.
                q.schedule(Time(10), "seq0");
                q.schedule_keyed(Time(10), 7, "seq7");
                q.schedule_keyed(Time(10), 3, "seq3");
                // The counter was bumped past the largest explicit key.
                q.schedule(Time(10), "seq8");
                assert_eq!(q.pop(), Some((Time(10), "seq0")));
                assert_eq!(q.pop(), Some((Time(10), "seq3")));
                assert_eq!(q.pop(), Some((Time(10), "seq7")));
                assert_eq!(q.pop(), Some((Time(10), "seq8")));
                assert_eq!(q.pop(), None);
            }
        };
    }
    schedule_keyed_orders_by_key!(schedule_keyed_orders_by_key_calendar, CalendarQueue<&'static str>);
    schedule_keyed_orders_by_key!(schedule_keyed_orders_by_key_heap, HeapQueue<&'static str>);

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), ());
        q.pop();
        q.schedule(Time(5), ());
    }

    #[test]
    fn reset_clears_everything() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), 1);
        q.pop();
        q.schedule(Time(20), 2);
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.processed(), 0);
    }

    #[test]
    fn interleaved_schedule_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(Time(1), 1u32);
        q.schedule(Time(5), 5);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(Time(3), 3);
        q.schedule(Time(4), 4);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap().1, 5);
    }

    #[test]
    fn far_future_events_cross_the_overflow() {
        // CCTI-timer pattern: ns-scale churn plus a timer ~150 µs out
        // (far beyond any initial wheel window).
        let mut q = CalendarQueue::new();
        q.schedule(Time(153_600_000), "timer");
        for i in 0..50u64 {
            q.schedule(Time(1_000 + i), "data");
        }
        for _ in 0..50 {
            assert_eq!(q.pop().unwrap().1, "data");
        }
        assert_eq!(q.pop(), Some((Time(153_600_000), "timer")));
        // Scheduling keeps working after the window jumped forward.
        q.schedule(Time(153_600_001), "next");
        assert_eq!(q.pop(), Some((Time(153_600_001), "next")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn dense_population_triggers_adaptation_and_stays_ordered() {
        // Push far more events than the default geometry likes, then
        // verify the full pop stream is still perfectly sorted.
        let mut q = CalendarQueue::new();
        let mut rng = crate::rng::Rng::new(42);
        for i in 0..20_000u64 {
            q.schedule(Time(rng.next_below(1_000_000)), i);
        }
        let mut last = (Time::ZERO, 0u64);
        let mut popped = 0;
        while let Some((t, i)) = q.pop() {
            let key = (t, i);
            if popped > 0 {
                assert!(t >= last.0, "time regressed at pop {popped}");
            }
            last = key;
            popped += 1;
        }
        assert_eq!(popped, 20_000);
    }

    #[test]
    fn steady_hold_pattern_settles_on_one_geometry() {
        // The classic hold model at a fixed depth — pop one, schedule
        // one — with the shape of a fabric's event population: near-
        // future churn plus a 1-in-16 trickle of far-out timers, whose
        // misfits are what keep retune checks coming. Before the
        // hysteresis, a mean spacing whose width target sat near a
        // power-of-two boundary (400, 500, 800 ns here) flipped between
        // two adjacent shapes a dozen times or more over the steady
        // half of this run; the means in between settled by luck.
        const DEPTH: usize = 5_500;
        const OPS: usize = 2_000_000;
        for mean_ns in [300u64, 400, 500, 600, 800, 1_000] {
            let mut rng = crate::rng::Rng::new(7);
            let mut draw = |now: u64| {
                let scale = if rng.next_below(16) == 0 { 200.0 } else { 1.0 };
                let gap = -rng.next_f64().max(1e-12).ln() * (mean_ns * 1_000) as f64 * scale;
                Time(now + 1 + gap as u64)
            };
            let mut q = CalendarQueue::with_capacity(DEPTH);
            for i in 0..DEPTH {
                q.schedule(draw(0), i);
            }
            let mut warm = 0;
            let mut last = Time::ZERO;
            for i in 0..OPS {
                let (t, _) = q.pop().expect("the depth is held");
                assert!(t >= last, "geometry must never reorder pops");
                last = t;
                q.schedule(draw(t.0), i);
                if i == OPS / 2 {
                    warm = q.retunes();
                }
            }
            assert!(warm >= 1, "mean {mean_ns} ns: the wheel adapted at all");
            assert!(
                q.retunes() - warm <= 3,
                "mean {mean_ns} ns: {} geometry changes after warm-up ({warm} before)",
                q.retunes() - warm
            );
        }
    }

    #[test]
    fn with_capacity_matches_new_semantics() {
        let mut a = CalendarQueue::with_capacity(648 * 8);
        let mut b = CalendarQueue::new();
        for i in 0..1000u64 {
            a.schedule(Time(i * 37 % 5000), i);
            b.schedule(Time(i * 37 % 5000), i);
        }
        for _ in 0..1000 {
            assert_eq!(a.pop(), b.pop());
        }
    }

    #[test]
    fn snapshot_restore_preserves_pop_stream() {
        // Interleave schedules and pops, snapshot mid-stream, and check
        // the restored queue's remaining pop stream is byte-identical —
        // including tie order and the seq counter for future schedules.
        let mut q = CalendarQueue::new();
        let mut rng = crate::rng::Rng::new(99);
        for i in 0..3_000u64 {
            let delta = match rng.next_below(10) {
                0 => 0,
                1 => 300_000_000,
                _ => rng.next_below(5_000),
            };
            q.schedule(Time(q.now().0 + delta), i);
            if rng.next_below(10) < 4 {
                q.pop();
            }
        }
        let snap = q.snapshot();
        assert_eq!(snap.entries.len(), q.pending());
        let mut cal = CalendarQueue::from_snapshot(snap.clone());
        let mut heap = HeapQueue::from_snapshot(snap);
        assert_eq!(cal.now(), q.now());
        assert_eq!(cal.processed(), q.processed());
        assert_eq!(cal.last_pop(), q.last_pop());
        // New schedules continue the same seq stream on all three.
        q.schedule_in(TimeDelta(7), u64::MAX);
        cal.schedule_in(TimeDelta(7), u64::MAX);
        heap.schedule_in(TimeDelta(7), u64::MAX);
        loop {
            let (a, b, c) = (q.pop(), cal.pop(), heap.pop());
            assert_eq!(a, b, "restored calendar queue diverged");
            assert_eq!(a, c, "restored heap queue diverged");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn snapshot_of_empty_queue_round_trips() {
        let mut q = EventQueue::<u32>::new();
        q.schedule(Time(5), 1);
        q.pop();
        let snap = q.snapshot();
        assert!(snap.entries.is_empty());
        let mut r = EventQueue::from_snapshot(snap);
        assert!(r.is_empty());
        assert_eq!(r.now(), Time(5));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn batch_pop_matches_single_pop_stream() {
        // pop_batch_until + note_dispatched must reproduce the exact
        // event stream, clock, processed count and last_pop key of the
        // one-pop-per-event loop — on both implementations.
        let mut single = CalendarQueue::new();
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut rng = crate::rng::Rng::new(13);
        let mut t = 0u64;
        for i in 0..4_000u64 {
            // Heavy ties plus occasional far-future jumps.
            t += match rng.next_below(10) {
                0..=4 => 0,
                5 => 150_000_000,
                _ => rng.next_below(1_000),
            };
            single.schedule(Time(t), i);
            cal.schedule(Time(t), i);
            heap.schedule(Time(t), i);
        }
        let mut batch = Vec::new();
        while let Some(bt) = cal.pop_batch_until(Time(u64::MAX), &mut batch) {
            let mut hbatch = Vec::new();
            let ht = heap.pop_batch_until(Time(u64::MAX), &mut hbatch);
            assert_eq!(ht, Some(bt));
            assert_eq!(batch, hbatch);
            for &(seq, ev) in &batch {
                assert_eq!(single.pop(), Some((bt, ev)));
                cal.note_dispatched(bt, seq);
                heap.note_dispatched(bt, seq);
            }
            assert_eq!(cal.now(), single.now());
            assert_eq!(cal.last_pop(), single.last_pop());
            assert_eq!(cal.processed(), single.processed());
            assert_eq!(heap.processed(), single.processed());
            batch.clear();
        }
        assert_eq!(single.pop(), None);
        assert!(cal.is_empty() && heap.is_empty());
    }

    #[test]
    fn batch_pop_respects_limit_and_interleaves_with_schedules() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), 0u32);
        q.schedule(Time(10), 1);
        q.schedule(Time(20), 2);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_until(Time(15), &mut out), Some(Time(10)));
        assert_eq!(out, vec![(0, 0), (1, 1)]);
        for &(seq, _) in &out {
            q.note_dispatched(Time(10), seq);
        }
        out.clear();
        assert_eq!(q.pop_batch_until(Time(15), &mut out), None);
        assert!(out.is_empty());
        // New same-time events scheduled mid-batch pop in a later batch
        // at the same timestamp, after everything already queued.
        q.schedule(Time(20), 3);
        assert_eq!(q.pop_batch_until(Time(25), &mut out), Some(Time(20)));
        assert_eq!(out, vec![(2, 2), (3, 3)]);
    }

    #[test]
    fn calendar_matches_heap_reference_exactly() {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut rng = crate::rng::Rng::new(7);
        // Interleaved schedule/pop with ties and far-future jumps.
        for round in 0..5_000u64 {
            let delta = match rng.next_below(100) {
                0..=4 => 0,                          // ties
                5..=9 => 200_000_000,                // far future
                _ => rng.next_below(2_000),          // churn
            };
            let at = Time(cal.now().0 + delta);
            cal.schedule(at, round);
            heap.schedule(at, round);
            if rng.next_below(100) < 60 {
                assert_eq!(cal.pop(), heap.pop(), "diverged at round {round}");
            }
            assert_eq!(cal.pending(), heap.pending());
        }
        loop {
            let (c, h) = (cal.pop(), heap.pop());
            assert_eq!(c, h);
            if c.is_none() {
                break;
            }
        }
    }
}
