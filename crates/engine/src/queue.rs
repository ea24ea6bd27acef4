//! The discrete-event queue.
//!
//! Two implementations of the same deterministic future-event list:
//!
//! - [`LaneQueue`], the [`EventQueue`] the simulator runs on: a small
//!   fixed array of FIFO *lanes* in front of one binary heap. A fabric
//!   model is built from a handful of constant delays (link, switch
//!   pipeline, credit return, the serialisation time of an MTU or a
//!   CNP, the CCTI timer), and events scheduled `now + d` for one fixed
//!   `d` arrive in non-decreasing `(time, seq)` order: a lane keyed by
//!   `d` is sorted by construction, so its insert is a `push_back` and
//!   its minimum is its front. Whatever fits no lane — a delay not seen
//!   before, an insert that would break its lane's order, more hot
//!   delays than lanes — goes to the heap. A pop takes the `(time, seq)`
//!   minimum over the lane fronts and the heap top, so pop order never
//!   depends on which lane, if any, an event waited in.
//! - [`HeapQueue`]: the classic binary-heap queue, kept as the reference
//!   implementation. A differential property test (tests/prop.rs) drives
//!   both through every method the engine calls and pins them to
//!   identical observables after every operation.
//!
//! Both order events by `(time, sequence)`: the monotone sequence number
//! makes simultaneous events pop in insertion order, which is what makes
//! whole-simulation determinism possible — two runs with the same
//! configuration schedule the same events in the same order and
//! therefore pop them in the same order.

use crate::time::Time;
use serde::Serialize;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// The event-queue implementation the simulator runs on.
pub type EventQueue<E> = LaneQueue<E>;

/// The name the queue had while it was a calendar wheel; the benchmark
/// driver's queue kernel still builds against it.
pub type CalendarQueue<E> = LaneQueue<E>;

struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// Bytes one pending event of payload `E` occupies in a queue — the
/// unit every insert writes and every pop copies. Public so the crate
/// that picks the payload can pin it at compile time.
pub const fn entry_size<E>() -> usize {
    std::mem::size_of::<Entry<E>>()
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        other.key().cmp(&self.key())
    }
}

/// Everything needed to rebuild an identical queue at a later time or in
/// another process: clock, counters, and the pending entries *with their
/// original sequence numbers* (tie order among simultaneous events is
/// part of the determinism contract and must survive a checkpoint).
/// Structure-free: a checkpoint taken under one implementation
/// restores under the other.
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

/// The clock and pop-order ledger, kept identically by both queues.
#[derive(Clone, Copy, Default)]
struct Ledger {
    /// Next sequence number to assign.
    seq: u64,
    now: Time,
    processed: u64,
    /// `(time, seq)` of the last popped event — the pop stream is
    /// strictly monotone in this key, and invariant auditors read it to
    /// verify exactly that.
    last_pop: Option<(Time, u64)>,
}

impl Ledger {
    /// The key of a new entry at `at`: the next counter value, or the
    /// caller's `seq` with the counter bumped past it.
    #[inline]
    fn key(&mut self, at: Time, seq: Option<u64>) -> u64 {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = seq.unwrap_or(self.seq);
        self.seq = self.seq.max(seq + 1);
        seq
    }

    #[inline]
    fn note_dispatched(&mut self, at: Time, seq: u64) {
        debug_assert!(
            self.last_pop.is_none_or(|k| (at, seq) > k),
            "dispatch order regressed: ({at:?}, {seq}) after {:?}",
            self.last_pop
        );
        self.last_pop = Some((at, seq));
        self.processed += 1;
    }

    /// Advance the clock to a batch or single pop at `t`.
    #[inline]
    fn advance(&mut self, t: Time) {
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
    }

    fn popped<E>(&mut self, e: Entry<E>) -> (Time, E) {
        self.advance(e.at);
        self.note_dispatched(e.at, e.seq);
        (e.at, e.event)
    }

    fn of<E>(snap: &QueueSnapshot<E>) -> Ledger {
        Ledger {
            seq: snap.seq,
            now: snap.now,
            processed: snap.processed,
            last_pop: snap.last_pop,
        }
    }
}

/// The half of the queue API that is the ledger's, word for word the
/// same on both implementations.
macro_rules! ledger_api {
    () => {
        /// Current simulation time: the timestamp of the last popped event.
        #[inline]
        pub fn now(&self) -> Time {
            self.ledger.now
        }

        /// `(time, seq)` key of the most recently popped event, if any.
        /// Consecutive pops are strictly increasing in this key — the
        /// determinism contract both queue implementations share.
        #[inline]
        pub fn last_pop(&self) -> Option<(Time, u64)> {
            self.ledger.last_pop
        }

        /// Number of events popped so far.
        #[inline]
        pub fn processed(&self) -> u64 {
            self.ledger.processed
        }

        /// Schedule `event` `delta` after now.
        #[inline]
        pub fn schedule_in(&mut self, delta: crate::time::TimeDelta, event: E) {
            self.schedule(self.ledger.now + delta, event);
        }

        /// Schedule `event` at `at` under a caller-chosen sequence key
        /// instead of the next counter value (the counter is bumped
        /// past `seq`, so later [`Self::schedule`] calls never collide
        /// with it). This is how the sharded executor re-labels
        /// provisional keys with their globally-agreed `(time, seq)`:
        /// tie order among simultaneous events *is* the determinism
        /// contract, so the key — not insertion order — must decide.
        pub fn schedule_keyed(&mut self, at: Time, seq: u64, event: E) {
            self.schedule_keyed_hint(at, seq, NO_HINT, event);
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

        /// Record that one event handed out by
        /// [`pop_batch_until`](Self::pop_batch_until) was dispatched:
        /// advances `processed` and the `last_pop` key exactly as a
        /// plain [`pop`](Self::pop) of that event would have.
        #[inline]
        pub fn note_dispatched(&mut self, at: Time, seq: u64) {
            self.ledger.note_dispatched(at, seq);
        }

        /// Capture the queue's complete state (see [`QueueSnapshot`]).
        pub fn snapshot(&self) -> QueueSnapshot<E>
        where
            E: Clone,
        {
            let pending = self.entries().map(|e| (e.at, e.seq, e.event.clone()));
            let mut entries: Vec<_> = pending.collect();
            entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
            let l = self.ledger;
            QueueSnapshot {
                now: l.now,
                seq: l.seq,
                processed: l.processed,
                last_pop: l.last_pop,
                entries,
            }
        }
    };
}

/// Where a queue's inserts went (exact counts since construction or
/// [`LaneQueue::reset`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct LaneStats {
    /// Inserts appended to a lane.
    pub lane_inserts: u64,
    /// Inserts that went to the fallback heap.
    pub fallback_inserts: u64,
    /// Lanes currently keyed by a hint.
    pub lanes_live: u32,
}

impl LaneStats {
    /// Fold another queue's counts in: inserts add up, `lanes_live` is
    /// the most any one queue holds.
    pub fn absorb(&mut self, other: LaneStats) {
        self.lane_inserts += other.lane_inserts;
        self.fallback_inserts += other.fallback_inserts;
        self.lanes_live = self.lanes_live.max(other.lanes_live);
    }

    /// Fraction of inserts that landed in a lane (0 with no inserts).
    pub fn coverage(&self) -> f64 {
        let total = self.lane_inserts + self.fallback_inserts;
        self.lane_inserts as f64 / total.max(1) as f64
    }
}

/// Lanes per queue. A fabric run keeps about fourteen delays hot, and a
/// shard adds one stream per neighbour and cross-shard delay.
const LANES: usize = 24;
/// A lane-less hint is given a lane once it is seen this many times
/// within one epoch of `1 << EPOCH_SHIFT` inserts, i.e. once it carries
/// about a thousandth of the traffic. A model constant does from the
/// start; a wake-up distance drawn from a table of hundreds recurs, but
/// never at that rate.
const SIGHTINGS: u32 = 4;
const EPOCH_SHIFT: u32 = 12;
/// Slots of the lane memo, four to a slot of the sighting table.
const MEMO_SLOTS: usize = 256;
const SEEN_SLOTS: usize = MEMO_SLOTS / 4;
/// The hint of a lane no stream owns, and of an insert that names none.
const NO_HINT: u64 = u64::MAX;
/// `front_at` of an empty lane. No lane ever holds an entry due at this
/// instant, so an empty lane never wins the minimum.
const NEVER: u64 = u64::MAX;

/// Where `hint` lives in the direct-mapped `memo` (and, four memo
/// slots to one, `seen`) table.
#[inline]
fn slot_of(hint: u64) -> usize {
    (hint.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
}

/// A deterministic future-event list: monotone FIFO lanes in front of a
/// binary heap (see the module doc).
///
/// Invariant: every lane is strictly increasing in `(time, seq)` from
/// front to back. An insert is appended to its lane only if it keeps
/// that true and goes to the heap otherwise, so the minimum over the
/// lane fronts and the heap top is the global minimum whatever the lane
/// policy did.
pub struct LaneQueue<E> {
    /// Timestamp of each lane's front entry ([`NEVER`] when empty): all
    /// a pop reads of a lane until the lane is due.
    front_at: [u64; LANES],
    /// The earliest `front_at` and a lane that holds it, kept current
    /// by every change to a lane's front: a peek reads this and the
    /// heap top, and only a pop rescans.
    head: (u64, usize),
    /// The hint each lane is keyed by ([`NO_HINT`] when unclaimed).
    lane_hint: [u64; LANES],
    lanes: [VecDeque<Entry<E>>; LANES],
    /// Everything that fits no lane, min-first.
    heap: BinaryHeap<Entry<E>>,
    /// Per hint slot, the lane that last answered a hint hashing there:
    /// a guess the insert checks against `lane_hint` before it scans.
    memo: [u8; MEMO_SLOTS],
    /// Bit per lane: appended to since a claim last passed it over.
    used: u32,
    /// Lane-less hints as `(hint, sightings, epoch)`, direct-mapped by
    /// a hash of the hint; a colliding hint or a new epoch evicts.
    seen: [(u64, u32, u64); SEEN_SLOTS],
    lane_inserts: u64,
    fallback_inserts: u64,
    ledger: Ledger,
}

impl<E> Default for LaneQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> LaneQueue<E> {
    ledger_api!();

    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Pre-size the fallback heap for `pending_hint` events. Lanes start
    /// with room for a shallow stream (one that earns its lane late is a
    /// rare one) and grow to a hot one's depth on their own.
    pub fn with_capacity(pending_hint: usize) -> Self {
        LaneQueue {
            front_at: [NEVER; LANES],
            head: (NEVER, 0),
            lane_hint: [NO_HINT; LANES],
            lanes: std::array::from_fn(|_| VecDeque::with_capacity(16)),
            heap: BinaryHeap::with_capacity(pending_hint),
            memo: [0; MEMO_SLOTS],
            used: 0,
            seen: [(NO_HINT, 0, 0); SEEN_SLOTS],
            lane_inserts: 0,
            fallback_inserts: 0,
            ledger: Ledger::default(),
        }
    }

    fn entries(&self) -> impl Iterator<Item = &Entry<E>> {
        self.lanes.iter().flatten().chain(self.heap.iter())
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum::<usize>() + self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.head.0 == NEVER
    }

    /// Where the inserts went so far.
    pub fn lane_stats(&self) -> LaneStats {
        LaneStats {
            lane_inserts: self.lane_inserts,
            fallback_inserts: self.fallback_inserts,
            lanes_live: self.lane_hint.iter().filter(|&&h| h != NO_HINT).count() as u32,
        }
    }

    /// Schedule `event` at absolute time `at`. The distance from the
    /// clock is the lane hint: constant-delay streams find their lane
    /// with no help from the caller.
    ///
    /// Panics in debug builds if `at` lies in the past; scheduling *at*
    /// the current instant is allowed and pops after everything already
    /// queued for that instant.
    ///
    /// Force-inlined down to [`Self::append`], like
    /// [`Self::schedule_keyed_hint`]: the entry is then assembled in
    /// registers and stored once, into its lane slot. Left to the
    /// inliner, it is built on the caller's stack and copied from there
    /// with wider loads than the stores that wrote it — a failed
    /// store-to-load forward on every insert.
    #[inline(always)]
    pub fn schedule(&mut self, at: Time, event: E) {
        let seq = self.ledger.key(at, None);
        let hint = at.0.wrapping_sub(self.ledger.now.0);
        self.insert(Entry { at, seq, event }, hint);
    }

    /// [`Self::schedule_keyed`] for an event that belongs to a stream:
    /// inserts sharing a `hint` are expected — not required — to arrive
    /// in increasing `(at, seq)` order. The sharded executor passes the
    /// distance from the dispatch that scheduled the event (the queue's
    /// own clock is not that dispatch's time when the key is assigned
    /// later), tagged with the source shard for cross-shard arrivals so
    /// two monotone streams do not interleave in one lane. Any `u64`
    /// but `u64::MAX` (no stream) is a hint; a wrong one only costs
    /// the lane.
    #[inline(always)]
    pub fn schedule_keyed_hint(&mut self, at: Time, seq: u64, hint: u64, event: E) {
        let seq = self.ledger.key(at, Some(seq));
        self.insert(Entry { at, seq, event }, hint);
    }

    #[inline(always)]
    fn insert(&mut self, e: Entry<E>, hint: u64) {
        let slot = slot_of(hint);
        let mut lane = self.memo[slot] as usize;
        if hint == NO_HINT {
            lane = LANES;
        } else if self.lane_hint[lane] != hint {
            lane = self.find_lane(hint, slot);
        }
        if lane < LANES {
            self.append(lane, e);
        } else {
            self.fallback(e);
        }
    }

    /// Append `e` to `lane` if that keeps the lane sorted, else divert
    /// it to the heap.
    #[inline(always)]
    fn append(&mut self, lane: usize, e: Entry<E>) {
        let q = &mut self.lanes[lane];
        match q.back() {
            _ if e.at.0 == NEVER => return self.fallback(e),
            None => {
                self.front_at[lane] = e.at.0;
                if e.at.0 < self.head.0 {
                    self.head = (e.at.0, lane);
                }
            }
            Some(b) if b.key() < e.key() => {}
            Some(_) => return self.fallback(e),
        }
        q.push_back(e);
        self.used |= 1 << lane;
        self.lane_inserts += 1;
    }

    #[cold]
    fn fallback(&mut self, e: Entry<E>) {
        self.heap.push(e);
        self.fallback_inserts += 1;
    }

    /// The lane `hint` owns or can now claim, else [`LANES`]: the
    /// insert path for a hint the memo does not answer.
    #[cold]
    fn find_lane(&mut self, hint: u64, slot: usize) -> usize {
        let owned = self.lane_hint.iter().position(|&h| h == hint);
        let lane = owned.unwrap_or_else(|| self.admit(hint, slot / 4));
        if lane < LANES {
            self.memo[slot] = lane as u8;
        }
        lane
    }

    /// Count a sighting of lane-less `hint`; from the [`SIGHTINGS`]th
    /// of an epoch on, try to claim an empty lane for it: one nobody
    /// owns if there is one, else one whose owner has not used it since
    /// the last claim looked (second chance: a hot stream's lane is
    /// empty now and then, but never for long). Returns the lane, or
    /// [`LANES`] if the insert has to use the heap.
    fn admit(&mut self, hint: u64, slot: usize) -> usize {
        let epoch = (self.lane_inserts + self.fallback_inserts) >> EPOCH_SHIFT;
        let seen = &mut self.seen[slot];
        if (seen.0, seen.2) != (hint, epoch) {
            *seen = (hint, 0, epoch);
        }
        seen.1 += 1;
        if seen.1 < SIGHTINGS {
            return LANES;
        }
        let mut lane = LANES;
        for i in (0..LANES).filter(|&i| self.front_at[i] == NEVER) {
            let idle = self.used & (1 << i) == 0;
            self.used &= !(1 << i);
            if self.lane_hint[i] == NO_HINT {
                lane = i;
                break;
            }
            if idle && lane == LANES {
                lane = i;
            }
        }
        if lane < LANES {
            *seen = (NO_HINT, 0, 0);
            self.lane_hint[lane] = hint;
        }
        lane
    }

    /// Lane `i` lost its front: note the new one and find the earliest
    /// front again — as four independent running minima, because one
    /// chain of `LANES` dependent compares would cost more than the
    /// rest of a pop.
    #[inline]
    fn refront(&mut self, i: usize) {
        self.front_at[i] = self.lanes[i].front().map_or(NEVER, |f| f.at.0);
        let mut m = [(NEVER, 0); 4];
        for (c, four) in self.front_at.chunks_exact(4).enumerate() {
            for (j, (m, &f)) in m.iter_mut().zip(four).enumerate() {
                if f < m.0 {
                    *m = (f, 4 * c + j);
                }
            }
        }
        let earlier = |a: (u64, usize), b: (u64, usize)| if b.0 < a.0 { b } else { a };
        self.head = earlier(earlier(m[0], m[1]), earlier(m[2], m[3]));
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        let lanes = Time(self.head.0);
        match self.heap.peek() {
            Some(e) => Some(e.at.min(lanes)),
            None => (lanes.0 != NEVER).then_some(lanes),
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        // One event: the lowest key among the lane fronts and heap top.
        let fronts = self.lanes.iter().enumerate();
        let best = fronts
            .filter_map(|(i, q)| Some((q.front()?.key(), i)))
            .min();
        let e = match (best, self.heap.peek()) {
            (Some((k, i)), top) if top.is_none_or(|h| k < h.key()) => {
                let e = self.lanes[i].pop_front().expect("peeked entry");
                self.refront(i);
                e
            }
            _ => self.heap.pop()?,
        };
        Some(self.ledger.popped(e))
    }

    /// Drain *every* event due at the earliest pending timestamp `t`
    /// (if `t ≤ limit`) into `out` in `(time, seq)` order, advancing the
    /// clock to `t`. Returns `t`, or `None` if nothing is due.
    ///
    /// The earliest lane front and the heap top give `t`; the lane that
    /// holds it gives up its run of `t` entries from the front, and so
    /// does every lane the rescan then finds due at `t` as well.
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
        while self.head.0 == t.0 && t.0 != NEVER {
            let i = self.head.1;
            while self.lanes[i].front().is_some_and(|f| f.at == t) {
                let e = self.lanes[i].pop_front().expect("peeked entry");
                out.push((e.seq, e.event));
            }
            self.refront(i);
        }
        while self.heap.peek().is_some_and(|e| e.at == t) {
            let e = self.heap.pop().expect("peeked entry");
            out.push((e.seq, e.event));
        }
        debug_assert!(out.len() > start, "peeked timestamp yielded no events");
        // Each source is seq-ascending; several of them are not.
        if out.len() - start > 1 {
            out[start..].sort_unstable_by_key(|&(seq, _)| seq);
        }
        self.ledger.advance(t);
        Some(t)
    }

    /// Rebuild a queue from a snapshot. Entry sequence numbers are
    /// reinstated verbatim, so ties pop in exactly the captured order.
    /// The sorted entries become one lane that no hint owns, free for
    /// the taking once it drains (an entry out of order would go to the
    /// heap like any other).
    pub fn from_snapshot(snap: QueueSnapshot<E>) -> Self {
        let mut q = Self::with_capacity(0);
        q.ledger = Ledger::of(&snap);
        q.lanes[0].reserve(snap.entries.len());
        for (at, seq, event) in snap.entries {
            q.append(0, Entry { at, seq, event });
        }
        (q.lane_inserts, q.fallback_inserts) = (0, 0);
        q
    }

    /// Hand every pending event to `f` in no particular order, leaving
    /// the queue empty. Clock, counters and lane ownership stay.
    pub fn drain(&mut self, mut f: impl FnMut(Time, u64, E)) {
        self.front_at = [NEVER; LANES];
        self.head = (NEVER, 0);
        let lanes = self.lanes.iter_mut().flat_map(|q| q.drain(..));
        for e in lanes.chain(self.heap.drain()) {
            f(e.at, e.seq, e.event);
        }
    }

    /// Drop all pending events and reset the clock (for reuse in sweeps).
    pub fn reset(&mut self) {
        self.drain(|_, _, _| {});
        self.lane_hint = [NO_HINT; LANES];
        self.used = 0;
        self.seen = [(NO_HINT, 0, 0); SEEN_SLOTS];
        (self.lane_inserts, self.fallback_inserts) = (0, 0);
        self.ledger = Ledger::default();
    }
}

/// The classic binary-heap future-event list; reference implementation
/// for the lane queue's determinism contract. Its methods are
/// [`LaneQueue`]'s, documented there.
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    ledger: Ledger,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    ledger_api!();

    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// Pre-size for roughly `pending_hint` simultaneously pending events.
    pub fn with_capacity(pending_hint: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(pending_hint.max(1)),
            ledger: Ledger::default(),
        }
    }

    fn entries(&self) -> impl Iterator<Item = &Entry<E>> {
        self.heap.iter()
    }

    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    #[inline]
    pub fn schedule(&mut self, at: Time, event: E) {
        let seq = self.ledger.key(at, None);
        self.heap.push(Entry { at, seq, event });
    }

    /// A heap has no use for the stream hint.
    #[inline]
    pub fn schedule_keyed_hint(&mut self, at: Time, seq: u64, _hint: u64, event: E) {
        let seq = self.ledger.key(at, Some(seq));
        self.heap.push(Entry { at, seq, event });
    }

    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = self.heap.pop()?;
        Some(self.ledger.popped(e))
    }

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
        self.ledger.advance(t);
        Some(t)
    }

    pub fn from_snapshot(snap: QueueSnapshot<E>) -> Self {
        let mut q = Self::with_capacity(snap.entries.len());
        q.ledger = Ledger::of(&snap);
        let entries = snap.entries.into_iter();
        q.heap
            .extend(entries.map(|(at, seq, event)| Entry { at, seq, event }));
        q
    }

    pub fn drain(&mut self, mut f: impl FnMut(Time, u64, E)) {
        for e in self.heap.drain() {
            f(e.at, e.seq, e.event);
        }
    }

    pub fn reset(&mut self) {
        self.heap.clear();
        self.ledger = Ledger::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeDelta;

    #[test]
    fn pops_in_time_order_ties_in_insertion_order() {
        let mut q = EventQueue::new();
        for (i, t) in [30, 10, 20, 10, 10].into_iter().enumerate() {
            q.schedule(Time(t), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let want = [(10, 1), (10, 3), (10, 4), (20, 2), (30, 0)];
        assert_eq!(order, want.map(|(t, i)| (Time(t), i)));
        assert_eq!((q.processed(), q.now()), (5, Time(30)));
        // The clock follows the pops; `schedule_in` is relative to it.
        q.schedule_in(TimeDelta(5), 9);
        assert_eq!(q.peek_time(), Some(Time(35)));
    }

    // The pop-order ledger (`now`, `last_pop`, `processed`) is the
    // spine of the determinism audit and of the sharded executor's
    // replay: a `pop_batch_until` that touches any of it on the empty
    // or past-limit path would silently corrupt both.
    #[test]
    fn empty_batch_pop_is_inert() {
        let mut q = EventQueue::new();
        let mut out: Vec<(u64, &str)> = vec![(99, "sentinel")];
        let ledger = |q: &EventQueue<_>| (q.now(), q.last_pop(), q.processed());

        // Brand-new queue: nothing due, nothing mutated. Head past the
        // limit: same, and the event survives.
        assert_eq!(q.pop_batch_until(Time(1_000), &mut out), None);
        q.schedule(Time(500), "later");
        assert_eq!(q.pop_batch_until(Time(400), &mut out), None);
        assert_eq!(out, vec![(99, "sentinel")], "out buffer touched");
        assert_eq!(ledger(&q), (Time::ZERO, None, 0));
        assert_eq!(q.pending(), 1);

        // Drain it for real, acknowledge the dispatch, then exhaust:
        // the ledger must hold the *last real* pop, not a stale or
        // cleared value.
        out.clear();
        assert_eq!(q.pop_batch_until(Time(500), &mut out), Some(Time(500)));
        let (seq, _) = out[0];
        q.note_dispatched(Time(500), seq);
        for limit in [Time(500), Time(600), Time::MAX] {
            assert_eq!(q.pop_batch_until(limit, &mut out), None);
            assert_eq!(ledger(&q), (Time(500), Some((Time(500), seq)), 1));
        }
    }

    #[test]
    fn schedule_keyed_orders_by_key() {
        let mut q = EventQueue::new();
        // Interleave counter-assigned and explicit keys; pops must
        // follow (time, seq), not insertion order.
        q.schedule(Time(10), "seq0");
        q.schedule_keyed(Time(10), 7, "seq7");
        q.schedule_keyed_hint(Time(10), 3, 10, "seq3");
        // The counter was bumped past the largest explicit key.
        q.schedule(Time(10), "seq8");
        for want in ["seq0", "seq3", "seq7", "seq8"] {
            assert_eq!(q.pop(), Some((Time(10), want)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), ());
        q.pop();
        q.schedule(Time(5), ());
    }

    /// The hold model on `delays`: pop one event, schedule its
    /// successor one of the delays later; every pop checked against the
    /// reference heap. Returns the lane queue for the caller to inspect.
    fn hold(delays: &[u64], depth: u64, ops: u64) -> LaneQueue<u64> {
        let (mut q, mut r) = (LaneQueue::new(), HeapQueue::new());
        for i in 0..depth {
            q.schedule(Time(i * 7), i);
            r.schedule(Time(i * 7), i);
        }
        for i in 0..ops {
            let (t, ev) = q.pop().expect("the depth is held");
            assert_eq!(r.pop(), Some((t, ev)), "diverged at op {i}");
            let at = t + TimeDelta(delays[(ev.wrapping_mul(31) + i) as usize % delays.len()]);
            q.schedule(at, ev);
            r.schedule(at, ev);
        }
        q
    }

    #[test]
    fn constant_delays_ride_lanes_and_reset_forgets_them() {
        // A fabric's mix: ns-scale constants plus the 153.6 µs timer.
        let delays = [0, 50_000, 100_000, 150_000, 819_200, 153_600_000];
        let mut q = hold(&delays, 200, 50_000);
        let s = q.lane_stats();
        assert_eq!(s.lanes_live, 6, "one lane per delay");
        // All that misses: the seed population and SIGHTINGS - 1
        // lane-less inserts of each delay.
        let misses = 200 + 6 * (SIGHTINGS as u64 - 1);
        assert!(s.fallback_inserts <= misses && s.coverage() > 0.99, "{s:?}");
        q.reset();
        assert!(q.is_empty() && q.peek_time().is_none());
        let ledger = (q.now(), q.processed(), q.last_pop());
        assert_eq!(ledger, (Time::ZERO, 0, None));
        assert_eq!(q.lane_stats(), LaneStats::default());
    }

    #[test]
    fn more_hot_delays_than_lanes_stays_ordered() {
        // Exhaustion: the surplus delays use the heap, and take over a
        // lane whenever one has drained and sat idle.
        let delays: Vec<u64> = (1..=2 * LANES as u64).map(|d| d * 1_000).collect();
        let s = hold(&delays, 64, 100_000).lane_stats();
        assert_eq!(s.lanes_live as usize, LANES);
        assert!(s.lane_inserts > 0 && s.fallback_inserts > 0, "{s:?}");
    }

    #[test]
    fn rare_distances_never_claim_a_lane() {
        // Arbitrary distances, and a table of recurring ones (the IRD
        // delays of a throttled source) far below a lane's worth of
        // traffic each: all heap, whatever the hot lanes do meanwhile.
        let mut rng = crate::rng::Rng::new(42);
        let mut q = LaneQueue::new();
        for i in 0..40_000u64 {
            let d = match i % 4 {
                0 => 1 + rng.next_below(1 << 40),
                1 => 424_770 + 819_200 * rng.next_below(2_000),
                _ => 50_000,
            };
            q.schedule(q.now() + TimeDelta(d), i);
            if i % 2 == 0 {
                q.pop();
            }
        }
        assert_eq!(q.lane_stats().lanes_live, 1, "{:?}", q.lane_stats());
    }

    #[test]
    fn order_breaking_insert_diverts_and_never_reorders() {
        let mut q = LaneQueue::new();
        for seq in 0..6 {
            q.schedule_keyed_hint(Time(100 + seq), seq, 50, seq);
        }
        let lanes = q.lane_stats().lane_inserts;
        assert!(lanes >= 1, "the hint earned a lane");
        // Same hint, but earlier than the lane's back (in time, then in
        // key at an equal time): both must wait in the heap.
        q.schedule_keyed_hint(Time(101), 9, 50, 9);
        q.schedule_keyed_hint(Time(105), 4, 50, 8);
        assert_eq!(q.lane_stats().lane_inserts, lanes);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [0, 1, 9, 2, 3, 4, 8, 5]);
    }

    #[test]
    fn same_time_batch_spans_lanes_and_heap_in_seq_order() {
        let mut q = LaneQueue::new();
        // Three streams that all come due at t = 1000, interleaved.
        for round in 0..6u64 {
            for (k, d) in [300u64, 200, 100].into_iter().enumerate() {
                q.schedule_keyed_hint(Time(1_000), round * 3 + k as u64, d, ());
            }
        }
        q.schedule_keyed(Time(1_000), 100, ());
        assert!(q.lane_stats().lanes_live == 3 && q.lane_stats().fallback_inserts > 0);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_until(Time::MAX, &mut out), Some(Time(1_000)));
        let seqs: Vec<u64> = out.iter().map(|&(s, ())| s).collect();
        assert_eq!(seqs, (0..18).chain([100]).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn snapshot_restores_as_one_lane_and_drain_keeps_the_clock() {
        let mut q = hold(&[0, 40, 7_000, 300_000_000], 50, 3_000);
        let snap = q.snapshot();
        assert_eq!(snap.entries.len(), q.pending());
        let mut lanes = LaneQueue::from_snapshot(snap.clone());
        let mut heap = HeapQueue::from_snapshot(snap);
        assert_eq!(lanes.lane_stats(), LaneStats::default());
        assert!(lanes.heap.is_empty(), "a sorted snapshot needs no heap");
        // Clock, ledger and seq stream carry over; the original, drained
        // and refilled under the same keys, pops the same stream too.
        let mut all = Vec::new();
        q.drain(|at, seq, ev| all.push((at, seq, ev)));
        assert!(q.is_empty() && q.peek_time().is_none() && all.len() == lanes.pending());
        for (at, seq, ev) in all.into_iter().rev() {
            q.schedule_keyed(at, seq, ev);
        }
        for r in [&mut q, &mut lanes] {
            r.schedule_in(TimeDelta(7), u64::MAX);
        }
        heap.schedule_in(TimeDelta(7), u64::MAX);
        while let Some(want) = heap.pop() {
            assert_eq!((q.pop(), lanes.pop()), (Some(want), Some(want)));
            assert_eq!(q.last_pop(), heap.last_pop());
        }
        assert!(q.is_empty() && lanes.is_empty());
    }

    #[test]
    fn the_far_end_of_time_is_an_ordinary_timestamp() {
        let mut q = LaneQueue::new();
        for i in 0..5 {
            q.schedule(Time::MAX, i);
        }
        q.schedule(Time(1), 9);
        assert_eq!(q.pop(), Some((Time(1), 9)));
        assert_eq!((q.peek_time(), q.pending()), (Some(Time::MAX), 5));
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_until(Time::MAX, &mut out), Some(Time::MAX));
        assert_eq!(out.len(), 5);
    }
}
