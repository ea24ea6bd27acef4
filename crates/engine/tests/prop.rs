//! Property-based tests for the DES kernel.

use ibsim_engine::queue::{EventQueue, HeapQueue, LaneQueue};
use ibsim_engine::rng::Rng;
use ibsim_engine::stats::Histogram;
use ibsim_engine::time::{Bandwidth, Time, TimeDelta};
use proptest::prelude::*;

/// How [`run_differential`] slants its inserts at the lane policy.
#[derive(Clone, Copy)]
struct Bias {
    /// The delays most inserts draw from.
    deltas: &'static [u64],
    /// Percentage of pops among the operations: the fewer, the deeper
    /// the queue and the more ties at one timestamp.
    pops: u64,
    /// Unit of a batch's look-ahead (`0..256` of them past the clock),
    /// scaled to the delays so a batch can reach their events.
    unit: u64,
}

const BIASES: [Bias; 5] = [
    // (a) A fabric's handful of constants, the far-out timer included.
    Bias {
        deltas: &[0, 50, 100, 150, 819, 153_600],
        pops: 45,
        unit: 1,
    },
    // (b) More hot delays than lanes: exhaustion and recycling.
    Bias {
        deltas: &DENSE,
        pops: 45,
        unit: 1,
    },
    // (c) The clock barely moves: same-timestamp ties spread over
    // several lanes and the heap.
    Bias {
        deltas: &[0, 0, 1, 2],
        pops: 15,
        unit: 1,
    },
    // (d) Two delays and many keyed inserts that undercut them.
    Bias {
        deltas: &[40, 900],
        pops: 35,
        unit: 1,
    },
    // (e) The measured delay mix of a 648-node fabric run, in
    // picoseconds (counted from the inserts of the benchmark driver's
    // `silent648`; its sixteenth entry, an arbitrary wake-up, is the
    // arbitrary-distance operation below).
    Bias {
        deltas: &[
            50_000,
            150_000,
            819_200,
            919_200,
            25_600,
            100_000,
            125_600,
            394_430,
            869_200,
            1_204_706,
            0,
            12_326,
            75_600,
            37_648,
            153_600_000,
        ],
        pops: 45,
        unit: 1_000,
    },
];

const DENSE: [u64; 40] = {
    let mut d = [0; 40];
    let mut i = 0;
    while i < 40 {
        d[i] = 10 * (i as u64 + 1);
        i += 1;
    }
    d
};

/// Explicit keys start far above any counter value, as the sharded
/// executor's provisional keys do.
const KEY_BASE: u64 = 1 << 40;

/// Drive a [`LaneQueue`] and a [`HeapQueue`] through `ops` in lockstep,
/// comparing every observable after every step. `ops` are
/// `(kind, a, b)` triples: `kind` picks the operation, `a` and `b`
/// parameterise it. Between them the operations cover every queue
/// method the engine calls (`EventQueue` is [`LaneQueue`]); the ones
/// that only read are the observables compared. Returns how many
/// inserts the lane queue put in a lane over the whole case.
fn run_differential(bias: Bias, ops: &[(u64, u64, u64)]) -> Result<u64, TestCaseError> {
    let mut lanes: EventQueue<u64> = EventQueue::with_capacity(ops.len());
    let mut heap: HeapQueue<u64> = HeapQueue::with_capacity(ops.len());
    let mut lane_inserts = 0;
    let mut keyed = 0u64;
    for (i, &(kind, a, b)) in ops.iter().enumerate() {
        let id = i as u64;
        let now = lanes.now().0;
        let delta = bias.deltas[a as usize % bias.deltas.len()];
        // Unique explicit keys, ascending on even draws and descending
        // on odd ones (a descending key undercuts its lane's back).
        keyed += 1;
        let descending = (1 << 30) - 2 * keyed + 1;
        let key = KEY_BASE + if b % 2 == 0 { 2 * keyed } else { descending };
        // A key below one already popped may not come due at the very
        // instant it was popped at.
        let soon = Time(now + 1);
        match kind {
            // The biased bulk: a repeated delay from the clock.
            0..=39 => {
                lanes.schedule(Time(now + delta), id);
                heap.schedule(Time(now + delta), id);
            }
            // An arbitrary distance, occasionally far beyond the rest.
            40..=44 => {
                let at = Time(now + b * if a == 0 { 1_000_000 } else { 1 });
                lanes.schedule(at, id);
                heap.schedule(at, id);
            }
            // Keyed, naming no stream.
            45..=49 => {
                lanes.schedule_keyed(Time(now + delta).max(soon), key, id);
                heap.schedule_keyed(Time(now + delta).max(soon), key, id);
            }
            // Keyed under a stream hint — the delay itself (sharing
            // `schedule`'s lane) or a tagged one — and sometimes earlier
            // than the stream's last insert.
            50..=64 => {
                let at = Time(now + delta.saturating_sub(b % 3 * (b % 7))).max(soon);
                let hint = delta | (a % 3) << 48;
                lanes.schedule_keyed_hint(at, key, hint, id);
                heap.schedule_keyed_hint(at, key, hint, id);
            }
            // A batch up to a limit, acknowledged event by event, and
            // between acknowledgements the dispatch schedules onward —
            // the order of calls in the engine's run loop.
            65..=79 => {
                let limit = Time(now + b % 256 * bias.unit);
                let (mut l, mut h) = (Vec::new(), Vec::new());
                let t = lanes.pop_batch_until(limit, &mut l);
                prop_assert_eq!(t, heap.pop_batch_until(limit, &mut h));
                prop_assert_eq!(&l, &h);
                prop_assert!(l.windows(2).all(|w| w[0].0 < w[1].0), "batch in seq order");
                for &(seq, _) in &l {
                    let t = t.unwrap();
                    lanes.note_dispatched(t, seq);
                    heap.note_dispatched(t, seq);
                    if (seq ^ b) % 2 == 0 {
                        lanes.schedule(t + TimeDelta(delta), id);
                        heap.schedule(t + TimeDelta(delta), id);
                    }
                }
            }
            // Each restored from the *other* implementation's snapshot.
            80 | 81 => {
                let (l, h) = (lanes.snapshot(), heap.snapshot());
                prop_assert_eq!(&l, &h);
                lane_inserts += lanes.lane_stats().lane_inserts;
                lanes = LaneQueue::from_snapshot(h);
                heap = HeapQueue::from_snapshot(l);
            }
            // Drained (any order, same multiset), then refilled under
            // the same keys, shuffled.
            82 | 83 => {
                let (mut l, mut h) = (Vec::new(), Vec::new());
                lanes.drain(|at, seq, ev| l.push((at, seq, ev)));
                heap.drain(|at, seq, ev| h.push((at, seq, ev)));
                prop_assert!(lanes.is_empty() && heap.is_empty());
                l.sort_unstable();
                h.sort_unstable();
                prop_assert_eq!(&l, &h);
                Rng::new(b).shuffle(&mut l);
                for (at, seq, ev) in l {
                    lanes.schedule_keyed_hint(at, seq, at.0 - now, ev);
                    heap.schedule_keyed(at, seq, ev);
                }
            }
            84 if a < 8 => {
                lane_inserts += lanes.lane_stats().lane_inserts;
                lanes.reset();
                heap.reset();
            }
            _ if kind < 100 - bias.pops => {}
            _ => prop_assert_eq!(lanes.pop(), heap.pop(), "diverged at op {}", i),
        }
        prop_assert_eq!(lanes.peek_time(), heap.peek_time());
        prop_assert_eq!(lanes.pending(), heap.pending());
        prop_assert_eq!(lanes.is_empty(), heap.is_empty());
        prop_assert_eq!(lanes.now(), heap.now());
        prop_assert_eq!(lanes.processed(), heap.processed());
        prop_assert_eq!(lanes.last_pop(), heap.last_pop());
    }
    // Drain both to the end: every remaining event must match too.
    loop {
        let (l, h) = (lanes.pop(), heap.pop());
        prop_assert_eq!(&l, &h);
        if l.is_none() {
            break;
        }
    }
    Ok(lane_inserts + lanes.lane_stats().lane_inserts)
}

proptest! {
    /// Events pop in nondecreasing time order regardless of insertion
    /// order, and ties preserve insertion order.
    #[test]
    fn queue_pops_sorted(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO among ties");
            }
        }
    }

    /// Differential determinism: the lane queue and the reference
    /// binary-heap queue agree on every observable — pops, batches,
    /// peeks, counts, the pop-order ledger, snapshots, drains — under
    /// arbitrary interleavings of every entry point, with the insert
    /// mix biased five ways at the lane policy (see [`Bias`]).
    #[test]
    fn lane_queue_matches_heap_reference(
        bias in 0usize..BIASES.len(),
        ops in prop::collection::vec((0u64..100, 0u64..64, 0u64..4_096), 1..600)
    ) {
        let lane_inserts = run_differential(BIASES[bias], &ops)?;
        // Vacuity guard: a long case whose inserts repeat their deltas
        // must have used the lanes, or this test pins heap against heap.
        let repeats = ops.iter().filter(|op| op.0 < 40).count();
        if repeats >= 16 * BIASES[bias].deltas.len() {
            prop_assert!(lane_inserts > 0, "no insert of {} found a lane", ops.len());
        }
    }

    /// `pop_until` agrees between the implementations for arbitrary
    /// limits.
    #[test]
    fn lane_pop_until_matches_heap(
        times in prop::collection::vec(0u64..10_000, 1..200),
        limits in prop::collection::vec(0u64..12_000, 1..50)
    ) {
        let mut lanes = LaneQueue::new();
        let mut heap = HeapQueue::new();
        for (i, &t) in times.iter().enumerate() {
            lanes.schedule(Time(t), i);
            heap.schedule(Time(t), i);
        }
        let mut limits = limits.clone();
        limits.sort_unstable();
        for &l in &limits {
            loop {
                let (c, h) = (lanes.pop_until(Time(l)), heap.pop_until(Time(l)));
                prop_assert_eq!(&c, &h);
                if c.is_none() {
                    break;
                }
            }
        }
    }

    /// Interleaved schedule/pop never goes back in time.
    #[test]
    fn queue_monotone_under_interleaving(
        ops in prop::collection::vec((0u64..100, prop::bool::ANY), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut last = Time::ZERO;
        for (delta, do_pop) in ops {
            if do_pop {
                if let Some((t, ())) = q.pop() {
                    prop_assert!(t >= last);
                    last = t;
                }
            } else {
                q.schedule_in(TimeDelta(delta), ());
            }
        }
    }

    /// Lemire bounded sampling stays in range for arbitrary bounds.
    #[test]
    fn rng_next_below_in_range(seed: u64, bound in 1u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    /// Shuffles are permutations.
    #[test]
    fn rng_shuffle_permutes(seed: u64, n in 0usize..100) {
        let mut rng = Rng::new(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        prop_assert_eq!(s, (0..n).collect::<Vec<_>>());
    }

    /// sample_indices returns k distinct in-range indices.
    #[test]
    fn rng_sample_indices_distinct(seed: u64, n in 1usize..200, frac in 0.0f64..=1.0) {
        let k = ((n as f64) * frac) as usize;
        let mut rng = Rng::new(seed);
        let s = rng.sample_indices(n, k);
        prop_assert_eq!(s.len(), k);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        prop_assert_eq!(d.len(), k);
        prop_assert!(s.iter().all(|&i| i < n));
    }

    /// Serialisation time is monotone in size and inversely so in rate.
    #[test]
    fn bandwidth_tx_time_monotone(bytes in 1u64..1_000_000, gbps in 1u64..400) {
        let bw = Bandwidth::from_gbps(gbps);
        prop_assert!(bw.tx_time(bytes) <= bw.tx_time(bytes + 1));
        let faster = Bandwidth::from_gbps(gbps + 1);
        prop_assert!(faster.tx_time(bytes) <= bw.tx_time(bytes));
        // And it is never zero for a nonzero payload.
        prop_assert!(bw.tx_time(bytes) > TimeDelta::ZERO);
    }

    /// bytes_in is the floor-inverse of tx_time.
    #[test]
    fn bandwidth_roundtrip(bytes in 1u64..10_000_000, gbps in 1u64..400) {
        let bw = Bandwidth::from_gbps(gbps);
        let t = bw.tx_time(bytes);
        let back = bw.bytes_in(t);
        prop_assert!(back >= bytes.saturating_sub(1));
        prop_assert!(back <= bytes + 1);
    }

    /// Histogram mean lies within [min, max]; quantiles are monotone.
    #[test]
    fn histogram_invariants(vals in prop::collection::vec(0u64..1_000_000_000, 1..500)) {
        let mut h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        let min = *vals.iter().min().unwrap() as f64;
        let max = *vals.iter().max().unwrap() as f64;
        prop_assert!(h.mean() >= min - 1e-9 && h.mean() <= max + 1e-9);
        let q25 = h.quantile(0.25).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q99);
        prop_assert!(q99 <= h.max().unwrap());
    }

    /// Derived RNG streams are reproducible and (statistically) distinct.
    #[test]
    fn rng_derivation_stable(root: u64, a: u64, b: u64) {
        let mut x = Rng::derive(root, a);
        let mut y = Rng::derive(root, a);
        prop_assert_eq!(x.next_u64(), y.next_u64());
        if a != b {
            let mut z = Rng::derive(root, b);
            // First draws colliding for distinct ids would be a red flag
            // (not impossible, but with 2^-64 probability).
            let mut x2 = Rng::derive(root, a);
            prop_assert_ne!(x2.next_u64(), z.next_u64());
        }
    }
}
