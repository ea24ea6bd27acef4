//! Microbenchmarks of the DES kernel: event-queue throughput and the
//! random streams — the per-event costs everything else multiplies.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ibsim_engine::queue::EventQueue;
use ibsim_engine::rng::Rng;
use ibsim_engine::time::{Time, TimeDelta};
use ibsim_net::{Ev, Event};

/// The `at − now` mix of a 648-node fabric run, as `(delay in ps,
/// weight)`: link, pipeline and credit latencies, MTU and CNP
/// serialisation and their sums, the CCTI timer, and a tail of
/// arbitrary wake-up distances (`u64::MAX` stands for "draw one").
/// Measured by counting the inserts of the benchmark driver's
/// `silent648`; `uniform648` has the same heads and a thinner tail.
const FABRIC_MIX: [(u64, u64); 16] = [
    (50_000, 1272),
    (150_000, 1228),
    (819_200, 1179),
    (919_200, 877),
    (25_600, 523),
    (100_000, 429),
    (125_600, 390),
    (394_430, 302),
    (869_200, 298),
    (1_204_706, 297),
    (0, 133),
    (12_326, 132),
    (75_600, 132),
    (37_648, 132),
    (153_600_000, 50),
    (u64::MAX, 40),
];

fn fabric_delay(rng: &mut Rng) -> TimeDelta {
    let total: u64 = FABRIC_MIX.iter().map(|m| m.1).sum();
    let mut r = rng.next_below(total);
    for &(delay, weight) in &FABRIC_MIX {
        if r < weight {
            if delay == u64::MAX {
                return TimeDelta(1 + rng.next_below(30_000_000));
            }
            return TimeDelta(delay);
        }
        r -= weight;
    }
    unreachable!("the weights sum to `total`")
}

fn queue_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for &depth in &[64usize, 1024, 16384] {
        g.throughput(Throughput::Elements(depth as u64));
        g.bench_function(format!("fabric_mix_depth_{depth}"), |b| {
            // The engine's own traffic: same-timestamp batches out,
            // one successor per event in, at the delays a fabric
            // schedules with — nearly all of it lane appends — and
            // carrying the fabric's payload, so each entry is the 32
            // bytes the engine's are.
            let mut q = EventQueue::new();
            let mut rng = Rng::new(7);
            for i in 0..depth as u32 {
                let ev = Ev::pack(Event::SwTxDone {
                    sw: i,
                    port: (i % 36) as u16,
                });
                q.schedule(Time(rng.next_below(1_000_000)), ev);
            }
            let mut batch = Vec::new();
            b.iter(|| {
                let mut done = 0;
                while done < depth {
                    let at = q.pop_batch_until(Time::MAX, &mut batch).unwrap();
                    for &(seq, ev) in &batch {
                        q.note_dispatched(at, seq);
                        q.schedule(at + fabric_delay(&mut rng), ev);
                    }
                    done += batch.len();
                    batch.clear();
                }
            });
        });
        g.bench_function(format!("churn_depth_{depth}"), |b| {
            // The fallback path: successors uniform in 1..1000 ps, so no
            // delay ever repeats, no lane is ever claimed, and this
            // times the binary heap behind the lanes (pop one, schedule
            // one, at a held depth).
            let mut q = EventQueue::new();
            let mut rng = Rng::new(7);
            for _ in 0..depth {
                q.schedule(Time(rng.next_below(1_000_000)), 0u64);
            }
            b.iter(|| {
                for _ in 0..depth {
                    let (t, _) = q.pop().unwrap();
                    q.schedule(t + TimeDelta(1 + rng.next_below(1000)), 0u64);
                }
            });
        });
    }
    g.finish();
}

fn rng_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("next_u64_x1024", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1024 {
                acc ^= rng.next_u64();
            }
            black_box(acc)
        });
    });
    g.bench_function("next_below_x1024", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1024 {
                acc += rng.next_below(647);
            }
            black_box(acc)
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = queue_benches, rng_benches
}
criterion_main!(benches);
