//! Small kernels that replay one layer's public functions at the
//! operation counts the traced repetition reported. Each predicts the
//! profiler bin it sits under; a kernel that speeds up while its bin
//! stays flat is a microbenchmark-only win.

use ibsim::prelude::*;
use ibsim_cc::HcaCc;
use ibsim_engine::queue::CalendarQueue;
use ibsim_engine::rng::Rng;
use ibsim_net::VlArbiter;
use ibsim_traffic::flowtrace::synthesize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Counts from the traced repetition that size the kernels.
pub struct Sizing {
    pub events: u64,
    pub queue_depth_mean: f64,
    /// Simulated picoseconds per event: with the depth, this gives the
    /// mean time an event stays scheduled.
    pub ps_per_event: f64,
    pub arbitration_calls: u64,
    pub becns: u64,
    pub timer_calls: u64,
    pub nodes: u32,
    pub trace_records: u64,
    /// No kernel replays more operations than this.
    pub max_ops: u64,
}

pub struct KernelTimes {
    pub queue_hold_ns_per_op: f64,
    pub vlarb_pick_ns: f64,
    pub cc_on_becn_ns: f64,
    pub cc_on_timer_ns_per_flow: f64,
    pub flowtrace_decode_ns_per_rec: f64,
}

fn ops(count: u64, max: u64) -> u64 {
    count.clamp(1_000.min(max), max)
}

/// The hold model: keep `depth` events scheduled; drain the earliest
/// timestamp with `pop_batch_until` and schedule one successor per
/// event drained, as the run loop does.
fn queue_hold(s: &Sizing, seed: u64) -> f64 {
    let depth = (s.queue_depth_mean.round() as u64).max(1);
    // An event stays scheduled for depth × (simulated time per event)
    // on average; successors land uniformly within twice that.
    let stay = ((depth as f64 * s.ps_per_event) as u64).max(1);
    let mut rng = Rng::derive(seed, 0x4B01);
    let mut q: CalendarQueue<u64> = CalendarQueue::with_capacity(depth as usize);
    for i in 0..depth {
        q.schedule(Time(1 + rng.next_below(2 * stay)), i);
    }
    let n = ops(s.events, s.max_ops);
    let mut batch = Vec::new();
    let mut done = 0u64;
    let t0 = Instant::now();
    while done < n {
        let at = q
            .pop_batch_until(Time::MAX, &mut batch)
            .expect("the queue holds `depth` events");
        for &(seq, ev) in &batch {
            q.note_dispatched(at, seq);
            q.schedule(at + TimeDelta(1 + rng.next_below(2 * stay)), ev);
        }
        done += batch.len() as u64;
        batch.clear();
    }
    let ns = t0.elapsed().as_nanos() as f64;
    black_box(q.pending());
    ns / done as f64
}

fn vlarb_pick(s: &Sizing) -> f64 {
    let cfg = NetConfig::paper();
    let mut arb = VlArbiter::new(cfg.vl_arbitration.clone());
    let sizes: Vec<Option<u32>> = vec![Some(cfg.mtu); cfg.n_vls as usize];
    let n = ops(s.arbitration_calls, s.max_ops);
    let mut picked = 0u64;
    let t0 = Instant::now();
    for _ in 0..n {
        picked += black_box(arb.pick_sized(black_box(&sizes))).is_some() as u64;
    }
    let ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(picked, n, "every lane had a candidate");
    ns / n as f64
}

/// `on_becn` over every destination in turn, then `on_timer` until the
/// flows have recovered: (ns per BECN, ns per flow per timer expiry).
fn hca_cc(s: &Sizing) -> (f64, f64) {
    let params = Arc::new(ibsim_cc::CcParams::paper_table1());
    let flows = s.nodes.max(2) - 1;
    let mut cc = HcaCc::with_flow_capacity(params, flows as usize);
    let n = ops(s.becns, s.max_ops);
    let t0 = Instant::now();
    for i in 0..n {
        cc.on_becn(black_box((i % flows as u64) as u32));
    }
    let becn_ns = t0.elapsed().as_nanos() as f64 / n as f64;

    let calls = ops(
        s.timer_calls / s.nodes.max(1) as u64,
        s.max_ops / flows as u64 + 1,
    );
    let mut visited = 0u64;
    let t0 = Instant::now();
    for i in 0..calls {
        if black_box(cc.on_timer()) == 0 {
            // Recovered: throttle every flow again so the next expiry
            // has the full table to walk.
            cc.on_becn((i % flows as u64) as u32);
        }
        visited += flows as u64;
    }
    let timer_ns = t0.elapsed().as_nanos() as f64 / visited as f64;
    (becn_ns, timer_ns)
}

fn flowtrace_decode(s: &Sizing, seed: u64) -> f64 {
    let records = ops(s.trace_records, s.max_ops);
    let mut spec = TraceGenSpec::uniform_load(s.nodes.max(2), records, PAPER_MSG_BYTES, 13.5, 50);
    spec.seed = seed;
    let mut bytes = Vec::new();
    synthesize(&spec, &mut bytes).expect("synthesise into memory");
    let t0 = Instant::now();
    let mut reader = TraceReader::new(&bytes[..]).expect("a trace written a moment ago");
    let mut decoded = 0u64;
    while let Some(rec) = reader.next_record().expect("a well-formed record") {
        black_box(rec);
        decoded += 1;
    }
    let ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(decoded, records);
    ns / records as f64
}

pub fn run(s: &Sizing, seed: u64) -> KernelTimes {
    let (cc_on_becn_ns, cc_on_timer_ns_per_flow) = hca_cc(s);
    KernelTimes {
        queue_hold_ns_per_op: queue_hold(s, seed),
        vlarb_pick_ns: vlarb_pick(s),
        cc_on_becn_ns,
        cc_on_timer_ns_per_flow,
        flowtrace_decode_ns_per_rec: flowtrace_decode(s, seed),
    }
}
