//! Whole-simulator throughput: events per second pushing real traffic
//! through the fat tree — the number that decides how long the paper
//! preset takes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ibsim::prelude::*;
use ibsim_net::{Network, TelemetryConfig};

/// Run uniform all-to-all on the given fat tree for `sim_us` and report
/// how many events that took.
fn run_uniform(spec: FatTreeSpec, sim_us: u64, cc: bool) -> u64 {
    run_uniform_sharded(spec, sim_us, cc, 1)
}

/// As [`run_uniform`], on `shards` parallel shards (1 = the serial
/// engine). Results are byte-identical across counts; only the
/// wall-clock differs.
fn run_uniform_sharded(spec: FatTreeSpec, sim_us: u64, cc: bool, shards: usize) -> u64 {
    let topo = spec.build();
    let cfg = ibsim_bench::bench_cfg(cc);
    let mut net = Network::new(&topo, cfg);
    for n in 0..topo.num_hcas as u32 {
        net.set_classes(
            n,
            vec![TrafficClass::new(100, DestPattern::UniformExceptSelf, 4096)],
        );
    }
    if shards > 1 {
        net.set_shards(&topo, shards);
    }
    net.run_until(Time::from_us(sim_us));
    net.events_processed()
}

/// As [`run_uniform`], with observability layers on. `telemetry` turns
/// on the 100 µs sampler + flight recorder, `trace` traces every flow
/// into node 0, `profile` arms the per-subsystem self-profiler. The
/// events/s ratio against the matching plain bench *is* the overhead
/// the BENCH_CORE.json envelope documents and tools/bench_gate.py
/// gates.
fn run_uniform_observed(
    spec: FatTreeSpec,
    sim_us: u64,
    cc: bool,
    telemetry: bool,
    trace: bool,
    profile: bool,
) -> u64 {
    let topo = spec.build();
    let cfg = ibsim_bench::bench_cfg(cc);
    let mut net = Network::new(&topo, cfg);
    if telemetry {
        net.enable_telemetry(TelemetryConfig::every(TimeDelta::from_us(100)));
    }
    if trace {
        net.enable_trace((1..topo.num_hcas as u32).map(|n| (n, 0)));
    }
    if profile {
        net.enable_profile();
    }
    for n in 0..topo.num_hcas as u32 {
        net.set_classes(
            n,
            vec![TrafficClass::new(100, DestPattern::UniformExceptSelf, 4096)],
        );
    }
    net.run_until(Time::from_us(sim_us));
    net.events_processed()
}

/// A production-shaped workload at paper scale: 32:1 incast into one
/// node of the 648-host fat tree. The fan-in port is the worst case for
/// the VoQ switch and the CC loop both, so events/s here bounds how
/// long the incast cells of the workloads bin take.
fn run_incast_648(sim_us: u64) -> u64 {
    let topo = FatTreeSpec::PAPER_648.build();
    let cfg = ibsim_bench::bench_cfg(true);
    let mut net = Network::new(&topo, cfg);
    let spec = ibsim_traffic::WorkloadSpec::parse(
        "incast:dst=0,fanin=32,bytes=65536,msgs=64,stagger_ns=500",
    )
    .expect("valid incast spec");
    spec.install(&mut net).expect("install incast");
    net.run_until(Time::from_us(sim_us));
    net.events_processed()
}

fn network_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("network_throughput");
    g.sample_size(10);
    for (name, spec, sim_us) in [
        ("fat8_uniform_200us", FatTreeSpec::TEST_8, 200u64),
        ("fat72_uniform_100us", FatTreeSpec::QUICK_72, 100),
        // Paper-scale preset: short window, but enough steady-state
        // traffic that the 648-node simulation speed is a tracked number.
        ("fat648_uniform_20us", FatTreeSpec::PAPER_648, 20),
    ] {
        let events = run_uniform(spec, sim_us, true);
        g.throughput(Throughput::Elements(events));
        g.bench_function(name, |b| {
            b.iter(|| run_uniform(spec, sim_us, true));
        });
    }
    // CC on vs off at identical workload: the CC overhead per event.
    for cc in [false, true] {
        let events = run_uniform(FatTreeSpec::TEST_8, 200, cc);
        g.throughput(Throughput::Elements(events));
        g.bench_function(format!("fat8_cc_{}", if cc { "on" } else { "off" }), |b| {
            b.iter(|| run_uniform(FatTreeSpec::TEST_8, 200, cc));
        });
    }
    // Observability overhead on the CC-on workload, both observing the
    // identical event stream (byte-identity is pinned in
    // tests/determinism.rs). `fat8_telemetry_on` is the sampler +
    // flight recorder only; `fat8_obs_on` piles on per-flow tracing
    // and the self-profiler — the full diagnostic stack. Both are
    // ratio-gated against `fat8_cc_on` (BENCH_CORE.json).
    for (name, trace, profile) in [("fat8_telemetry_on", false, false), ("fat8_obs_on", true, true)]
    {
        let events = run_uniform_observed(FatTreeSpec::TEST_8, 200, true, true, trace, profile);
        g.throughput(Throughput::Elements(events));
        g.bench_function(name, |b| {
            b.iter(|| run_uniform_observed(FatTreeSpec::TEST_8, 200, true, true, trace, profile));
        });
    }
    // The production-workload hot spot: a 32:1 incast into one 648-node
    // port. Compare against fat648_uniform_20us — the gap is the cost
    // of deep fan-in queues and a hot CC loop vs spread-out load.
    {
        let events = run_incast_648(150);
        g.throughput(Throughput::Elements(events));
        g.bench_function("fat648_incast", |b| {
            b.iter(|| run_incast_648(150));
        });
    }
    // The sharded executor at paper scale: byte-identical results, so
    // the events/s ratio against fat648_uniform_20us *is* the parallel
    // speedup. On a single hardware thread the executor runs its
    // windows inline and these measure pure orchestration overhead
    // (expect < 1×); with cores to spare the same numbers report the
    // real scaling.
    for shards in [2usize, 4] {
        let events = run_uniform_sharded(FatTreeSpec::PAPER_648, 20, true, shards);
        g.throughput(Throughput::Elements(events));
        g.bench_function(format!("fat648_uniform_20us_s{shards}"), |b| {
            b.iter(|| run_uniform_sharded(FatTreeSpec::PAPER_648, 20, true, shards));
        });
    }
    g.finish();
}

criterion_group!(benches, network_benches);
criterion_main!(benches);
