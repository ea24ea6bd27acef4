//! The metric names BENCHMARK.json lists, with their units. The smoke
//! test holds the two lists against the file.

/// `(name, unit)`; measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("total_s", "s"),
    ("sim_us_per_s", "sim-us/s"),
    ("peak_rss_mb", "MiB"),
];

/// Profiler bins reported, as `(ProfileReport subsystem, layer name)`.
/// The `fault` bin is left out: no workload installs a fault schedule.
pub const PROF_BINS: &[(&str, &str)] = &[
    ("queue_pop", "engine.queue_pop"),
    ("routing", "switch.routing"),
    ("arbitration", "switch.arbitration"),
    ("inject", "hca.inject"),
    ("sink", "hca.sink"),
    ("cc", "cc.timer"),
    ("pfc", "switch.pfc"),
    ("telemetry", "telemetry.sample"),
    ("audit", "check.audit"),
    ("barrier", "shard.barrier"),
];

/// `(name, unit)` of every per-layer metric except the `prof.*` ones,
/// which [`per_layer`] appends from [`PROF_BINS`].
const LAYERS: &[(&str, &str)] = &[
    // set-up, by layer
    ("topo.build_s", "s"),
    ("net.new_s", "s"),
    ("traffic.install_s", "s"),
    ("shard.partition_s", "s"),
    // the run loop, from outside
    ("net.run_until_s", "s"),
    ("net.finish_s", "s"),
    ("net.events", "count"),
    ("net.events_per_s", "1/s"),
    ("net.ns_per_event", "ns"),
    ("net.injected_pkts", "count"),
    ("net.delivered_pkts", "count"),
    ("net.events_per_delivered_pkt", "ratio"),
    ("net.queue_depth_mean", "count"),
    // congestion control, exact
    ("cc.fecn_marks", "count"),
    ("cc.becns", "count"),
    ("cc.max_ccti", "count"),
    // layer kernels
    ("engine.queue.hold_ns_per_op", "ns"),
    ("vlarb.pick_ns", "ns"),
    ("cc.on_becn_ns", "ns"),
    ("cc.on_timer_ns_per_flow", "ns"),
    ("flowtrace.decode_ns_per_rec", "ns"),
    ("engine.queue.kernel_vs_prof", "ratio"),
    // quick72_session stages
    ("session.sweep_s", "s"),
    ("session.ckpt_s", "s"),
    ("session.observed_s", "s"),
    ("session.replay_s", "s"),
    ("sweep.cell_setup_share", "ratio"),
    ("state.capture_s", "s"),
    ("state.save_s", "s"),
    ("state.load_s", "s"),
    ("state.restore_s", "s"),
    ("state.bytes", "B"),
    ("flowtrace.synth_s", "s"),
    ("flowtrace.records", "count"),
    ("session.observed_vs_plain", "ratio"),
    // cross-checks
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("shard.speedup", "ratio"),
    ("run_s.iqr_rel", "ratio"),
    // simulated results, for reading only
    ("sim.total_rx_gbps", "Gbit/s"),
    ("sim.victim_rx_gbps", "Gbit/s"),
    ("sim.latency_p99_us", "us"),
];

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let layers = LAYERS.iter().map(|&(name, unit)| (name.to_string(), unit));
    let bins = PROF_BINS.iter().flat_map(|&(_, layer)| {
        [
            ("calls", "count"),
            ("ns_per_call", "ns"),
            ("share", "ratio"),
        ]
        .map(|(what, unit)| (format!("prof.{layer}.{what}"), unit))
    });
    layers.chain(bins).collect()
}
