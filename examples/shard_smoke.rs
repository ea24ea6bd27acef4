//! One-shot scaling smoke for the sharded executor: run the 648-node
//! paper preset under uniform traffic at a few shard counts and print
//! events/s for each, plus the ratio against the serial engine.
//!
//! Because sharded runs are byte-identical to serial ones, the event
//! count is the same at every shard count and the events/s ratio *is*
//! the parallel speedup (or, where the shard count exceeds the cores
//! and the shards share threads, the orchestration overhead). It takes
//! a few seconds, so CI's sharded leg can afford it.
//!
//! The last line is `peak_rss_mb=<MiB>`, the process's peak resident
//! set (`VmHWM`). Run one shard count per process to read the memory a
//! run at that count needs: CI compares `20 1` against `20 8`.
//!
//! Usage: cargo run --release --example shard_smoke -- [sim_us [shards...]]
//!
//! Defaults: 20 us of simulated time at shard counts 1, 2, 4.

use ibsim::prelude::*;

fn run(shards: usize, sim_us: u64) -> (u64, f64) {
    let topo = FatTreeSpec::PAPER_648.build();
    let mut net = Network::new(&topo, NetConfig::paper());
    for h in 0..topo.num_hcas as u32 {
        net.set_classes(
            h,
            vec![TrafficClass::new(100, DestPattern::UniformExceptSelf, 4096)],
        );
    }
    if shards > 1 {
        net.set_shards(&topo, shards);
    }
    let t0 = std::time::Instant::now();
    net.run_until(Time::from_us(sim_us));
    let dt = t0.elapsed().as_secs_f64();
    (net.events_processed(), net.events_processed() as f64 / dt)
}

/// Peak resident set of this process in MiB (`VmHWM` in
/// `/proc/self/status`; 0 where there is no such file).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let sim_us: u64 = args.next().map_or(20, |a| a.parse().expect("sim_us"));
    let counts: Vec<usize> = {
        let rest: Vec<usize> = args.map(|a| a.parse().expect("shard count")).collect();
        if rest.is_empty() {
            vec![1, 2, 4]
        } else {
            rest
        }
    };
    let mut serial_rate = None;
    for n in counts {
        let (ev, rate) = run(n, sim_us);
        if n == 1 {
            serial_rate = Some(rate);
        }
        match serial_rate {
            Some(s) if n > 1 => {
                println!(
                    "shards={n}: {ev} events, {rate:.0} ev/s ({:.2}x serial)",
                    rate / s
                )
            }
            _ => println!("shards={n}: {ev} events, {rate:.0} ev/s"),
        }
    }
    println!("peak_rss_mb={:.1}", peak_rss_mb());
}
