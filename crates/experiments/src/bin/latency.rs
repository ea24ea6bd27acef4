//! Load–latency characterisation of the fabric: uniform traffic at a
//! sweep of offered loads, reporting end-to-end latency percentiles and
//! achieved throughput with CC off and on.
//!
//! Not a paper figure — the paper reports throughput only — but the
//! canonical companion curve: it shows the fabric behaving like a
//! queueing system (latency knee near saturation) and quantifies what
//! the residual CC marking costs at each load level.
//!
//! ```text
//! cargo run --release -p ibsim-experiments --bin latency -- --preset quick
//! ```

use ibsim::prelude::*;
use ibsim_experiments::{f2, or_exit, Args};

struct Point {
    load_pct: u32,
    cc: bool,
}

/// One point's fabric, armed by the one arm like every other run:
/// uniform traffic at `p.load_pct` from every node.
fn point_network(opts: &RunOptions, topo: &Topology, cfg: &NetConfig, p: &Point) -> Network {
    let mut c = cfg.clone();
    if !p.cc {
        c.cc = None;
    }
    let mut net = opts.network(topo, c, None);
    for n in 0..topo.num_hcas as u32 {
        net.set_classes(
            n,
            vec![TrafficClass::new(
                p.load_pct,
                DestPattern::UniformExceptSelf,
                PAPER_MSG_BYTES,
            )],
        );
    }
    net
}

fn run_point(
    opts: &RunOptions,
    topo: &Topology,
    cfg: &NetConfig,
    p: &Point,
    measure: TimeDelta,
) -> (f64, f64, f64) {
    let mut net = point_network(opts, topo, cfg, p);
    net.run_until(Time::ZERO + measure); // warmup = one window
    net.start_measurement();
    net.run_until(Time::ZERO + measure + measure);
    net.stop_measurement();
    let hint = if p.cc { "cc_on" } else { "cc_off" };
    opts.finish(&mut net, hint, &[]).audit.raise();
    let lat = net.latency_histogram();
    let rx: f64 = (0..topo.num_hcas as u32)
        .map(|n| net.rx_gbps(n))
        .sum::<f64>()
        / topo.num_hcas as f64;
    let us = |q: f64| lat.quantile(q).map_or(0.0, |v| v as f64 / 1e6);
    (rx, us(0.5), us(0.99))
}

fn main() {
    let args = Args::parse();
    // A point is not a labelled scenario: there is no checkpoint file
    // name for it to save under or resume from.
    let opts = args.run_options();
    let opts = or_exit(opts.without(&["checkpoint_at", "resume_from"], "the latency sweep"));
    let preset = args.preset();
    let topo = preset.topology();
    let cfg = preset.net_config().with_seed(args.seed());
    let measure = TimeDelta::from_ms(args.get_u64("ms", 2));
    let loads = [10u32, 30, 50, 70, 85, 95, 100];
    let points: Vec<Point> = loads
        .iter()
        .flat_map(|&l| {
            [
                Point {
                    load_pct: l,
                    cc: false,
                },
                Point {
                    load_pct: l,
                    cc: true,
                },
            ]
        })
        .collect();
    eprintln!(
        "load-latency sweep: {} nodes, loads {:?}",
        topo.num_hcas, loads
    );
    let results = parallel_map(&points, args.threads(), |p| {
        run_point(&opts, &topo, &cfg, p, measure)
    });

    let mut rows = Vec::new();
    for (p, (rx, p50, p99)) in points.iter().zip(&results) {
        rows.push(vec![
            format!("{}%", p.load_pct),
            if p.cc { "on" } else { "off" }.into(),
            f2(*rx),
            f2(*p50),
            f2(*p99),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &[
                "offered load",
                "cc",
                "avg rx (Gbit/s)",
                "p50 (us)",
                "p99 (us)"
            ],
            &rows
        )
    );

    let out = &opts.out;
    write_csv(
        &out.join("latency.csv"),
        &["load_pct", "cc", "rx_gbps", "p50_us", "p99_us"],
        &rows,
    )
    .expect("csv");
    eprintln!("wrote {}", out.join("latency.csv").display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--shards` (and every other run option) reaches a latency point:
    /// it used to be parsed and dropped.
    #[test]
    fn a_sharded_point_is_sharded_and_reports_the_serial_row() {
        let topo = FatTreeSpec::TEST_8.build();
        let cfg = NetConfig::paper();
        let p = Point {
            load_pct: 70,
            cc: true,
        };
        let sharded = RunOptions {
            shards: 4,
            audit: Some(20_000),
            ..RunOptions::default()
        };
        assert!(point_network(&sharded, &topo, &cfg, &p).shard_count() > 1);
        let measure = TimeDelta::from_us(200);
        let serial = run_point(&RunOptions::default(), &topo, &cfg, &p, measure);
        assert!(serial.0 > 0.0);
        assert_eq!(serial, run_point(&sharded, &topo, &cfg, &p, measure));
    }
}
