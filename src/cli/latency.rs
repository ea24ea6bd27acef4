//! Load–latency characterisation of the fabric: uniform traffic at a
//! sweep of offered loads, reporting end-to-end latency percentiles and
//! achieved throughput with CC off and on.
//!
//! Not a paper figure — the paper reports throughput only — but the
//! canonical companion curve: it shows the fabric behaving like a
//! queueing system (latency knee near saturation) and quantifies what
//! the residual CC marking costs at each load level.

use super::{csv, f2, sweep, table, threads, with_cc, ArgError, Args, Ctx, Job, MAX_US};
use crate::options::{ClockPlan, RunOptions};
use crate::report::ascii_table;
use ibsim_engine::time::{Time, TimeDelta};
use ibsim_net::{DestPattern, NetConfig, Network, TrafficClass, PAPER_MSG_BYTES};
use ibsim_topo::Topology;

struct Point {
    load_pct: u32,
    cc: bool,
}

/// One point's fabric, armed by the one arm like every other run:
/// uniform traffic at `p.load_pct` from every node.
fn point_network(opts: &RunOptions, topo: &Topology, cfg: &NetConfig, p: &Point) -> Network {
    let mut net = opts.network(topo, with_cc(cfg, p.cc));
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
    let end = Time::ZERO + measure + measure;
    let plan = ClockPlan {
        open: Some(Time::ZERO + measure), // warmup = one window
        close: Some(end),
        end,
        ..ClockPlan::default()
    };
    opts.drive(&mut net, plan, |_, _| true);
    opts.finish(&mut net, None, &[]).audit.raise();
    let lat = net.latency_histogram();
    let rx: f64 = (0..topo.num_hcas as u32)
        .map(|n| net.rx_gbps(n))
        .sum::<f64>()
        / topo.num_hcas as f64;
    let us = |q: f64| lat.quantile(q).map_or(0.0, |v| v as f64 / 1e6);
    (rx, us(0.5), us(0.99))
}

pub(super) fn plan(a: &Args) -> Result<Job, ArgError> {
    let mut c = Ctx::new(a)?;
    // A point is not a labelled scenario: there is no checkpoint file
    // name for it to save under or resume from.
    c.opts = c
        .opts
        .without(&["checkpoint_at", "resume_from"], "the latency sweep")?;
    let threads = threads(a)?;
    let measure = TimeDelta::from_ms(a.num("ms", 1..=MAX_US / 1000)?);
    Ok(Box::new(move || {
        let loads = [10u32, 30, 50, 70, 85, 95, 100];
        let points: Vec<Point> = loads
            .iter()
            .flat_map(|&load_pct| [false, true].map(|cc| Point { load_pct, cc }))
            .collect();
        c.banner("latency", format_args!("loads {loads:?}"));
        let results = sweep(threads, &points, |p| {
            run_point(&c.opts, &c.topo, &c.cfg, p, measure)
        });

        let (shown, rows) = table(
            &[
                ("offered load", &|i| format!("{}%", points[i].load_pct)),
                ("cc", &|i| if points[i].cc { "on" } else { "off" }.into()),
                ("avg rx (Gbit/s)", &|i| f2(results[i].0)),
                ("p50 (us)", &|i| f2(results[i].1)),
                ("p99 (us)", &|i| f2(results[i].2)),
            ],
            points.len(),
        );
        println!("{}", ascii_table(&shown, &rows));
        let header = ["load_pct", "cc", "rx_gbps", "p50_us", "p99_us"];
        csv(&c.opts.out, "latency.csv", &header, &rows)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_topo::FatTreeSpec;

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
