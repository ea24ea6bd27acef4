//! Regenerates **Figures 5–8** of the paper: the windy forest of
//! congestion trees with `x` % B nodes, sweeping the hotspot fraction
//! `p` from 0 to 100.
//!
//! Per figure there are three panels:
//!   (a) average receive rate of the non-hotspots (CC off / CC on /
//!       the theoretical maximum `tmax`),
//!   (b) average receive rate of the hotspots (CC off / CC on),
//!   (c) total-network-throughput improvement factor from enabling CC.
//!
//! ```text
//! cargo run --release -p ibsim-experiments --bin windy -- --x 25   # fig 5
//! cargo run --release -p ibsim-experiments --bin windy -- --x 50   # fig 6
//! cargo run --release -p ibsim-experiments --bin windy -- --x 75   # fig 7
//! cargo run --release -p ibsim-experiments --bin windy -- --x 100  # fig 8
//! ```

use ibsim::prelude::*;
use ibsim_experiments::{f2, f3, run_workload_cli, Args};

fn main() {
    let args = Args::parse();
    let opts = args.run_options();
    let preset = args.preset();
    let x = args.get_u32("x", 25);
    assert!(x <= 100, "--x is a percentage");
    let fig = match x {
        25 => "fig5",
        50 => "fig6",
        75 => "fig7",
        100 => "fig8",
        _ => "figX",
    };
    let topo = preset.topology();
    let cfg = preset.net_config().with_seed(args.seed());
    let dur = preset.durations();
    // `--workload SPEC` swaps the hotspot forest for a production-shaped
    // workload on the same preset fabric and exits.
    if let Some(wl) = args.workload() {
        run_workload_cli(&opts, &topo, cfg, &wl, dur);
        return;
    }
    let p_values = preset.p_values();
    let faults = args.faults();
    eprintln!(
        "windy ({fig}): preset={} nodes={} x={x}% B, p in {:?}",
        preset.name(),
        topo.num_hcas,
        p_values
    );

    let run_pair = |opts: &RunOptions, p: u32| {
        let roles = RoleSpec {
            num_nodes: topo.num_hcas,
            num_hotspots: preset.num_hotspots(),
            b_pct: x,
            b_p: p,
            c_pct_of_rest: 80,
        };
        opts.run_cc_pair(&topo, &cfg, roles, dur, None, faults.as_ref())
    };
    let pairs = parallel_map_progress(
        &p_values,
        args.threads(),
        |&p| run_pair(&opts, p),
        |done, total| eprintln!("  cell {done}/{total}"),
    );

    // ---- text table -----------------------------------------------------
    let mut rows = Vec::new();
    for (p, pair) in p_values.iter().zip(&pairs) {
        rows.push(vec![
            p.to_string(),
            f3(pair.off.non_hotspot_rx),
            f3(pair.on.non_hotspot_rx),
            f3(pair.on.tmax),
            f3(pair.off.hotspot_rx),
            f3(pair.on.hotspot_rx),
            f2(pair.improvement()),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &[
                "p",
                "nonhs rx (off)",
                "nonhs rx (on)",
                "tmax",
                "hs rx (off)",
                "hs rx (on)",
                "improvement"
            ],
            &rows
        )
    );

    // ---- panels as ASCII plots -------------------------------------------
    let xs: Vec<f64> = p_values.iter().map(|&p| p as f64).collect();
    let series_a = [
        PlotSeries {
            label: "non-hotspot rx, CC off (Gbit/s)",
            points: xs
                .iter()
                .zip(&pairs)
                .map(|(&x, c)| (x, c.off.non_hotspot_rx))
                .collect(),
        },
        PlotSeries {
            label: "non-hotspot rx, CC on (Gbit/s)",
            points: xs
                .iter()
                .zip(&pairs)
                .map(|(&x, c)| (x, c.on.non_hotspot_rx))
                .collect(),
        },
        PlotSeries {
            label: "tmax",
            points: xs
                .iter()
                .zip(&pairs)
                .map(|(&x, c)| (x, c.on.tmax))
                .collect(),
        },
    ];
    println!("({fig}a) average receive rate, non-hotspots vs p");
    println!("{}", ascii_plot(&series_a, 60, 14));

    let series_b = [
        PlotSeries {
            label: "hotspot rx, CC off (Gbit/s)",
            points: xs
                .iter()
                .zip(&pairs)
                .map(|(&x, c)| (x, c.off.hotspot_rx))
                .collect(),
        },
        PlotSeries {
            label: "hotspot rx, CC on (Gbit/s)",
            points: xs
                .iter()
                .zip(&pairs)
                .map(|(&x, c)| (x, c.on.hotspot_rx))
                .collect(),
        },
    ];
    println!("({fig}b) average receive rate, hotspots vs p");
    println!("{}", ascii_plot(&series_b, 60, 10));

    let series_c = [PlotSeries {
        label: "total throughput improvement (x)",
        points: xs
            .iter()
            .zip(&pairs)
            .map(|(&x, c)| (x, c.improvement()))
            .collect(),
    }];
    println!("({fig}c) total network throughput improvement vs p");
    println!("{}", ascii_plot(&series_c, 60, 12));

    // ---- files ------------------------------------------------------------
    let out = &opts.out;
    let csv: Vec<Vec<String>> = p_values
        .iter()
        .zip(&pairs)
        .map(|(p, c)| {
            vec![
                p.to_string(),
                f3(c.off.non_hotspot_rx),
                f3(c.on.non_hotspot_rx),
                f3(c.on.tmax),
                f3(c.off.hotspot_rx),
                f3(c.on.hotspot_rx),
                f3(c.off.total_rx),
                f3(c.on.total_rx),
                f3(c.improvement()),
            ]
        })
        .collect();
    let name = format!("windy_x{x}.csv");
    write_csv(
        &out.join(&name),
        &[
            "p",
            "nonhs_rx_off",
            "nonhs_rx_on",
            "tmax",
            "hs_rx_off",
            "hs_rx_on",
            "total_off",
            "total_on",
            "improvement",
        ],
        &csv,
    )
    .expect("write csv");
    write_json(&out.join(format!("windy_x{x}.json")), &pairs).expect("write json");
    eprintln!("wrote {}", out.join(&name).display());

    // --backend-compare: sweep the same p ladder under each
    // congestion-control backend (IB CC and DCQCN/PFC) and emit one
    // long-format CSV. The backend is a field of the options each cell
    // is handed, so both ladders share one parallel map.
    if args.get_flag("backend-compare") {
        let cells: Vec<(ibsim_cc::CcBackend, u32)> =
            [ibsim_cc::CcBackend::IbCc, ibsim_cc::CcBackend::Dcqcn]
                .into_iter()
                .flat_map(|b| p_values.iter().map(move |&p| (b, p)))
                .collect();
        let bpairs = parallel_map(&cells, args.threads(), |&(b, p)| {
            let opts = RunOptions {
                cc_backend: Some(b),
                ..opts.clone()
            };
            run_pair(&opts, p)
        });
        let mut rows = Vec::new();
        for (&(b, p), c) in cells.iter().zip(&bpairs) {
            rows.push(vec![
                p.to_string(),
                b.name().into(),
                f3(c.off.non_hotspot_rx),
                f3(c.on.non_hotspot_rx),
                f3(c.off.hotspot_rx),
                f3(c.on.hotspot_rx),
                f3(c.off.total_rx),
                f3(c.on.total_rx),
                f3(c.improvement()),
            ]);
        }
        let name = format!("windy_x{x}_backend_compare.csv");
        write_csv(
            &out.join(&name),
            &[
                "p",
                "backend",
                "nonhs_rx_off",
                "nonhs_rx_on",
                "hs_rx_off",
                "hs_rx_on",
                "total_off",
                "total_on",
                "improvement",
            ],
            &rows,
        )
        .expect("write csv");
        eprintln!("wrote {}", out.join(&name).display());
    }
}
