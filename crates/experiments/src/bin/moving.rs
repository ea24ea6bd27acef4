//! Regenerates **Figures 9 and 10** of the paper: the stormy forest of
//! *moving* congestion trees — average receive rate of all nodes as a
//! function of decreasing hotspot lifetime, CC off vs CC on.
//!
//! Figure 9 moves silent trees (C/V mixes):
//! ```text
//! cargo run --release -p ibsim-experiments --bin moving -- --v 20   # fig 9a
//! cargo run --release -p ibsim-experiments --bin moving -- --v 60   # fig 9b
//! ```
//!
//! Figure 10 moves windy trees (100 % B nodes at a given p):
//! ```text
//! cargo run --release -p ibsim-experiments --bin moving -- --b --p 30   # fig 10a
//! cargo run --release -p ibsim-experiments --bin moving -- --b --p 60   # fig 10b
//! cargo run --release -p ibsim-experiments --bin moving -- --b --p 90   # fig 10c
//! ```

use ibsim::prelude::*;
use ibsim_experiments::{f2, f3, Args};

fn main() {
    let args = Args::parse();
    let opts = args.run_options();
    let preset = args.preset();
    let windy = args.get_flag("b");
    let (roles_desc, roles) = if windy {
        let p = args.get_u32("p", 60);
        (
            format!("100% B nodes, p={p} (fig 10)"),
            RoleSpec {
                num_nodes: 0, // filled below
                num_hotspots: preset.num_hotspots(),
                b_pct: 100,
                b_p: p,
                c_pct_of_rest: 80,
            },
        )
    } else {
        let v = args.get_u32("v", 20);
        assert!(v <= 100, "--v is a percentage");
        (
            format!("{v}% V / {}% C nodes (fig 9)", 100 - v),
            RoleSpec {
                num_nodes: 0,
                num_hotspots: preset.num_hotspots(),
                b_pct: 0,
                b_p: 0,
                c_pct_of_rest: 100 - v,
            },
        )
    };

    let topo = preset.topology();
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        ..roles
    };
    let cfg = preset.net_config().with_seed(args.seed());
    let dur = preset.moving_durations();
    let lifetimes = preset.lifetimes();
    let faults = args.faults();
    eprintln!(
        "moving: preset={} nodes={} {roles_desc}, lifetimes={:?}",
        preset.name(),
        topo.num_hcas,
        lifetimes
    );

    let pairs = parallel_map_progress(
        &lifetimes,
        args.threads(),
        |&life| opts.run_cc_pair(&topo, &cfg, roles, dur, Some(life), faults.as_ref()),
        |done, total| eprintln!("  cell {done}/{total}"),
    );

    let mut rows = Vec::new();
    for (life, pair) in lifetimes.iter().zip(&pairs) {
        rows.push(vec![
            format!("{:.3}", life.as_ms_f64()),
            f3(pair.off.all_rx * 1000.0), // Mbit/s like the paper's axis
            f3(pair.on.all_rx * 1000.0),
            f2(pair.on.all_rx / pair.off.all_rx),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &[
                "lifetime (ms)",
                "all rx off (Mbit/s)",
                "all rx on (Mbit/s)",
                "gain"
            ],
            &rows
        )
    );

    // X axis: decreasing lifetime, as in the paper (left = long life).
    let xs: Vec<f64> = lifetimes.iter().map(|l| -l.as_ms_f64()).collect();
    let series = [
        PlotSeries {
            label: "avg rx all nodes, CC off (Mbit/s); x = -lifetime(ms)",
            points: xs
                .iter()
                .zip(&pairs)
                .map(|(&x, c)| (x, c.off.all_rx * 1e3))
                .collect(),
        },
        PlotSeries {
            label: "avg rx all nodes, CC on (Mbit/s)",
            points: xs
                .iter()
                .zip(&pairs)
                .map(|(&x, c)| (x, c.on.all_rx * 1e3))
                .collect(),
        },
    ];
    println!("average receive rate vs decreasing hotspot lifetime");
    println!("{}", ascii_plot(&series, 60, 14));

    let out = &opts.out;
    let csv: Vec<Vec<String>> = lifetimes
        .iter()
        .zip(&pairs)
        .map(|(l, c)| {
            vec![
                format!("{:.6}", l.as_secs_f64()),
                f3(c.off.all_rx),
                f3(c.on.all_rx),
                f3(c.off.total_rx),
                f3(c.on.total_rx),
                f2(c.on.all_rx / c.off.all_rx),
            ]
        })
        .collect();
    let name = if windy {
        format!("moving_b_p{}.csv", args.get_u32("p", 60))
    } else {
        format!("moving_v{}.csv", args.get_u32("v", 20))
    };
    write_csv(
        &out.join(&name),
        &[
            "lifetime_s",
            "all_rx_off",
            "all_rx_on",
            "total_off",
            "total_on",
            "gain",
        ],
        &csv,
    )
    .expect("write csv");
    write_json(&out.join(name.replace(".csv", ".json")), &pairs).expect("write json");
    eprintln!("wrote {}", out.join(&name).display());
}
