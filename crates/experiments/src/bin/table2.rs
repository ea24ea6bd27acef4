//! Regenerates **Table II** of the paper: performance numbers (Gbit/s)
//! for the silent forest of congestion trees.
//!
//! The paper's setup: 648 nodes, 80 % C nodes / 20 % V nodes, eight
//! permanent hotspots, everyone injecting at capacity. Five parts:
//!
//! 1. no hotspots (only V nodes active), CC off — the victims' baseline
//! 2. same, CC on — shows CC is harmless on a lightly loaded fabric
//! 3. hotspots active, CC off — the congestion-tree collapse
//! 4. hotspots active, CC on — the recovery
//! 5. total network throughput with and without CC
//!
//! ```text
//! cargo run --release -p ibsim-experiments --bin table2 -- --preset quick
//! ```

use ibsim::prelude::*;
use ibsim_experiments::{f2, f3, run_workload_cli, Args};

fn main() {
    let args = Args::parse();
    let opts = args.run_options();
    let preset = args.preset();
    let topo = preset.topology();
    let cfg = preset.net_config().with_seed(args.seed());
    let num_hotspots = args.get_u64("hotspots", preset.num_hotspots() as u64) as usize;
    let dur = preset.durations();
    // `--workload SPEC` swaps the silent forest for a production-shaped
    // workload on the same preset fabric and exits.
    if let Some(wl) = args.workload() {
        run_workload_cli(&opts, &topo, cfg, &wl, dur);
        return;
    }
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots,
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    eprintln!(
        "table2: preset={} nodes={} hotspots={} warmup={:?} measure={:?}",
        preset.name(),
        topo.num_hcas,
        num_hotspots,
        dur.warmup,
        dur.measure
    );

    // Optional multi-seed replication: re-run the hotspot cells under
    // several seeds and report the spread alongside the point values.
    let replicas = args.get_u64("replicas", 1);

    // The four cells are independent; run them in parallel.
    // (cc, contributors_active)
    let cells = [(false, false), (true, false), (false, true), (true, true)];
    let results = parallel_map(&cells, args.threads(), |&(cc, active)| {
        let mut c = cfg.clone();
        if !cc {
            c.cc = None;
        }
        opts.run_scenario(&topo, c, roles, dur, None, active, None)
    });
    let (base_off, base_on, hs_off, hs_on) = (&results[0], &results[1], &results[2], &results[3]);

    let rows = vec![
        vec![
            "No hotspots, no CC".into(),
            "avg. receive rate".into(),
            f3(base_off.all_rx),
        ],
        vec![
            "No hotspots, CC on".into(),
            "avg. receive rate".into(),
            f3(base_on.all_rx),
        ],
        vec![
            "Hotspots, no CC".into(),
            "hotspots avg. rcv".into(),
            f3(hs_off.hotspot_rx),
        ],
        vec![
            String::new(),
            "non-hotspots avg. rcv".into(),
            f3(hs_off.non_hotspot_rx),
        ],
        vec![
            "Hotspots, CC on".into(),
            "hotspots avg. rcv".into(),
            f3(hs_on.hotspot_rx),
        ],
        vec![
            String::new(),
            "non-hotspots avg. rcv".into(),
            f3(hs_on.non_hotspot_rx),
        ],
        vec![
            "Total throughput".into(),
            "without CC".into(),
            f3(hs_off.total_rx),
        ],
        vec![String::new(), "with CC".into(), f3(hs_on.total_rx)],
    ];
    println!("{}", ascii_table(&["scenario", "metric", "Gbit/s"], &rows));

    let improvement = hs_on.total_rx / hs_off.total_rx;
    let victim_recovery = hs_on.non_hotspot_rx / base_off.all_rx;
    let hotspot_cost = 1.0 - hs_on.hotspot_rx / hs_off.hotspot_rx;
    println!("derived:");
    println!(
        "  non-hotspot improvement by CC : {}x",
        f2(hs_on.non_hotspot_rx / hs_off.non_hotspot_rx)
    );
    println!("  total throughput improvement  : {}x", f2(improvement));
    println!(
        "  victims vs no-hotspot baseline: {}%",
        f2(victim_recovery * 100.0)
    );
    println!(
        "  hotspot rate cost of CC       : {}%",
        f2(hotspot_cost * 100.0)
    );
    println!(
        "  latency p50/p99 with CC       : {} / {} us (without: {} / {})",
        f2(hs_on.latency_p50_us),
        f2(hs_on.latency_p99_us),
        f2(hs_off.latency_p50_us),
        f2(hs_off.latency_p99_us)
    );
    if let (Some(fon), Some(foff)) = (hs_on.fairness, hs_off.fairness) {
        println!(
            "  contributor fairness (Jain)   : {} with CC, {} without",
            f2(fon),
            f2(foff)
        );
    }

    if replicas > 1 {
        let seeds: Vec<u64> = (0..replicas).map(|i| args.seed().wrapping_add(i)).collect();
        println!("\nreplication over {replicas} seeds (mean ± 95% CI):");
        for cc in [false, true] {
            let mut c = cfg.clone();
            if !cc {
                c.cc = None;
            }
            let threads = args.threads();
            let rep =
                ibsim::run_scenario_replicated(&opts, &topo, &c, roles, dur, None, &seeds, threads);
            println!(
                "  CC {}: hotspot {}  non-hotspot {}  total {}",
                if cc { "on " } else { "off" },
                rep.hotspot_rx.display(),
                rep.non_hotspot_rx.display(),
                rep.total_rx.display()
            );
        }
    }

    let out = &opts.out;
    let csv_rows: Vec<Vec<String>> = vec![
        vec!["no_hotspots_no_cc_all".into(), f3(base_off.all_rx)],
        vec!["no_hotspots_cc_all".into(), f3(base_on.all_rx)],
        vec!["hotspots_no_cc_hotspot".into(), f3(hs_off.hotspot_rx)],
        vec![
            "hotspots_no_cc_non_hotspot".into(),
            f3(hs_off.non_hotspot_rx),
        ],
        vec!["hotspots_cc_hotspot".into(), f3(hs_on.hotspot_rx)],
        vec!["hotspots_cc_non_hotspot".into(), f3(hs_on.non_hotspot_rx)],
        vec!["total_no_cc".into(), f3(hs_off.total_rx)],
        vec!["total_cc".into(), f3(hs_on.total_rx)],
    ];
    write_csv(&out.join("table2.csv"), &["metric", "gbps"], &csv_rows).expect("write csv");
    write_json(&out.join("table2.json"), &results).expect("write json");
    eprintln!("wrote {}", out.join("table2.csv").display());

    // --backend-compare: re-run the hotspot CC-on cell under each
    // congestion-control backend (IB CC and DCQCN/PFC) against the
    // shared CC-off baseline already computed above, and emit a
    // side-by-side CSV. The backend is a field of the options each
    // cell is handed, so both cells share one parallel map.
    if args.get_flag("backend-compare") {
        let backends = [ibsim_cc::CcBackend::IbCc, ibsim_cc::CcBackend::Dcqcn];
        let cells = parallel_map(&backends, args.threads(), |&b| {
            let opts = RunOptions {
                cc_backend: Some(b),
                ..opts.clone()
            };
            opts.run_scenario(&topo, cfg.clone(), roles, dur, None, true, None)
        });
        let mut rows = vec![vec![
            "none".into(),
            f3(hs_off.hotspot_rx),
            f3(hs_off.non_hotspot_rx),
            f3(hs_off.total_rx),
            "1.00".into(),
        ]];
        for (b, r) in backends.iter().zip(&cells) {
            rows.push(vec![
                b.name().into(),
                f3(r.hotspot_rx),
                f3(r.non_hotspot_rx),
                f3(r.total_rx),
                f2(r.total_rx / hs_off.total_rx),
            ]);
        }
        let name = "table2_backend_compare.csv";
        write_csv(
            &out.join(name),
            &["backend", "hs_rx", "nonhs_rx", "total_rx", "improvement"],
            &rows,
        )
        .expect("write csv");
        eprintln!("wrote {}", out.join(name).display());
    }
}
