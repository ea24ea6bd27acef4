//! **Table II**: performance numbers (Gbit/s) for the silent forest of
//! congestion trees — 80 % C / 20 % V nodes, permanent hotspots,
//! everyone injecting at capacity. Five parts:
//!
//! 1. no hotspots (only V nodes active), CC off — the victims' baseline
//! 2. same, CC on — shows CC is harmless on a lightly loaded fabric
//! 3. hotspots active, CC off — the congestion-tree collapse
//! 4. hotspots active, CC on — the recovery
//! 5. total network throughput with and without CC

use super::{csv, f2, f3, json, sweep, threads, with_cc};
use super::{ArgError, Args, Ctx, Job};
use crate::replicas::run_scenario_replicated;
use crate::report::ascii_table;
use ibsim_traffic::RoleSpec;

pub(super) fn plan(a: &Args) -> Result<Job, ArgError> {
    let c = Ctx::new(a)?;
    let threads = threads(a)?;
    let num_hotspots = if a.given("hotspots") {
        a.num("hotspots", 1..=c.topo.num_hcas - 1)?
    } else {
        c.preset.num_hotspots()
    };
    let replicas = a.num("replicas", 1..=1000u64)?;
    Ok(Box::new(move || {
        let roles = RoleSpec {
            num_hotspots,
            ..c.silent()
        };
        let dur = c.preset.durations();
        let (w, m) = (dur.warmup, dur.measure);
        let detail = format_args!("hotspots={num_hotspots} warmup={w:?} measure={m:?}");
        c.banner("table2", detail);

        // (cc, contributors_active)
        let cells = [(false, false), (true, false), (false, true), (true, true)];
        let results = sweep(threads, &cells, |&(cc, active)| {
            let cfg = with_cc(&c.cfg, cc);
            c.opts.run_scenario(&c.topo, cfg, roles, dur, None, active)
        });
        let (base_off, base_on, hs_off, hs_on) =
            (&results[0], &results[1], &results[2], &results[3]);

        // (scenario, metric, Gbit/s)
        let lines = [
            ("No hotspots, no CC", "avg. receive rate", base_off.all_rx),
            ("No hotspots, CC on", "avg. receive rate", base_on.all_rx),
            ("Hotspots, no CC", "hotspots avg. rcv", hs_off.hotspot_rx),
            ("", "non-hotspots avg. rcv", hs_off.non_hotspot_rx),
            ("Hotspots, CC on", "hotspots avg. rcv", hs_on.hotspot_rx),
            ("", "non-hotspots avg. rcv", hs_on.non_hotspot_rx),
            ("Total throughput", "without CC", hs_off.total_rx),
            ("", "with CC", hs_on.total_rx),
        ];
        let rows: Vec<Vec<String>> = lines
            .iter()
            .map(|&(scenario, metric, gbps)| vec![scenario.into(), metric.into(), f3(gbps)])
            .collect();
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

        // Multi-seed replication: the hotspot cells again under several
        // seeds, their spread beside the point values.
        if replicas > 1 {
            let seeds: Vec<u64> = (0..replicas).map(|i| c.seed.wrapping_add(i)).collect();
            println!("\nreplication over {replicas} seeds (mean ± 95% CI):");
            for cc in [false, true] {
                let cfg = with_cc(&c.cfg, cc);
                let rep = run_scenario_replicated(
                    &c.opts, &c.topo, &cfg, roles, dur, None, &seeds, threads,
                );
                println!(
                    "  CC {}: hotspot {}  non-hotspot {}  total {}",
                    if cc { "on " } else { "off" },
                    rep.hotspot_rx.display(),
                    rep.non_hotspot_rx.display(),
                    rep.total_rx.display()
                );
            }
        }

        let out = &c.opts.out;
        // The same eight numbers, one metric name each.
        let metrics = [
            "no_hotspots_no_cc_all",
            "no_hotspots_cc_all",
            "hotspots_no_cc_hotspot",
            "hotspots_no_cc_non_hotspot",
            "hotspots_cc_hotspot",
            "hotspots_cc_non_hotspot",
            "total_no_cc",
            "total_cc",
        ];
        let csv_rows: Vec<Vec<String>> = metrics
            .iter()
            .zip(&lines)
            .map(|(metric, &(_, _, gbps))| vec![metric.to_string(), f3(gbps)])
            .collect();
        csv(out, "table2.csv", &["metric", "gbps"], &csv_rows)?;
        json(out, "table2.json", &results)?;

        Ok(())
    }))
}
