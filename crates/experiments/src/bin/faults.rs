//! Fault drill: inject a deterministic fault schedule into a windy
//! hotspot run, sample victim throughput across the fault window, and
//! report recovery metrics (time-to-recover, throughput floor, CCTI
//! decay) as `faults_recovery.json` — the artifact the CI faults leg
//! archives.
//!
//! ```text
//! cargo run --release -p ibsim-experiments --bin faults -- --audit
//! cargo run --release -p ibsim-experiments --bin faults -- \
//!     --faults 'flap:link=hca:1,at=3ms,dur=1ms,factor=stall' --bin-us 100
//! ```
//!
//! Without `--faults` a canonical drill runs: a full stall of one
//! victim link for 1 ms mid-measurement, plus a 25 % BECN-loss window
//! over every HCA link for the same millisecond. The process exits
//! nonzero if the end-of-run audit finds any *unsanctioned* violation;
//! sanctioned BECN drops are expected and merely ledgered.

use ibsim::prelude::*;
use ibsim_experiments::{f2, f3, or_exit, Args};
use ibsim_traffic::RoleSpec;

/// One stalled victim link plus lossy BECN delivery, both clearing
/// 1 ms before the run ends so recovery is observable.
const DEFAULT_SPEC: &str = "flap:link=hca:1,at=3ms,dur=1ms,factor=stall;\
                            becnloss:link=hcas,p=0.25,from=3ms,until=4ms";

fn main() {
    let args = Args::parse();
    // The drill's per-bin meter restarts are not checkpointable state.
    let opts = args.run_options();
    let opts = or_exit(opts.without(&["checkpoint_at", "resume_from"], "the fault drill"));
    let preset = args.preset();
    let spec = args.get("faults").unwrap_or(DEFAULT_SPEC);
    let schedule = FaultSchedule::from_spec(spec, args.seed())
        .unwrap_or_else(|e| panic!("--faults: {e}"));
    let bin = TimeDelta::from_us(args.get_u64("bin-us", 250));
    let topo = preset.topology();
    let cfg = preset.net_config().with_seed(args.seed());
    let dur = preset.durations();
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: preset.num_hotspots(),
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    // Optional victim-throughput floor: every bin below it is counted,
    // flight-recorded, and (first breach) dumps the flight window.
    let floor = args.get("floor").map(|v| {
        v.parse::<f64>()
            .unwrap_or_else(|_| panic!("--floor wants Gbit/s, got {v:?}"))
    });
    eprintln!(
        "faults: preset={} nodes={} spec={spec:?} bin={}us",
        preset.name(),
        topo.num_hcas,
        bin.as_ps() / 1_000_000
    );

    let (report, audit) = opts.run_drill(&topo, cfg, roles, dur, bin, &schedule, floor);

    // ---- per-bin timeline -------------------------------------------------
    let rows: Vec<Vec<String>> = report
        .samples
        .iter()
        .map(|s| {
            let phase = if s.t_us <= report.fault_start_us {
                "pre"
            } else if s.t_us <= report.fault_clear_us {
                "fault"
            } else {
                "post"
            };
            vec![
                f2(s.t_us),
                f3(s.gbps),
                s.max_ccti.to_string(),
                phase.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(&["t (us)", "victim rx (Gbit/s)", "max CCTI", "phase"], &rows)
    );

    // ---- recovery metrics -------------------------------------------------
    match &report.recovery {
        Some(r) => {
            println!("pre-fault victim rx : {} Gbit/s", f3(r.pre_fault_gbps));
            println!("floor during fault  : {} Gbit/s", f3(r.floor_gbps));
            println!("post-fault victim rx: {} Gbit/s", f3(r.post_fault_gbps));
            match r.time_to_recover_us {
                Some(t) => println!("time to 95% recovery: {} us", f2(t)),
                None => println!("time to 95% recovery: not reached in window"),
            }
            println!(
                "CCTI pre/at-clear   : {} / {}",
                r.ccti_pre_fault, r.ccti_at_clear
            );
            match r.ccti_decay_us {
                Some(t) => println!("CCTI decay to pre   : {} us", f2(t)),
                None => println!("CCTI decay to pre   : not reached in window"),
            }
        }
        None => println!("no pre-fault bins — recovery metrics unavailable"),
    }
    println!(
        "schedule effects: {} CNPs dropped, {} spared, {} credit returns stalled, {} delayed",
        report.fault_stats.becn_dropped,
        report.fault_stats.becn_spared,
        report.fault_stats.credits_stalled,
        report.fault_stats.credits_delayed,
    );

    // ---- artifact + verdict ----------------------------------------------
    let out = &opts.out;
    let path = out.join("faults_recovery.json");
    write_json(&path, &report).expect("write json");
    eprintln!("wrote {}", path.display());

    if let Some(f) = report.floor_gbps {
        eprintln!(
            "floor {} Gbit/s: {} breach(es) across {} bins",
            f2(f),
            report.floor_breaches,
            report.samples.len()
        );
    }
    if report.unsanctioned_violations > 0 {
        eprintln!("{}", audit.render());
        eprintln!(
            "FAIL: {} unsanctioned violation(s) — the fault schedule only \
             sanctions BECN drops; anything else is a real bug",
            report.unsanctioned_violations
        );
        std::process::exit(1);
    }
    eprintln!(
        "audit: clean ({} sanctioned BECN drops ledgered)",
        report.audited_sanctioned_drops
    );
}
