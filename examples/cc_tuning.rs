//! Interactive-style tour of the CC parameter space on a fixed hotspot
//! scenario — what the paper calls "a nontrivial task" (§IV): bad
//! parameter choices genuinely misbehave, and this example shows the
//! failure modes next to the paper's Table I setting.
//!
//! ```text
//! cargo run --release --example cc_tuning
//! ```

use ibsim::prelude::*;

struct Variant {
    name: &'static str,
    why: &'static str,
    params: CcParams,
}

fn main() {
    let preset = Preset::Quick;
    let topo = preset.topology();
    let roles = RoleSpec::silent(topo.num_hcas, preset.num_hotspots());
    let dur = preset.durations();

    let table1 = CcParams::paper_table1();
    table1.validate().unwrap();

    let variants = vec![
        Variant {
            name: "paper Table I",
            why: "the tuned setting the whole study runs on",
            params: table1.clone(),
        },
        Variant {
            name: "lenient threshold (w=1)",
            why: "detects congestion too late; trees grow before marking starts",
            params: CcParams {
                threshold: 1,
                ..table1.clone()
            },
        },
        Variant {
            name: "sparse marking (rate=31)",
            why: "too few FECNs; sources barely hear about congestion",
            params: CcParams {
                marking_rate: 31,
                ..table1.clone()
            },
        },
        Variant {
            name: "sluggish recovery (timer=1200)",
            why: "flows stay throttled long after congestion clears",
            params: CcParams {
                ccti_timer: 1200,
                ..table1.clone()
            },
        },
        Variant {
            name: "violent backoff (step=16)",
            why: "each BECN slams the brakes; the bottleneck underruns",
            params: CcParams {
                cct: Cct::populate(128, CctShape::Linear { step: 16 }),
                ..table1.clone()
            },
        },
        Variant {
            name: "SL-level throttling",
            why: "one guilty flow drags every flow of its service level down",
            params: CcParams {
                mode: CcMode::ServiceLevel,
                ..table1.clone()
            },
        },
    ];

    // CC-off reference.
    let mut cfg_off = preset.net_config();
    cfg_off.cc = None;
    let off = run_scenario(&topo, cfg_off, roles, dur, None);
    println!(
        "reference, CC disabled: victims {:.2} Gbit/s, hotspots {:.2} Gbit/s\n",
        off.non_hotspot_rx, off.hotspot_rx
    );

    let results = parallel_map(&variants, 0, |v| {
        let mut cfg = preset.net_config();
        cfg.cc = Some(v.params.clone());
        run_scenario(&topo, cfg, roles, dur, None)
    });

    println!(
        "{:<30} {:>10} {:>10} {:>9}",
        "setting", "victims", "hotspots", "total"
    );
    for (v, r) in variants.iter().zip(&results) {
        println!(
            "{:<30} {:>10.2} {:>10.2} {:>9.1}   # {}",
            v.name, r.non_hotspot_rx, r.hotspot_rx, r.total_rx, v.why
        );
    }

    let paper = &results[0];
    // The catastrophic detunings barely beat having no CC at all.
    assert!(
        results[1].total_rx < paper.total_rx * 0.5,
        "lenient threshold"
    );
    assert!(results[2].total_rx < paper.total_rx * 0.5, "sparse marking");
    assert!(results[5].total_rx < paper.total_rx * 0.5, "SL mode");
    // The brakes-heavy detunings pay for their victims at the hotspot.
    assert!(
        results[3].hotspot_rx < paper.hotspot_rx,
        "sluggish recovery"
    );
    assert!(results[4].hotspot_rx < paper.hotspot_rx, "violent backoff");
    println!(
        "\nTable I holds up: every detuning either lets the tree grow \
         (victims starve), overbrakes\n(the hotspot underruns), or punishes \
         innocents (SL mode)."
    );
}
