//! **Figures 9 and 10**: the stormy forest of *moving* congestion trees
//! — average receive rate of all nodes as a function of decreasing
//! hotspot lifetime, CC off vs CC on. Figure 9 moves silent trees (C/V
//! mixes, `--v`), figure 10 windy ones (100 % B nodes at `--b --p`).

use super::{csv, f2, f3, json, plot, sweep, table, threads, ArgError, Args, Ctx, Job};
use crate::report::ascii_table;

pub(super) fn plan(a: &Args) -> Result<Job, ArgError> {
    let c = Ctx::new(a)?;
    let threads = threads(a)?;
    let (desc, roles, name) = if a.switch("b")? {
        let p = a.num("p", 0..=100u32)?;
        let desc = format!("100% B nodes, p={p} (fig 10)");
        (desc, c.roles(100, p, 80), format!("moving_b_p{p}"))
    } else {
        let v = a.num("v", 0..=100u32)?;
        let desc = format!("{v}% V / {}% C nodes (fig 9)", 100 - v);
        (desc, c.roles(0, 0, 100 - v), format!("moving_v{v}"))
    };
    Ok(Box::new(move || {
        let dur = c.preset.moving_durations();
        let lives = c.preset.lifetimes();
        c.banner("moving", format_args!("{desc}, lifetimes={lives:?}"));
        let pairs = sweep(threads, &lives, |&life| {
            c.opts.run_cc_pair(&c.topo, &c.cfg, roles, dur, Some(life))
        });

        // Mbit/s, like the paper's axis.
        let (header, rows) = table(
            &[
                ("lifetime (ms)", &|i| format!("{:.3}", lives[i].as_ms_f64())),
                ("all rx off (Mbit/s)", &|i| f3(pairs[i].off.all_rx * 1000.0)),
                ("all rx on (Mbit/s)", &|i| f3(pairs[i].on.all_rx * 1000.0)),
                ("gain", &|i| f2(pairs[i].on.all_rx / pairs[i].off.all_rx)),
            ],
            lives.len(),
        );
        println!("{}", ascii_table(&header, &rows));

        // X axis: decreasing lifetime, as in the paper (left = long life).
        let xs: Vec<f64> = lives.iter().map(|l| -l.as_ms_f64()).collect();
        plot(
            "average receive rate vs decreasing hotspot lifetime",
            &xs,
            14,
            &[
                (
                    "avg rx all nodes, CC off (Mbit/s); x = -lifetime(ms)",
                    &|i| pairs[i].off.all_rx * 1e3,
                ),
                ("avg rx all nodes, CC on (Mbit/s)", &|i| {
                    pairs[i].on.all_rx * 1e3
                }),
            ],
        );

        let (header, rows) = table(
            &[
                ("lifetime_s", &|i| format!("{:.6}", lives[i].as_secs_f64())),
                ("all_rx_off", &|i| f3(pairs[i].off.all_rx)),
                ("all_rx_on", &|i| f3(pairs[i].on.all_rx)),
                ("total_off", &|i| f3(pairs[i].off.total_rx)),
                ("total_on", &|i| f3(pairs[i].on.total_rx)),
                ("gain", &|i| f2(pairs[i].on.all_rx / pairs[i].off.all_rx)),
            ],
            lives.len(),
        );
        csv(&c.opts.out, &format!("{name}.csv"), &header, &rows)?;
        json(&c.opts.out, &format!("{name}.json"), &pairs)
    }))
}
