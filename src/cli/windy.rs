//! **Figures 5–8**: the windy forest of congestion trees with `x` % B
//! nodes, sweeping the hotspot fraction `p` from 0 to 100. Per figure
//! there are three panels:
//!   (a) average receive rate of the non-hotspots (CC off / CC on /
//!       the theoretical maximum `tmax`),
//!   (b) average receive rate of the hotspots (CC off / CC on),
//!   (c) total-network-throughput improvement factor from enabling CC.

use super::{csv, f2, f3, json, plot, sweep, table, threads};
use super::{ArgError, Args, Ctx, Job};
use crate::report::ascii_table;

pub(super) fn plan(a: &Args) -> Result<Job, ArgError> {
    let c = Ctx::new(a)?;
    let threads = threads(a)?;
    let x = a.num("x", 0..=100u32)?;
    Ok(Box::new(move || {
        let fig = match x {
            25 => "fig5",
            50 => "fig6",
            75 => "fig7",
            100 => "fig8",
            _ => "figX",
        };
        let ps = c.preset.p_values();
        c.banner("windy", format_args!("{fig} x={x}% B, p in {ps:?}"));
        let pairs = sweep(threads, &ps, |&p| {
            let (roles, dur) = (c.roles(x, p, 80), c.preset.durations());
            c.opts.run_cc_pair(&c.topo, &c.cfg, roles, dur, None)
        });
        let n = ps.len();

        let (header, rows) = table(
            &[
                ("p", &|i| ps[i].to_string()),
                ("nonhs rx (off)", &|i| f3(pairs[i].off.non_hotspot_rx)),
                ("nonhs rx (on)", &|i| f3(pairs[i].on.non_hotspot_rx)),
                ("tmax", &|i| f3(pairs[i].on.tmax)),
                ("hs rx (off)", &|i| f3(pairs[i].off.hotspot_rx)),
                ("hs rx (on)", &|i| f3(pairs[i].on.hotspot_rx)),
                ("improvement", &|i| f2(pairs[i].improvement())),
            ],
            n,
        );
        println!("{}", ascii_table(&header, &rows));

        let xs: Vec<f64> = ps.iter().map(|&p| p as f64).collect();
        plot(
            &format!("({fig}a) average receive rate, non-hotspots vs p"),
            &xs,
            14,
            &[
                ("non-hotspot rx, CC off (Gbit/s)", &|i| {
                    pairs[i].off.non_hotspot_rx
                }),
                ("non-hotspot rx, CC on (Gbit/s)", &|i| {
                    pairs[i].on.non_hotspot_rx
                }),
                ("tmax", &|i| pairs[i].on.tmax),
            ],
        );
        plot(
            &format!("({fig}b) average receive rate, hotspots vs p"),
            &xs,
            10,
            &[
                ("hotspot rx, CC off (Gbit/s)", &|i| pairs[i].off.hotspot_rx),
                ("hotspot rx, CC on (Gbit/s)", &|i| pairs[i].on.hotspot_rx),
            ],
        );
        plot(
            &format!("({fig}c) total network throughput improvement vs p"),
            &xs,
            12,
            &[("total throughput improvement (x)", &|i| {
                pairs[i].improvement()
            })],
        );

        let out = &c.opts.out;
        let (header, rows) = table(
            &[
                ("p", &|i| ps[i].to_string()),
                ("nonhs_rx_off", &|i| f3(pairs[i].off.non_hotspot_rx)),
                ("nonhs_rx_on", &|i| f3(pairs[i].on.non_hotspot_rx)),
                ("tmax", &|i| f3(pairs[i].on.tmax)),
                ("hs_rx_off", &|i| f3(pairs[i].off.hotspot_rx)),
                ("hs_rx_on", &|i| f3(pairs[i].on.hotspot_rx)),
                ("total_off", &|i| f3(pairs[i].off.total_rx)),
                ("total_on", &|i| f3(pairs[i].on.total_rx)),
                ("improvement", &|i| f3(pairs[i].improvement())),
            ],
            n,
        );
        csv(out, &format!("windy_x{x}.csv"), &header, &rows)?;
        json(out, &format!("windy_x{x}.json"), &pairs)?;

        Ok(())
    }))
}
