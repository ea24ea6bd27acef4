//! The paper's closing question (§VI): *"Regarding Tori or Meshes, the
//! picture is more unclear, thus this question should form the basis
//! for further research."* — this command runs it.
//!
//! The silent-forest scenario is repeated on a 2-D mesh, a 2-D torus
//! and a fat tree of comparable size, with identical CC parameters
//! (Table I), comparing how much of the fat-tree benefit survives on
//! topologies where congestion trees overlap multi-hop paths.

use super::{csv, f2, f3, table, ArgError, Args, Job};
use crate::experiment::RunDurations;
use crate::options::RunOptions;
use crate::report::ascii_table;
use ibsim_net::NetConfig;
use ibsim_topo::{FatTree3Spec, FatTreeSpec, Topology, TorusSpec};
use ibsim_traffic::RoleSpec;

pub(super) fn plan(a: &Args) -> Result<Job, ArgError> {
    let opts = a.run_options(RunOptions::default())?;
    let cfg = NetConfig::paper().with_seed(a.num("seed", 0..=u64::MAX)?);
    let torus = |wrap| {
        TorusSpec {
            xdim: 6,
            ydim: 6,
            hosts_per_switch: 2,
            wrap,
        }
        .build()
    };
    let cases: [(&str, Topology); 4] = [
        ("fat-tree 72 (2-level Clos)", FatTreeSpec::QUICK_72.build()),
        (
            "fat-tree3 54 (3-level Clos)",
            FatTree3Spec::QUICK_54.build(),
        ),
        ("mesh 6x6 (2/switch)", torus(false)),
        ("torus 6x6 (2/switch)", torus(true)),
    ];
    for (_, topo) in &cases {
        opts.check_flows(topo.num_hcas)?;
    }
    Ok(Box::new(move || {
        println!("silent forest (80% C / 20% V) on the paper's future-work topologies\n");
        let mut pairs = Vec::new();
        for (_, topo) in &cases {
            topo.validate()?;
            let roles = RoleSpec::silent(topo.num_hcas, 2);
            let dur = RunDurations::new_ms(2, 4);
            pairs.push(opts.run_cc_pair(topo, &cfg, roles, dur, None));
        }
        let fairness = |f: Option<f64>| f.map_or_else(|| "-".into(), |f| format!("{f:.3}"));
        let (shown, rows) = table(
            &[
                ("topology", &|i| cases[i].0.into()),
                ("victims (off)", &|i| f3(pairs[i].off.non_hotspot_rx)),
                ("victims (on)", &|i| f3(pairs[i].on.non_hotspot_rx)),
                ("hotspot (off)", &|i| f3(pairs[i].off.hotspot_rx)),
                ("hotspot (on)", &|i| f3(pairs[i].on.hotspot_rx)),
                ("improvement", &|i| f2(pairs[i].improvement())),
                ("fairness (on)", &|i| fairness(pairs[i].on.fairness)),
            ],
            cases.len(),
        );
        println!("{}", ascii_table(&shown, &rows));
        println!(
            "Reading: the no-CC collapse is deepest on the torus — dimension-order routing lets one\n\
             congestion tree entangle many multi-hop paths — yet the same Table I parameters recover\n\
             the victims to fat-tree levels, so the relative CC benefit is even larger. The paper's\n\
             open question (§VI) resolves positively for these instances, at a slightly higher\n\
             hotspot-utilisation cost and lower fairness than on the fat tree."
        );

        let header = [
            "topology",
            "victims_off",
            "victims_on",
            "hs_off",
            "hs_on",
            "improvement",
            "fairness",
        ];
        csv(&opts.out, "futurework.csv", &header, &rows)
    }))
}
