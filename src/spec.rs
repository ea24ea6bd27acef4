//! Declarative scenario specifications: run any hotspot scenario from a
//! JSON file, no recompilation — the role the OMNeT++ `.ini` files play
//! for the paper's simulator.

use crate::experiment::MAX_US;
use crate::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// Which topology to build.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum TopoSpec {
    /// Two-level folded Clos (the paper's family).
    FatTree(FatTreeSpec),
    /// Three-level folded Clos.
    FatTree3(FatTree3Spec),
    /// 2-D mesh or torus.
    Torus(TorusSpec),
    /// One crossbar.
    SingleSwitch { ports: usize, hosts: usize },
}

impl TopoSpec {
    pub fn build(&self) -> Topology {
        match *self {
            TopoSpec::FatTree(s) => s.build(),
            TopoSpec::FatTree3(s) => s.build(),
            TopoSpec::Torus(s) => s.build(),
            TopoSpec::SingleSwitch { ports, hosts } => single_switch(ports, hosts),
        }
    }
}

/// A complete scenario: topology, placement, durations and the network
/// configuration. `roles.num_nodes` may be 0 (= filled from topology).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimSpec {
    pub topology: TopoSpec,
    pub roles: RoleSpec,
    #[serde(default = "default_warmup_ms")]
    pub warmup_ms: u64,
    #[serde(default = "default_measure_ms")]
    pub measure_ms: u64,
    /// Hotspot lifetime in microseconds; None keeps hotspots fixed.
    #[serde(default)]
    pub hotspot_lifetime_us: Option<u64>,
    /// Full network configuration (defaults to the paper's, CC on).
    #[serde(default = "NetConfig::paper")]
    pub net: NetConfig,
    /// Also run the identical scenario with CC disabled and report both.
    #[serde(default)]
    pub compare_cc_off: bool,
    /// A production-shaped workload to run *instead of* the hotspot
    /// scenario (`roles` is then ignored). Same shapes as the
    /// `--workload` flag: incast, event builder, collectives, trace
    /// replay.
    #[serde(default)]
    pub workload: Option<ibsim_traffic::WorkloadSpec>,
    /// How to execute and observe the run — everything the shared
    /// flags can say (`{"shards": 4, "audit": 20000, "out": "o"}`).
    /// Environment and flags layer over it.
    #[serde(default)]
    pub options: RunOptions,
}

/// What one run of a [`SimSpec`] reports: a hotspot-scenario summary,
/// or a workload summary when the spec carries a `workload`.
/// Serialises as the inner result, untagged.
#[derive(Clone, Debug)]
pub enum SimResult {
    Scenario(ScenarioResult),
    Workload(WorkloadResult),
}

impl Serialize for SimResult {
    fn to_value(&self) -> serde::Value {
        match self {
            SimResult::Scenario(r) => r.to_value(),
            SimResult::Workload(r) => r.to_value(),
        }
    }
}

/// Walk `given` against its own re-serialisation `known`, through
/// objects and array elements, and name by dotted path (`at` is the
/// prefix so far) the first key that `known` lacks.
fn unknown_key(given: &Value, known: &Value, at: &str) -> Result<(), String> {
    match (given, known) {
        (Value::Object(given), Value::Object(known)) => given.iter().try_for_each(|(key, g)| {
            let Some((_, k)) = known.iter().find(|(name, _)| name == key) else {
                let fields: Vec<&str> = known.iter().map(|(name, _)| name.as_str()).collect();
                return Err(format!(
                    "unknown key `{at}{key}`; the keys are {}",
                    fields.join(", ")
                ));
            };
            unknown_key(g, k, &format!("{at}{key}."))
        }),
        (Value::Array(given), Value::Array(known)) => (given.iter().zip(known).enumerate())
            .try_for_each(|(i, (g, k))| unknown_key(g, k, &format!("{at}{i}."))),
        _ => Ok(()),
    }
}

fn default_warmup_ms() -> u64 {
    2
}
fn default_measure_ms() -> u64 {
    4
}

impl SimSpec {
    /// Parse a spec, refusing by name any key it does not read, at any
    /// depth — a misspelt key would otherwise run the default silently.
    pub fn from_json(s: &str) -> Result<SimSpec, String> {
        let given: Value = serde_json::from_str(s).map_err(|e| e.to_string())?;
        let spec = SimSpec::from_value(&given).map_err(|e| e.to_string())?;
        unknown_key(&given, &spec.to_value(), "")?;
        Ok(spec)
    }

    /// Build and validate the topology, the roles (or the workload)
    /// and the network configuration — every error [`SimSpec::run`]
    /// returns, found before anything runs.
    pub fn check(&self) -> Result<(Topology, RoleSpec), String> {
        let topo = self.topology.build();
        topo.validate()?;
        let mut roles = self.roles;
        if roles.num_nodes == 0 {
            roles.num_nodes = topo.num_hcas;
        }
        if let Some(wl) = &self.workload {
            crate::workload::check(wl, &topo).map_err(|e| format!("workload: {e}"))?;
        } else {
            if roles.num_nodes != topo.num_hcas {
                return Err(format!(
                    "roles.num_nodes {} != topology nodes {}",
                    roles.num_nodes, topo.num_hcas
                ));
            }
            roles.check()?;
        }
        self.net.validate()?;
        self.options
            .check_flows(topo.num_hcas)
            .map_err(|e| e.to_string())?;
        if self.hotspot_lifetime_us == Some(0) {
            return Err("hotspot_lifetime_us must be positive".into());
        }
        // Windows fit the clock summed and quintupled, as on the command line.
        let windows = [
            ("warmup_ms", self.warmup_ms.saturating_mul(1000)),
            ("measure_ms", self.measure_ms.saturating_mul(1000)),
            ("hotspot_lifetime_us", self.hotspot_lifetime_us.unwrap_or(0)),
        ];
        if let Some((key, _)) = windows.iter().find(|(_, us)| *us > MAX_US) {
            return Err(format!("{key} is past the clock's range ({MAX_US} µs)"));
        }
        Ok((topo, roles))
    }

    /// Check, then run under `self.options`: the hotspot scenario, or
    /// the `workload` when the spec carries one (`roles` is then
    /// ignored). Returns the CC-configured result and, when
    /// `compare_cc_off`, the CC-off twin.
    pub fn run(&self) -> Result<(SimResult, Option<SimResult>), String> {
        let (topo, roles) = self.check()?;
        let dur = RunDurations::new_ms(self.warmup_ms, self.measure_ms);
        let life = self.hotspot_lifetime_us.map(TimeDelta::from_us);
        let opts = &self.options;
        let one = |cfg: NetConfig| match &self.workload {
            Some(wl) => SimResult::Workload(opts.run_workload(&topo, cfg, wl, dur)),
            None => SimResult::Scenario(opts.run_scenario(&topo, cfg, roles, dur, life, true)),
        };
        let main = one(self.net.clone());
        let off = self.compare_cc_off.then(|| {
            let mut cfg = self.net.clone();
            cfg.cc = None;
            one(cfg)
        });
        Ok((main, off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "topology": { "FatTree": { "radix": 4, "leafs": 4 } },
        "roles": { "num_nodes": 0, "num_hotspots": 1,
                   "b_pct": 0, "b_p": 0, "c_pct_of_rest": 80 },
        "warmup_ms": 1, "measure_ms": 1
    }"#;

    #[test]
    fn minimal_spec_parses_and_runs() {
        let spec = SimSpec::from_json(MINIMAL).unwrap();
        let (r, off) = spec.run().unwrap();
        let SimResult::Scenario(r) = r else {
            panic!("no workload in the spec, got {r:?}");
        };
        assert!(r.cc);
        assert!(off.is_none());
        assert!(r.hotspot_rx > 5.0, "{r:?}");
    }

    #[test]
    fn cc_off_twin() {
        let mut spec = SimSpec::from_json(MINIMAL).unwrap();
        spec.compare_cc_off = true;
        let (_, off) = spec.run().unwrap();
        assert!(matches!(off, Some(SimResult::Scenario(r)) if !r.cc));
    }

    #[test]
    fn net_overrides_apply() {
        let json = r#"{
            "topology": { "SingleSwitch": { "ports": 4, "hosts": 3 } },
            "roles": { "num_nodes": 0, "num_hotspots": 1,
                       "b_pct": 0, "b_p": 0, "c_pct_of_rest": 100 },
            "warmup_ms": 1, "measure_ms": 1,
            "net": { "mtu": 1024, "seed": 7 }
        }"#;
        let spec = SimSpec::from_json(json).unwrap();
        assert_eq!(spec.net.mtu, 1024);
        assert_eq!(spec.net.seed, 7);
        // Unspecified fields fall back to the paper defaults.
        assert_eq!(spec.net.link_bw.as_gbps_f64(), 20.0);
        spec.run().unwrap();
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let json = r#"{
            "topology": { "SingleSwitch": { "ports": 4, "hosts": 3 } },
            "roles": { "num_nodes": 99, "num_hotspots": 1,
                       "b_pct": 0, "b_p": 0, "c_pct_of_rest": 80 }
        }"#;
        let spec = SimSpec::from_json(json).unwrap();
        assert!(spec.run().unwrap_err().contains("num_nodes"));
    }

    /// `check`'s error on MINIMAL (8 nodes) after `edit` to its roles.
    fn roles_error(edit: impl FnOnce(&mut RoleSpec)) -> String {
        let mut spec = SimSpec::from_json(MINIMAL).unwrap();
        edit(&mut spec.roles);
        spec.check().unwrap_err()
    }

    #[test]
    fn zero_hotspots_rejected() {
        let err = roles_error(|r| r.num_hotspots = 0);
        assert!(err.contains("roles.num_hotspots "), "{err}");
    }

    #[test]
    fn more_hotspots_than_nodes_rejected() {
        let err = roles_error(|r| r.num_hotspots = 99);
        assert!(err.contains("roles.num_hotspots 99"), "{err}");
    }

    #[test]
    fn b_pct_past_100_rejected() {
        let err = roles_error(|r| r.b_pct = 500);
        assert!(err.contains("roles.b_pct 500"), "{err}");
    }

    #[test]
    fn b_p_past_100_rejected() {
        let err = roles_error(|r| r.b_p = 900);
        assert!(err.contains("roles.b_p 900"), "{err}");
    }

    #[test]
    fn c_pct_of_rest_past_100_rejected() {
        let err = roles_error(|r| r.c_pct_of_rest = 800);
        assert!(err.contains("roles.c_pct_of_rest 800"), "{err}");
    }

    proptest::proptest! {
        /// `check` and the placement agree: a roles block `check`
        /// accepts installs without a panic, one it refuses is refused
        /// naming a bad field. A set bit of `fold` folds that field
        /// into its valid range, so both sides are reached.
        #[test]
        fn check_agrees_with_the_placement(
            (hot, b_pct, b_p, c_pct) in (0usize..=1000, 0u32..=1000, 0u32..=1000, 0u32..=1000),
            fold: u8,
        ) {
            let mut spec = SimSpec::from_json(MINIMAL).unwrap();
            let pct = |bit: u8, v: u32| if fold & bit != 0 { v % 101 } else { v };
            let r = &mut spec.roles;
            r.num_hotspots = if fold & 1 != 0 { 1 + hot % 7 } else { hot };
            (r.b_pct, r.b_p, r.c_pct_of_rest) = (pct(2, b_pct), pct(4, b_p), pct(8, c_pct));
            let r = spec.roles;
            let bad = [
                ("num_hotspots", r.num_hotspots == 0 || r.num_hotspots >= 8),
                ("b_pct", r.b_pct > 100),
                ("b_p", r.b_p > 100),
                ("c_pct_of_rest", r.c_pct_of_rest > 100),
            ];
            match spec.check() {
                Ok((topo, roles)) => {
                    proptest::prop_assert!(bad.iter().all(|(_, b)| !b), "{r:?} accepted");
                    Scenario::install(roles, &mut Network::new(&topo, spec.net.clone()));
                }
                Err(e) => proptest::prop_assert!(
                    bad.iter().any(|(k, b)| *b && e.contains(&format!("roles.{k} "))),
                    "{r:?}: {e}"
                ),
            }
        }
    }

    #[test]
    fn zero_hotspot_lifetime_rejected() {
        let mut spec = SimSpec::from_json(MINIMAL).unwrap();
        spec.hotspot_lifetime_us = Some(0);
        let err = spec.check().unwrap_err();
        assert!(err.contains("lifetime_us must be positive"), "{err}");
    }

    #[test]
    fn windows_past_the_clock_rejected() {
        let base = SimSpec::from_json(MINIMAL).unwrap();
        let huge = u64::MAX / 1000;
        // The fixed delays stop at 1 s: one past it is refused, 1 s runs.
        let delay = |spec: &mut SimSpec, key: &str, d: TimeDelta| match key {
            "link_delay" => spec.net.link_delay = d,
            "switch_latency" => spec.net.switch_latency = d,
            _ => spec.net.credit_latency = d,
        };
        for key in [
            "warmup_ms",
            "measure_ms",
            "hotspot_lifetime_us",
            "link_delay",
            "switch_latency",
            "credit_latency",
        ] {
            let mut spec = base.clone();
            match key {
                "warmup_ms" => spec.warmup_ms = huge,
                "measure_ms" => spec.measure_ms = huge,
                "hotspot_lifetime_us" => spec.hotspot_lifetime_us = Some(huge),
                _ => {
                    delay(&mut spec, key, ibsim_net::config::MAX_DELAY);
                    assert!(spec.check().is_ok(), "{key} at the ceiling");
                    delay(&mut spec, key, TimeDelta(u64::MAX - 1000));
                }
            }
            let err = spec.check().unwrap_err();
            assert!(err.contains(key) && err.contains("clock"), "{key}: {err}");
        }
    }

    #[test]
    fn torus_and_fattree3_specs_run() {
        for topo in [
            r#"{ "Torus": { "xdim": 3, "ydim": 3, "hosts_per_switch": 1, "wrap": true } }"#,
            r#"{ "FatTree3": { "hosts_per_leaf": 2, "leaf_up": 2, "mid_up": 2,
                               "leafs_per_pod": 2, "pods": 2 } }"#,
        ] {
            let json = format!(
                r#"{{ "topology": {topo},
                     "roles": {{ "num_nodes": 0, "num_hotspots": 1,
                                "b_pct": 0, "b_p": 0, "c_pct_of_rest": 80 }},
                     "warmup_ms": 1, "measure_ms": 1 }}"#
            );
            let spec = SimSpec::from_json(&json).unwrap();
            spec.run().unwrap();
        }
    }
}
