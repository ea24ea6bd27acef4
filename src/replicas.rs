//! Multi-seed replication: run the same scenario under several seeds
//! and report mean ± confidence interval, so experiment outputs carry
//! statistical weight rather than single-draw noise.

use crate::experiment::{RunDurations, ScenarioResult};
use crate::options::RunOptions;
use crate::sweep::parallel_map;
use ibsim_engine::time::TimeDelta;
use ibsim_net::NetConfig;
use ibsim_topo::Topology;
use ibsim_traffic::RoleSpec;
use serde::Serialize;

/// Mean, sample standard deviation and 95 % confidence half-width of
/// one metric across replicas.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Estimate {
    pub mean: f64,
    pub std: f64,
    pub ci95: f64,
    pub n: usize,
}

impl Estimate {
    /// Aggregate a sample. Empty input yields a zero estimate.
    pub fn from_samples(xs: &[f64]) -> Estimate {
        let n = xs.len();
        if n == 0 {
            return Estimate {
                mean: 0.0,
                std: 0.0,
                ci95: 0.0,
                n: 0,
            };
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Estimate {
                mean,
                std: 0.0,
                ci95: 0.0,
                n,
            };
        }
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let std = var.sqrt();
        // Normal approximation; fine for the ≥5 replicas we use.
        let ci95 = 1.96 * std / (n as f64).sqrt();
        Estimate { mean, std, ci95, n }
    }

    pub fn display(&self) -> String {
        format!("{:.3} ± {:.3}", self.mean, self.ci95)
    }
}

/// Replicated scenario metrics.
#[derive(Clone, Debug, Serialize)]
pub struct ReplicatedResult {
    pub hotspot_rx: Estimate,
    pub non_hotspot_rx: Estimate,
    pub all_rx: Estimate,
    pub total_rx: Estimate,
    pub replicas: Vec<ScenarioResult>,
}

/// Run the scenario once per seed (in parallel) under `opts` and
/// aggregate.
#[allow(clippy::too_many_arguments)]
pub fn run_scenario_replicated(
    opts: &RunOptions,
    topo: &Topology,
    cfg: &NetConfig,
    roles: RoleSpec,
    dur: RunDurations,
    hotspot_lifetime: Option<TimeDelta>,
    seeds: &[u64],
    threads: usize,
) -> ReplicatedResult {
    let replicas = parallel_map(seeds, threads, |&seed| {
        let cfg = cfg.clone().with_seed(seed);
        opts.run_scenario(topo, cfg, roles, dur, hotspot_lifetime, true)
    });
    let pick = |f: fn(&ScenarioResult) -> f64| {
        Estimate::from_samples(&replicas.iter().map(f).collect::<Vec<_>>())
    };
    ReplicatedResult {
        hotspot_rx: pick(|r| r.hotspot_rx),
        non_hotspot_rx: pick(|r| r.non_hotspot_rx),
        all_rx: pick(|r| r.all_rx),
        total_rx: pick(|r| r.total_rx),
        replicas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_of_constant_sample() {
        let e = Estimate::from_samples(&[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(e.mean, 5.0);
        assert_eq!(e.std, 0.0);
        assert_eq!(e.ci95, 0.0);
        assert_eq!(e.n, 4);
    }

    #[test]
    fn estimate_of_spread_sample() {
        let e = Estimate::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((e.mean - 3.0).abs() < 1e-12);
        assert!((e.std - (2.5f64).sqrt()).abs() < 1e-12);
        assert!(e.ci95 > 0.0);
        assert!(e.display().contains("±"));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(Estimate::from_samples(&[]).n, 0);
        let one = Estimate::from_samples(&[7.0]);
        assert_eq!(one.mean, 7.0);
        assert_eq!(one.ci95, 0.0);
    }

    #[test]
    fn replication_runs_and_aggregates() {
        use crate::prelude::*;
        let topo = FatTreeSpec::TEST_8.build();
        let roles = RoleSpec::silent(8, 1);
        let r = run_scenario_replicated(
            RunOptions::ambient(),
            &topo,
            &NetConfig::paper(),
            roles,
            RunDurations::new_ms(1, 2),
            None,
            &[1, 2, 3],
            1,
        );
        assert_eq!(r.replicas.len(), 3);
        assert_eq!(r.hotspot_rx.n, 3);
        // 8 nodes, one hotspot, CC on: the hotspot runs hot but the
        // coarse CCT index at this tiny scale costs utilisation.
        assert!(r.hotspot_rx.mean > 5.0, "{:?}", r.hotspot_rx);
        // Different seeds place hotspots differently; totals vary but
        // stay positive.
        assert!(r.total_rx.mean > 0.0);
    }
}
