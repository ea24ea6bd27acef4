//! Experiment presets: the paper-exact setup and a scaled-down one.
//!
//! The paper simulates the 648-node Sun DCS 648 over 0.1 s timeslots.
//! At 0.071–1.24 host-s per simulated ms that is 9–150 s per cell on
//! one core, so every `ibsim` experiment also offers a `quick` preset:
//! the same two-level folded Clos at radix 12 (72 nodes, identical
//! structure and oversubscription) over shorter windows. EXPERIMENTS.md
//! records which preset produced each number.

use crate::experiment::RunDurations;
use ibsim_engine::time::TimeDelta;
use ibsim_net::NetConfig;
use ibsim_topo::{FatTreeSpec, Topology};

/// A ready-to-run experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// 72-node fat tree, millisecond windows: minutes per figure.
    Quick,
    /// 162-node fat tree (radix 18), intermediate fidelity.
    Medium,
    /// The paper's exact 648-node fat tree and 0.1 s windows.
    Paper,
}

impl Preset {
    pub fn parse(s: &str) -> Option<Preset> {
        match s {
            "quick" => Some(Preset::Quick),
            "medium" => Some(Preset::Medium),
            "paper" => Some(Preset::Paper),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Preset::Quick => "quick",
            Preset::Medium => "medium",
            Preset::Paper => "paper",
        }
    }

    pub fn fat_tree_spec(&self) -> FatTreeSpec {
        match self {
            Preset::Quick => FatTreeSpec::QUICK_72,
            Preset::Medium => FatTreeSpec {
                radix: 18,
                leafs: 18,
            },
            Preset::Paper => FatTreeSpec::PAPER_648,
        }
    }

    pub fn topology(&self) -> Topology {
        self.fat_tree_spec().build()
    }

    /// Number of hotspots: the paper uses 8 at 648 nodes; scaled
    /// proportionally (but at least 2) for the smaller instances so
    /// contributors-per-hotspot stays comparable.
    pub fn num_hotspots(&self) -> usize {
        match self {
            Preset::Quick => 2,
            Preset::Medium => 4,
            Preset::Paper => 8,
        }
    }

    /// Warmup/measure windows for fixed-hotspot scenarios.
    pub fn durations(&self) -> RunDurations {
        match self {
            Preset::Quick => RunDurations::new_ms(2, 4),
            Preset::Medium => RunDurations::new_ms(2, 4),
            Preset::Paper => RunDurations::new_ms(20, 100),
        }
    }

    /// Warmup/measure windows for moving-hotspot scenarios (need to
    /// span many hotspot lifetimes).
    pub fn moving_durations(&self) -> RunDurations {
        match self {
            Preset::Quick => RunDurations::new_ms(2, 20),
            Preset::Medium => RunDurations::new_ms(2, 20),
            Preset::Paper => RunDurations::new_ms(10, 100),
        }
    }

    /// Hotspot lifetimes swept by the moving-forest figures, longest
    /// first (the paper: 10 ms down to 1 ms).
    pub fn lifetimes(&self) -> Vec<TimeDelta> {
        match self {
            Preset::Paper => [10, 8, 6, 4, 2, 1]
                .into_iter()
                .map(TimeDelta::from_ms)
                .collect(),
            _ => [4_000, 3_000, 2_000, 1_500, 1_000, 500]
                .into_iter()
                .map(TimeDelta::from_us)
                .collect(),
        }
    }

    /// The p values swept by the windy-forest figures.
    pub fn p_values(&self) -> Vec<u32> {
        match self {
            Preset::Paper => (0..=10).map(|i| i * 10).collect(),
            _ => vec![0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
        }
    }

    /// The network configuration (paper §IV parameters, CC on).
    pub fn net_config(&self) -> NetConfig {
        NetConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for p in [Preset::Quick, Preset::Medium, Preset::Paper] {
            assert_eq!(Preset::parse(p.name()), Some(p));
        }
        assert_eq!(Preset::parse("nope"), None);
    }

    #[test]
    fn topologies_validate() {
        Preset::Quick.topology().validate().unwrap();
        Preset::Medium.topology().validate().unwrap();
        // Paper topology validated in ibsim-topo's own tests (slow).
    }

    #[test]
    fn paper_preset_matches_paper() {
        let p = Preset::Paper;
        assert_eq!(p.topology().num_hcas, 648);
        assert_eq!(p.num_hotspots(), 8);
        assert_eq!(p.durations().measure, TimeDelta::from_ms(100));
        assert_eq!(p.lifetimes()[0], TimeDelta::from_ms(10));
        assert_eq!(*p.lifetimes().last().unwrap(), TimeDelta::from_ms(1));
    }

    #[test]
    fn lifetimes_decreasing() {
        for p in [Preset::Quick, Preset::Medium, Preset::Paper] {
            let l = p.lifetimes();
            assert!(l.windows(2).all(|w| w[0] > w[1]), "{:?}", p);
        }
    }
}
