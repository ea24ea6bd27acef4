//! Per-fault recovery metrics from a sampled throughput timeline.
//!
//! The `faults` binary steps the simulation in fixed bins, recording one
//! [`Sample`] per bin (aggregate victim throughput and the largest CCTI
//! in the fabric). [`RecoveryMetrics::compute`] reduces that timeline
//! against the fault envelope into the numbers the ISSUE asks for:
//! time-to-recover to 95 % of pre-fault throughput, the throughput
//! floor while the fault is active, and how long the CCTI takes to
//! decay back to its pre-fault level after the fault clears.

use serde::Serialize;

/// Fraction of pre-fault throughput that counts as "recovered".
pub const RECOVERY_FRACTION: f64 = 0.95;

/// One timeline bin.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Sample {
    /// Bin end, microseconds from measurement start.
    pub t_us: f64,
    /// Aggregate delivered throughput over the bin, Gbit/s.
    pub gbps: f64,
    /// Largest CCTI across all CAs at the bin end.
    pub max_ccti: u16,
}

/// Reduced recovery metrics for one fault envelope.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct RecoveryMetrics {
    /// Fault envelope, microseconds from measurement start.
    pub fault_start_us: f64,
    pub fault_clear_us: f64,
    /// Mean throughput over the bins strictly before fault onset.
    pub pre_fault_gbps: f64,
    /// Minimum throughput over bins inside `[start, clear]` — the
    /// victim-throughput floor.
    pub floor_gbps: f64,
    /// Mean throughput over the bins after recovery (or after clear,
    /// when recovery never happens).
    pub post_fault_gbps: f64,
    /// First bin at/after `clear` reaching [`RECOVERY_FRACTION`] of
    /// pre-fault throughput, as a delay from `clear`. `None` if the
    /// timeline ends without recovering.
    pub time_to_recover_us: Option<f64>,
    /// Largest CCTI at the first bin at/after the fault clears.
    pub ccti_at_clear: u16,
    /// Largest CCTI over the pre-fault bins (the decay target).
    pub ccti_pre_fault: u16,
    /// Delay from `clear` until `max_ccti` first returns to the
    /// pre-fault level. `None` if it never does within the timeline.
    pub ccti_decay_us: Option<f64>,
}

impl RecoveryMetrics {
    /// Reduce `samples` (time-ordered) against one fault envelope.
    /// Returns `None` when the timeline has no bins before the fault —
    /// there is then no baseline to recover *to*.
    pub fn compute(
        samples: &[Sample],
        fault_start_us: f64,
        fault_clear_us: f64,
    ) -> Option<RecoveryMetrics> {
        let pre: Vec<&Sample> = samples.iter().filter(|s| s.t_us < fault_start_us).collect();
        if pre.is_empty() {
            return None;
        }
        let pre_fault_gbps = pre.iter().map(|s| s.gbps).sum::<f64>() / pre.len() as f64;
        let ccti_pre_fault = pre.iter().map(|s| s.max_ccti).max().unwrap_or(0);

        let floor_gbps = samples
            .iter()
            .filter(|s| s.t_us >= fault_start_us && s.t_us <= fault_clear_us)
            .map(|s| s.gbps)
            .fold(f64::INFINITY, f64::min);
        let floor_gbps = if floor_gbps.is_finite() {
            floor_gbps
        } else {
            // Fault envelope narrower than one bin: the floor is the
            // first bin that sees it.
            samples
                .iter()
                .find(|s| s.t_us >= fault_start_us)
                .map_or(pre_fault_gbps, |s| s.gbps)
        };

        let after: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.t_us >= fault_clear_us)
            .collect();
        let ccti_at_clear = after.first().map_or(0, |s| s.max_ccti);
        let target = RECOVERY_FRACTION * pre_fault_gbps;
        let recovered_at = after.iter().find(|s| s.gbps >= target).map(|s| s.t_us);
        let time_to_recover_us = recovered_at.map(|t| t - fault_clear_us);
        let post: Vec<&Sample> = match recovered_at {
            Some(t) => after.iter().filter(|s| s.t_us >= t).copied().collect(),
            None => after.clone(),
        };
        let post_fault_gbps = if post.is_empty() {
            0.0
        } else {
            post.iter().map(|s| s.gbps).sum::<f64>() / post.len() as f64
        };
        let ccti_decay_us = after
            .iter()
            .find(|s| s.max_ccti <= ccti_pre_fault)
            .map(|s| s.t_us - fault_clear_us);

        Some(RecoveryMetrics {
            fault_start_us,
            fault_clear_us,
            pre_fault_gbps,
            floor_gbps,
            post_fault_gbps,
            time_to_recover_us,
            ccti_at_clear,
            ccti_pre_fault,
            ccti_decay_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t_us: f64, gbps: f64, max_ccti: u16) -> Sample {
        Sample {
            t_us,
            gbps,
            max_ccti,
        }
    }

    #[test]
    fn clean_recovery_timeline() {
        // Steady 10 Gbit/s, fault at 30..60 dips to 2, recovers by 80,
        // CCTI spikes to 40 and decays to the pre-fault 0 by 90.
        let samples = vec![
            s(10.0, 10.0, 0),
            s(20.0, 10.0, 0),
            s(30.0, 6.0, 10),
            s(40.0, 2.0, 40),
            s(50.0, 2.5, 40),
            s(60.0, 5.0, 35),
            s(70.0, 8.0, 20),
            s(80.0, 9.8, 5),
            s(90.0, 10.0, 0),
        ];
        let m = RecoveryMetrics::compute(&samples, 30.0, 60.0).unwrap();
        assert_eq!(m.pre_fault_gbps, 10.0);
        assert_eq!(m.floor_gbps, 2.0);
        assert_eq!(m.ccti_pre_fault, 0);
        assert_eq!(m.ccti_at_clear, 35);
        // First bin at/after clear reaching 9.5 is t=80.
        assert_eq!(m.time_to_recover_us, Some(20.0));
        // CCTI back to <= 0 first at t=90.
        assert_eq!(m.ccti_decay_us, Some(30.0));
        assert!((m.post_fault_gbps - 9.9).abs() < 1e-9);
    }

    #[test]
    fn never_recovering_reports_none() {
        let samples = vec![
            s(10.0, 10.0, 0),
            s(20.0, 3.0, 50),
            s(30.0, 3.0, 50),
            s(40.0, 4.0, 50),
        ];
        let m = RecoveryMetrics::compute(&samples, 15.0, 25.0).unwrap();
        assert_eq!(m.time_to_recover_us, None);
        assert_eq!(m.ccti_decay_us, None);
        assert_eq!(m.floor_gbps, 3.0);
    }

    #[test]
    fn no_pre_fault_baseline_is_none() {
        let samples = vec![s(10.0, 5.0, 0)];
        assert!(RecoveryMetrics::compute(&samples, 5.0, 8.0).is_none());
        assert!(RecoveryMetrics::compute(&[], 5.0, 8.0).is_none());
    }

    #[test]
    fn sub_bin_fault_takes_first_touching_bin_as_floor() {
        let samples = vec![s(10.0, 10.0, 0), s(20.0, 7.0, 3), s(30.0, 10.0, 0)];
        // Fault lives entirely between bins 10 and 20.
        let m = RecoveryMetrics::compute(&samples, 12.0, 13.0).unwrap();
        assert_eq!(m.floor_gbps, 7.0);
        assert_eq!(m.time_to_recover_us, Some(30.0 - 13.0));
    }

    #[test]
    fn serialises_to_json() {
        let m = RecoveryMetrics::compute(
            &[s(1.0, 10.0, 0), s(2.0, 1.0, 9), s(3.0, 10.0, 1)],
            1.5,
            2.5,
        )
        .unwrap();
        let j = serde_json::to_string(&m).unwrap();
        assert!(j.contains("\"pre_fault_gbps\":10.0"), "{j}");
        assert!(j.contains("\"floor_gbps\":1.0"), "{j}");
    }
}
