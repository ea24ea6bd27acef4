//! Paper-figure time-series export: distil a telemetry sample table
//! into the data layout of the paper's Fig. 5–10 panels — per-sample
//! hotspot vs. victim (non-hotspot) receive throughput, total network
//! throughput, worst CCTI, and throttled-flow count over time. The
//! windy/moving figures plot exactly these series: the congestion dip
//! when hotspots ignite and the post-recovery return once CC brakes
//! the contributors.

use ibsim_net::SampleTable;
use serde::Serialize;
use std::fmt::Write as _;

/// One figure sample (a row of `figure_{run}.csv`).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct FigureRow {
    pub t_us: f64,
    /// Mean receive rate over the hotspot (oversubscribed) nodes.
    pub hotspot_rx_gbps: f64,
    /// Mean receive rate over every other node — the paper's victim
    /// flows, the ones congestion spreading punishes.
    pub victim_rx_gbps: f64,
    /// Sum of every node's receive rate.
    pub total_rx_gbps: f64,
    pub max_ccti: f64,
    pub throttled_flows: f64,
}

/// The distilled figure series for one run.
#[derive(Clone, Debug, Serialize)]
pub struct FigureSeries {
    pub rows: Vec<FigureRow>,
}

impl FigureSeries {
    /// Group the table's `hca{i}.rx_gbps` columns by hotspot
    /// membership and reduce each sample to one figure row. Unknown
    /// column layouts (no per-HCA rx columns) yield empty groups and
    /// zero series rather than panicking.
    pub fn from_table(table: &SampleTable, hotspots: &[u32]) -> Self {
        let mut hot_cols = Vec::new();
        let mut victim_cols = Vec::new();
        for (ci, name) in table.names().iter().enumerate() {
            let Some(rest) = name.strip_prefix("hca") else {
                continue;
            };
            let Some(idx) = rest.strip_suffix(".rx_gbps") else {
                continue;
            };
            let Ok(i) = idx.parse::<u32>() else { continue };
            if hotspots.contains(&i) {
                hot_cols.push(ci);
            } else {
                victim_cols.push(ci);
            }
        }
        let ccti_col = table.col("fabric.max_ccti");
        let throttled_col = table.col("fabric.throttled_flows");

        let mean = |vals: &[f64], cols: &[usize]| -> f64 {
            if cols.is_empty() {
                0.0
            } else {
                cols.iter().map(|&c| vals[c]).sum::<f64>() / cols.len() as f64
            }
        };
        let rows = table
            .rows()
            .map(|r| {
                let sum_all: f64 = hot_cols
                    .iter()
                    .chain(&victim_cols)
                    .map(|&c| r.values[c])
                    .sum();
                FigureRow {
                    t_us: r.t_ps as f64 / 1e6,
                    hotspot_rx_gbps: mean(&r.values, &hot_cols),
                    victim_rx_gbps: mean(&r.values, &victim_cols),
                    total_rx_gbps: sum_all,
                    max_ccti: ccti_col.map_or(0.0, |c| r.values[c]),
                    throttled_flows: throttled_col.map_or(0.0, |c| r.values[c]),
                }
            })
            .collect();
        FigureSeries { rows }
    }

    /// The figure CSV: one row per sample, the paper panels' columns.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "t_us,hotspot_rx_gbps,victim_rx_gbps,total_rx_gbps,max_ccti,throttled_flows\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                r.t_us,
                r.hotspot_rx_gbps,
                r.victim_rx_gbps,
                r.total_rx_gbps,
                r.max_ccti,
                r.throttled_flows
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SampleTable {
        let names = vec![
            "hca0.rx_gbps".to_string(),
            "hca1.rx_gbps".to_string(),
            "hca2.rx_gbps".to_string(),
            "fabric.max_ccti".to_string(),
            "fabric.throttled_flows".to_string(),
        ];
        let mut t = SampleTable::new(names);
        t.push(0, &[10.0, 4.0, 6.0, 0.0, 0.0]);
        t.push(100_000_000, &[12.0, 2.0, 4.0, 8.0, 3.0]);
        t
    }

    #[test]
    fn groups_by_hotspot_membership() {
        let fig = FigureSeries::from_table(&table(), &[0]);
        assert_eq!(fig.rows.len(), 2);
        let r = &fig.rows[1];
        assert_eq!(r.t_us, 100.0);
        assert_eq!(r.hotspot_rx_gbps, 12.0);
        assert_eq!(r.victim_rx_gbps, 3.0, "mean of hca1, hca2");
        assert_eq!(r.total_rx_gbps, 18.0);
        assert_eq!(r.max_ccti, 8.0);
        assert_eq!(r.throttled_flows, 3.0);
    }

    #[test]
    fn csv_has_the_figure_layout() {
        let fig = FigureSeries::from_table(&table(), &[0]);
        let csv = fig.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "t_us,hotspot_rx_gbps,victim_rx_gbps,total_rx_gbps,max_ccti,throttled_flows"
        );
        assert_eq!(lines.next().unwrap(), "0,10,5,20,0,0");
    }

    #[test]
    fn empty_groups_do_not_panic() {
        let t = SampleTable::new(vec!["x".into()]);
        let fig = FigureSeries::from_table(&t, &[0]);
        assert!(fig.rows.is_empty());
    }
}
