//! Virtual-lane arbitration per the InfiniBand specification: a
//! high-priority and a low-priority table of (VL, weight) entries plus
//! a `limit_of_high_priority`, degrading gracefully to plain
//! round-robin when only one VL is configured.
//!
//! The paper's experiments run a single data VL with round-robin
//! arbitration, but the mechanism is part of the substrate ("arbitration
//! over multiple virtual lanes", §IV) and the companion study \[17\]
//! shows switch arbitration interacts with CC fairness — so the real
//! table-driven arbiter is implemented and unit-tested here, and any
//! experiment can opt into it through
//! [`NetConfig`](crate::config::NetConfig)'s `vl_arbitration`.

use crate::types::Vl;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One table entry: serve `vl` for up to `weight × 64` bytes before
/// moving on. A weight of 0 parks the entry (spec behaviour).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VlWeight {
    pub vl: Vl,
    pub weight: u8,
}

/// An IB VL arbitration configuration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VlArbTable {
    /// Served while the high-priority counter lasts.
    pub high: Vec<VlWeight>,
    /// Served when no high-priority entry is eligible or the limit ran
    /// out.
    pub low: Vec<VlWeight>,
    /// After `4096 × 2^limit` bytes of consecutive high-priority
    /// traffic, one low-priority slot is guaranteed (prevents
    /// starvation). 255 means "unlimited high priority".
    pub limit_of_high_priority: u8,
}

impl VlArbTable {
    /// Equal-weight round robin over `n_vls` lanes — the paper's setup.
    pub fn round_robin(n_vls: u8) -> Self {
        VlArbTable {
            high: Vec::new(),
            low: (0..n_vls).map(|vl| VlWeight { vl, weight: 16 }).collect(),
            limit_of_high_priority: 0,
        }
    }

    /// Sanity checks mirroring the spec's constraints.
    pub fn validate(&self, n_vls: u8) -> Result<(), String> {
        if self.high.is_empty() && self.low.is_empty() {
            return Err("empty arbitration table".into());
        }
        for e in self.high.iter().chain(&self.low) {
            if e.vl >= n_vls {
                return Err(format!("table references VL {} of {}", e.vl, n_vls));
            }
        }
        if self.low.is_empty() && self.limit_of_high_priority != 255 {
            return Err("no low-priority entries but a finite high-priority limit".into());
        }
        // Every configured VL should be servable from somewhere,
        // otherwise its traffic deadlocks.
        for vl in 0..n_vls {
            let served = self
                .high
                .iter()
                .chain(&self.low)
                .any(|e| e.vl == vl && e.weight > 0);
            if !served {
                return Err(format!("VL {vl} has no nonzero-weight entry"));
            }
        }
        Ok(())
    }
}

/// Runtime state of one port's arbiter. The table itself is shared
/// configuration (one `Arc` per network, not one clone per port); only
/// the round-robin cursors below are per-port hot state.
#[derive(Clone, Debug)]
pub struct VlArbiter {
    table: Arc<VlArbTable>,
    /// Index + remaining byte credit of the active high entry.
    high_idx: usize,
    high_left: u32,
    /// Same for the low table.
    low_idx: usize,
    low_left: u32,
    /// Bytes of high-priority service since the last low-priority slot.
    high_since_low: u64,
}

/// Weight unit: one weight point is 64 bytes of service.
const WEIGHT_BYTES: u32 = 64;

/// Serializable image of a [`VlArbiter`]'s round-robin position — the
/// cursor state a mid-run checkpoint must carry so the next grant after
/// restore picks the same lane an uninterrupted run would.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VlArbState {
    pub high_idx: u32,
    pub high_left: u32,
    pub low_idx: u32,
    pub low_left: u32,
    pub high_since_low: u64,
}

impl VlArbiter {
    pub fn new(table: impl Into<Arc<VlArbTable>>) -> Self {
        let table = table.into();
        let high_left = table
            .high
            .first()
            .map_or(0, |e| e.weight as u32 * WEIGHT_BYTES);
        let low_left = table
            .low
            .first()
            .map_or(0, |e| e.weight as u32 * WEIGHT_BYTES);
        VlArbiter {
            table,
            high_idx: 0,
            high_left,
            low_idx: 0,
            low_left,
            high_since_low: 0,
        }
    }

    pub fn table(&self) -> &VlArbTable {
        &self.table
    }

    /// Export the arbiter's round-robin cursors (checkpoint). The table
    /// itself is configuration, rebuilt from `NetConfig`.
    pub fn state(&self) -> VlArbState {
        VlArbState {
            high_idx: self.high_idx as u32,
            high_left: self.high_left,
            low_idx: self.low_idx as u32,
            low_left: self.low_left,
            high_since_low: self.high_since_low,
        }
    }

    /// Overwrite the arbiter's cursors (checkpoint restore).
    pub fn restore_state(&mut self, s: &VlArbState) {
        self.high_idx = s.high_idx as usize;
        self.high_left = s.high_left;
        self.low_idx = s.low_idx as usize;
        self.low_left = s.low_left;
        self.high_since_low = s.high_since_low;
    }

    /// Byte budget after which a low-priority slot must be offered.
    fn high_limit_bytes(&self) -> u64 {
        match self.table.limit_of_high_priority {
            255 => u64::MAX,
            l => 4096u64 << l,
        }
    }

    /// Choose among per-VL candidates where `sizes[vl]` is the byte
    /// size of VL `vl`'s head packet (`None` = nothing eligible on that
    /// lane). The chosen entry is charged its candidate's size.
    /// Returns the VL to serve, or `None` if nothing is eligible.
    pub fn pick_sized(&mut self, sizes: &[Option<u32>]) -> Option<Vl> {
        // Fast path for the paper's single-VL configuration.
        if self.table.high.is_empty() && self.table.low.len() == 1 {
            let vl = self.table.low[0].vl;
            return match sizes.get(vl as usize) {
                Some(Some(_)) => Some(vl),
                _ => None,
            };
        }
        let low_is_waiting = self
            .table
            .low
            .iter()
            .any(|e| e.weight > 0 && sizes.get(e.vl as usize).is_some_and(|s| s.is_some()));
        let high_allowed = self.high_since_low < self.high_limit_bytes() || !low_is_waiting;

        if high_allowed {
            if let Some((vl, bytes)) = self.select(true, sizes) {
                self.high_since_low = self.high_since_low.saturating_add(bytes as u64);
                return Some(vl);
            }
        }
        if let Some((vl, _)) = self.select(false, sizes) {
            self.high_since_low = 0;
            return Some(vl);
        }
        // The starvation limit suppressed high priority, but low had
        // nothing servable after all: let high proceed.
        if !high_allowed {
            if let Some((vl, bytes)) = self.select(true, sizes) {
                self.high_since_low = self.high_since_low.saturating_add(bytes as u64);
                return Some(vl);
            }
        }
        None
    }

    /// Convenience wrapper over [`pick_sized`](Self::pick_sized) for a
    /// uniform candidate size on every eligible lane.
    pub fn pick(&mut self, eligible: impl Fn(Vl) -> bool, bytes: u32) -> Option<Vl> {
        let max_vl = self
            .table
            .high
            .iter()
            .chain(&self.table.low)
            .map(|e| e.vl)
            .max()
            .unwrap_or(0);
        let sizes: Vec<Option<u32>> = (0..=max_vl)
            .map(|vl| eligible(vl).then_some(bytes))
            .collect();
        self.pick_sized(&sizes)
    }

    /// Weighted round robin within one table; charges the winner.
    fn select(&mut self, high: bool, sizes: &[Option<u32>]) -> Option<(Vl, u32)> {
        let (table, idx, left) = if high {
            (&self.table.high, &mut self.high_idx, &mut self.high_left)
        } else {
            (&self.table.low, &mut self.low_idx, &mut self.low_left)
        };
        if table.is_empty() {
            return None;
        }
        let n = table.len();
        // The active entry keeps its slot while it has budget left and
        // stays eligible; otherwise scan forward (weighted round robin).
        for step in 0..n {
            let i = (*idx + step) % n;
            let e = table[i];
            if e.weight == 0 {
                continue;
            }
            let Some(Some(bytes)) = sizes.get(e.vl as usize).copied() else {
                continue;
            };
            if step != 0 || *left == 0 {
                // Entered a new entry (or refreshed an exhausted one):
                // reset its byte budget.
                *idx = i;
                *left = e.weight as u32 * WEIGHT_BYTES;
            }
            // Charge the service; rotate when the budget is spent.
            *left = left.saturating_sub(bytes);
            if *left == 0 {
                let next = (i + 1) % n;
                *idx = next;
                *left = table[next].weight as u32 * WEIGHT_BYTES;
            }
            return Some((e.vl, bytes));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_table_validates() {
        for n in 1..=15u8 {
            VlArbTable::round_robin(n).validate(n).unwrap();
        }
    }

    #[test]
    fn validate_rejects_bad_tables() {
        let t = VlArbTable {
            high: vec![],
            low: vec![],
            limit_of_high_priority: 0,
        };
        assert!(t.validate(1).is_err());

        let t = VlArbTable {
            high: vec![],
            low: vec![VlWeight { vl: 5, weight: 1 }],
            limit_of_high_priority: 0,
        };
        assert!(t.validate(2).is_err(), "references VL out of range");

        // VL 1 configured but never servable.
        let t = VlArbTable {
            high: vec![],
            low: vec![VlWeight { vl: 0, weight: 1 }],
            limit_of_high_priority: 0,
        };
        assert!(t.validate(2).is_err());
    }

    #[test]
    fn single_vl_always_picks_it() {
        let mut a = VlArbiter::new(VlArbTable::round_robin(1));
        for _ in 0..10 {
            assert_eq!(a.pick(|_| true, 2048), Some(0));
        }
        assert_eq!(a.pick(|_| false, 2048), None);
    }

    #[test]
    fn weighted_shares_follow_weights() {
        // VL0 weight 32 (2 KiB), VL1 weight 16 (1 KiB): 2:1 service in
        // bytes for same-size packets.
        let t = VlArbTable {
            high: vec![],
            low: vec![
                VlWeight { vl: 0, weight: 32 },
                VlWeight { vl: 1, weight: 16 },
            ],
            limit_of_high_priority: 0,
        };
        let mut a = VlArbiter::new(t);
        let mut counts = [0u32; 2];
        for _ in 0..300 {
            let vl = a.pick(|_| true, 1024).unwrap();
            counts[vl as usize] += 1;
        }
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.2, "{counts:?}");
    }

    #[test]
    fn high_priority_preempts_low() {
        let t = VlArbTable {
            high: vec![VlWeight { vl: 1, weight: 255 }],
            low: vec![VlWeight { vl: 0, weight: 16 }],
            limit_of_high_priority: 255,
        };
        let mut a = VlArbiter::new(t);
        // Both eligible: VL1 (high) always wins.
        for _ in 0..20 {
            assert_eq!(a.pick(|_| true, 2048), Some(1));
        }
        // VL1 idle: VL0 gets served.
        assert_eq!(a.pick(|vl| vl == 0, 2048), Some(0));
    }

    #[test]
    fn starvation_limit_lets_low_through() {
        let t = VlArbTable {
            high: vec![VlWeight { vl: 1, weight: 255 }],
            low: vec![VlWeight { vl: 0, weight: 16 }],
            limit_of_high_priority: 0, // one low slot per 4096 B of high
        };
        let mut a = VlArbiter::new(t);
        let mut picks = Vec::new();
        for _ in 0..12 {
            picks.push(a.pick(|_| true, 2048).unwrap());
        }
        let low_served = picks.iter().filter(|&&v| v == 0).count();
        assert!(low_served >= 3, "low VL starved: {picks:?}");
        assert!(picks.contains(&1));
    }

    #[test]
    fn equal_weights_drain_within_one_weight_round() {
        // Equal-weight round robin with every lane backlogged: one
        // weight round (weight x 64 bytes per lane) serves each lane
        // its exact byte share before any lane gets a second turn —
        // the fairness contract the paper's single-VL setup degrades
        // from.
        let mut a = VlArbiter::new(VlArbTable::round_robin(4));
        let picks_per_lane = 16 * WEIGHT_BYTES / 512; // = 2
        for round in 0..3 {
            let mut counts = [0u32; 4];
            for _ in 0..picks_per_lane * 4 {
                let vl = a.pick(|_| true, 512).unwrap();
                counts[vl as usize] += 1;
            }
            assert_eq!(
                counts, [picks_per_lane; 4],
                "unequal service in weight round {round}"
            );
        }
    }

    #[test]
    fn idle_lane_share_is_redistributed_not_banked() {
        // A lane that was idle during its turn must not accumulate
        // service debt it can later burst through: with VL1 idle the
        // others split the bandwidth, and once VL1 wakes it gets only
        // its normal per-round share.
        let mut a = VlArbiter::new(VlArbTable::round_robin(2));
        for _ in 0..10 {
            assert_eq!(a.pick(|vl| vl == 0, 1024), Some(0));
        }
        let mut first_round = Vec::new();
        for _ in 0..2 {
            first_round.push(a.pick(|_| true, 1024).unwrap());
        }
        assert_eq!(
            first_round.iter().filter(|&&v| v == 1).count(),
            1,
            "woken lane must get exactly its share: {first_round:?}"
        );
    }

    #[test]
    fn zero_weight_entries_skipped() {
        let t = VlArbTable {
            high: vec![],
            low: vec![
                VlWeight { vl: 0, weight: 0 },
                VlWeight { vl: 1, weight: 16 },
            ],
            limit_of_high_priority: 0,
        };
        let mut a = VlArbiter::new(t);
        for _ in 0..5 {
            assert_eq!(a.pick(|_| true, 512), Some(1));
        }
    }

    #[test]
    fn ineligible_vls_skipped_without_burning_budget() {
        let t = VlArbTable::round_robin(3);
        let mut a = VlArbiter::new(t);
        // Only VL2 eligible.
        for _ in 0..5 {
            assert_eq!(a.pick(|vl| vl == 2, 1024), Some(2));
        }
        // All eligible again: service cycles across all three.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..6 {
            seen.insert(a.pick(|_| true, 1024).unwrap());
        }
        assert_eq!(seen.len(), 3, "{seen:?}");
    }
}
