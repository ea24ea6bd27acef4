//! The Congestion Control Table (CCT).
//!
//! The CCT maps a flow's current index (CCTI) to an injection-rate-delay
//! (IRD) multiplier. Per the paper (§II): *"The CCT holds injection rate
//! delay (IRD) values that define the delay between consecutive packets
//! sent by a particular flow (the IRD calculation being relative to the
//! packet length)"* — so the delay applied after sending a packet of
//! serialisation time `T` with table value `v` is `v × T`.
//!
//! The IB spec leaves the table contents to the operator; it is "usually
//! populated in such a way that a larger index yields a larger IRD". We
//! provide the customary linear population plus an exponential-style one
//! for ablation studies.

use ibsim_engine::time::TimeDelta;
use serde::{Deserialize, Serialize};

/// How to fill the table.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CctShape {
    /// `cct[i] = i * step` — additive-increase in delay per BECN.
    Linear { step: u32 },
    /// `cct[i] = round(base^i) - 1`, clamped to `max` — aggressive
    /// early back-off, used by some vendors' defaults.
    Exponential { base: f64, max: u32 },
}

/// The populated table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cct {
    entries: Vec<u32>,
}

impl Cct {
    /// Build a table of `len` entries with the given shape.
    /// Panics if `len == 0`.
    pub fn populate(len: usize, shape: CctShape) -> Self {
        assert!(len > 0, "CCT must have at least one entry");
        let entries = (0..len)
            .map(|i| match shape {
                CctShape::Linear { step } => i as u32 * step,
                CctShape::Exponential { base, max } => {
                    let v = base.powi(i as i32);
                    if v >= max as f64 {
                        max
                    } else {
                        (v.round() as u32).saturating_sub(1).min(max)
                    }
                }
            })
            .collect();
        Cct { entries }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// IRD multiplier at index `ccti` (clamped to the last entry).
    #[inline]
    pub fn multiplier(&self, ccti: u16) -> u32 {
        let i = (ccti as usize).min(self.entries.len() - 1);
        self.entries[i]
    }

    /// Inter-packet delay for a flow at `ccti` that just spent
    /// `pkt_time` serialising a packet.
    #[inline]
    pub fn ird_delay(&self, ccti: u16, pkt_time: TimeDelta) -> TimeDelta {
        pkt_time.saturating_mul(self.multiplier(ccti) as u64)
    }

    /// True if delays never decrease with the index — the property the
    /// control loop relies on ("a larger index yields a larger IRD").
    pub fn is_monotone(&self) -> bool {
        self.entries.windows(2).all(|w| w[0] <= w[1])
    }

    pub fn entries(&self) -> &[u32] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_population() {
        let t = Cct::populate(128, CctShape::Linear { step: 1 });
        assert_eq!(t.len(), 128);
        assert_eq!(t.multiplier(0), 0);
        assert_eq!(t.multiplier(1), 1);
        assert_eq!(t.multiplier(127), 127);
        assert!(t.is_monotone());
    }

    #[test]
    fn linear_step_scales() {
        let t = Cct::populate(128, CctShape::Linear { step: 8 });
        assert_eq!(t.multiplier(10), 80);
        assert!(t.is_monotone());
    }

    #[test]
    fn exponential_population_clamps() {
        let t = Cct::populate(
            64,
            CctShape::Exponential {
                base: 2.0,
                max: 1000,
            },
        );
        assert_eq!(t.multiplier(0), 0); // 2^0 - 1
        assert_eq!(t.multiplier(1), 1); // 2^1 - 1
        assert_eq!(t.multiplier(3), 7);
        assert_eq!(t.multiplier(63), 1000); // clamped
        assert!(t.is_monotone());
    }

    #[test]
    fn index_clamps_to_last_entry() {
        let t = Cct::populate(4, CctShape::Linear { step: 2 });
        assert_eq!(t.multiplier(3), 6);
        assert_eq!(t.multiplier(100), 6);
    }

    #[test]
    fn ird_delay_scales_with_packet_time() {
        let t = Cct::populate(128, CctShape::Linear { step: 1 });
        let pkt = TimeDelta::from_ns(800);
        assert_eq!(t.ird_delay(0, pkt), TimeDelta::ZERO);
        assert_eq!(t.ird_delay(5, pkt), TimeDelta::from_ns(4000));
        // Relative to packet length: half the packet, half the delay.
        assert_eq!(t.ird_delay(5, pkt / 2), TimeDelta::from_ns(2000));
    }
}
