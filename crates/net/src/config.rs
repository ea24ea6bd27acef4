//! Network model configuration.

use crate::vlarb::VlArbTable;
use ibsim_cc::CcParams;
use ibsim_engine::time::{Bandwidth, TimeDelta, PS_PER_S};
use serde::{Deserialize, Serialize};

/// Ceiling on each fixed delay (`link_delay`, `switch_latency`,
/// `credit_latency`): one second, a million times the paper's. Far
/// enough below the picosecond clock's range that `Time + TimeDelta`
/// cannot wrap.
pub const MAX_DELAY: TimeDelta = TimeDelta(PS_PER_S);

/// Every tunable of the network model. [`NetConfig::paper`] reproduces
/// the setup of §IV of the paper: 4x DDR links (20 Gbit/s), 2048-byte
/// MTU, end-node injection limited to 13.5 Gbit/s by the PCIe v1.1 host
/// interface and receive capped at ≈13.6 Gbit/s (the rates the authors'
/// simulator was tuned to against Mellanox MTS3600 hardware).
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct NetConfig {
    /// Raw link signalling rate.
    pub link_bw: Bandwidth,
    /// Cable propagation + SerDes delay, one direction.
    pub link_delay: TimeDelta,
    /// Switch routing/pipeline latency from head arrival to arbitration
    /// eligibility.
    pub switch_latency: TimeDelta,
    /// Processing delay of a link-level credit update.
    pub credit_latency: TimeDelta,
    /// Number of data virtual lanes.
    pub n_vls: u8,
    /// Switch output arbitration over VLs (IB VL arbitration tables).
    /// Defaults to equal-weight round robin over all lanes.
    pub vl_arbitration: VlArbTable,
    /// Maximum transfer unit in bytes.
    pub mtu: u32,
    /// Switch input-buffer capacity per VL, in 64-byte blocks.
    pub switch_ibuf_blocks: u32,
    /// HCA receive-buffer capacity per VL, in 64-byte blocks.
    pub hca_ibuf_blocks: u32,
    /// Sustained injection cap of an end node (PCIe v1.1 limit).
    pub inj_rate: Bandwidth,
    /// Sustained receive/drain cap of an end node.
    pub drain_rate: Bandwidth,
    /// Congestion-control parameters; `None` disables CC entirely
    /// (the paper's "CC off" runs).
    pub cc: Option<CcParams>,
    /// Reference buffer-pool size (bytes) the CC threshold weight is a
    /// fraction of; see DESIGN.md "Congestion detection point".
    pub cc_detect_capacity: u64,
    /// Root seed; every stochastic component derives a child stream.
    pub seed: u64,
}

impl NetConfig {
    /// The paper's simulation parameters (§IV).
    pub fn paper() -> Self {
        NetConfig {
            link_bw: Bandwidth::from_gbps(20),
            link_delay: TimeDelta::from_ns(50),
            switch_latency: TimeDelta::from_ns(150),
            credit_latency: TimeDelta::from_ns(50),
            n_vls: 1,
            vl_arbitration: VlArbTable::round_robin(1),
            mtu: 2048,
            // Shallow per-VL switch buffers, as in the InfiniScale IV
            // generation the model is calibrated against. Deep buffers
            // let congestion-tree branches hold large standing queues
            // (inventory) that HOL-block victims even with CC active;
            // 16 KiB/VL reproduces the paper's victim-recovery levels.
            switch_ibuf_blocks: 256, // 16 KiB per VL
            hca_ibuf_blocks: 512,    // 32 KiB receive buffer
            inj_rate: Bandwidth::from_gbps_f64(13.5),
            drain_rate: Bandwidth::from_gbps_f64(13.6),
            cc: Some(CcParams::paper_table1()),
            cc_detect_capacity: 256 * 1024,
            seed: 0x1B51_C0DE,
        }
    }

    /// Same model with congestion control disabled.
    pub fn paper_no_cc() -> Self {
        NetConfig {
            cc: None,
            ..Self::paper()
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn cc_enabled(&self) -> bool {
        self.cc.is_some()
    }

    /// Validate cross-field invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_vls == 0 || self.n_vls > 15 {
            return Err(format!("n_vls {} outside 1..=15", self.n_vls));
        }
        self.vl_arbitration.validate(self.n_vls)?;
        if self.mtu == 0 {
            return Err("mtu must be positive".into());
        }
        let mtu_blocks = self.mtu.div_ceil(crate::types::BLOCK_BYTES);
        if self.switch_ibuf_blocks < mtu_blocks {
            return Err(format!(
                "switch ibuf ({} blocks) cannot hold one MTU ({mtu_blocks} blocks); \
                 virtual cut-through requires whole-packet buffering",
                self.switch_ibuf_blocks
            ));
        }
        if self.hca_ibuf_blocks < mtu_blocks {
            return Err("hca ibuf cannot hold one MTU".into());
        }
        if self.link_bw.is_zero() || self.inj_rate.is_zero() || self.drain_rate.is_zero() {
            return Err("bandwidths must be positive".into());
        }
        if self.inj_rate > self.link_bw {
            return Err("injection rate above link rate".into());
        }
        let delays = [
            ("link_delay", self.link_delay),
            ("switch_latency", self.switch_latency),
            ("credit_latency", self.credit_latency),
        ];
        if let Some((name, d)) = delays.iter().find(|(_, d)| *d > MAX_DELAY) {
            return Err(format!(
                "{name} {} ps is past the clock-safe ceiling of {} ps (1 s)",
                d.as_ps(),
                MAX_DELAY.as_ps()
            ));
        }
        if let Some(cc) = &self.cc {
            cc.validate()?;
            if self.cc_detect_capacity == 0 {
                return Err("cc_detect_capacity must be positive when CC is on".into());
            }
            if let Some(th) = cc.threshold_bytes(self.cc_detect_capacity) {
                if th <= self.mtu as u64 {
                    return Err(format!(
                        "CC threshold ({th} B) must exceed one MTU ({} B); a single                          in-service packet would otherwise trigger marking on an                          idle port — raise cc_detect_capacity or lower the weight",
                        self.mtu
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        NetConfig::paper().validate().unwrap();
        NetConfig::paper_no_cc().validate().unwrap();
        assert!(NetConfig::paper().cc_enabled());
        assert!(!NetConfig::paper_no_cc().cc_enabled());
    }

    #[test]
    fn paper_rates_match_section_iv() {
        let c = NetConfig::paper();
        assert_eq!(c.link_bw.as_gbps_f64(), 20.0);
        assert_eq!(c.mtu, 2048);
        assert!((c.inj_rate.as_gbps_f64() - 13.5).abs() < 1e-9);
        assert!((c.drain_rate.as_gbps_f64() - 13.6).abs() < 1e-9);
    }

    #[test]
    fn rejects_tiny_buffers() {
        let mut c = NetConfig::paper();
        c.switch_ibuf_blocks = 8; // 512 B < one 2 KiB MTU
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_vl_count() {
        let mut c = NetConfig::paper();
        c.n_vls = 0;
        assert!(c.validate().is_err());
        c.n_vls = 16;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_injection_above_link() {
        let mut c = NetConfig::paper();
        c.inj_rate = Bandwidth::from_gbps(40);
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_seed_builder() {
        assert_eq!(NetConfig::paper().with_seed(99).seed, 99);
    }
}
