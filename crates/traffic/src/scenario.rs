//! Turning a role assignment into traffic classes on a live network,
//! plus the moving-hotspot machinery of §V-C.

use crate::roles::{NodeRole, RoleAssignment, RoleSpec};
use ibsim_engine::rng::Rng;
use ibsim_engine::time::Bandwidth;
use ibsim_net::{DestPattern, Network, NodeId, TrafficClass, PAPER_MSG_BYTES};

/// A scenario bound to a network: the placement plus the bookkeeping
/// needed to move hotspots and to classify nodes for measurement.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub assignment: RoleAssignment,
    pub msg_bytes: u32,
    /// Stream used for redrawing hotspot locations on moves.
    mover_rng: Rng,
}

impl Scenario {
    /// Draw a placement from `spec` and install the corresponding
    /// traffic classes on `net`. The scenario's random streams derive
    /// from the network's seed, so a CC-on and a CC-off network with
    /// the same seed get the identical workload.
    pub fn install(spec: RoleSpec, net: &mut Network) -> Scenario {
        Self::install_with_msg(spec, net, PAPER_MSG_BYTES)
    }

    /// As [`install`](Self::install) with a custom message size.
    pub fn install_with_msg(spec: RoleSpec, net: &mut Network, msg_bytes: u32) -> Scenario {
        Self::install_opts(spec, net, msg_bytes, true)
    }

    /// Full-control install. With `contributors_active = false` the
    /// placement is drawn identically (same streams) but C and B nodes
    /// stay silent — the paper's "before enabling the C nodes" baseline
    /// rows of Table II.
    pub fn install_opts(
        spec: RoleSpec,
        net: &mut Network,
        msg_bytes: u32,
        contributors_active: bool,
    ) -> Scenario {
        let seed = net.cfg.seed;
        let mut role_rng = Rng::derive(seed, 0x0105);
        let assignment = spec.assign(&mut role_rng);
        let sc = Scenario {
            assignment,
            msg_bytes,
            mover_rng: Rng::derive(seed, 0x0406),
        };
        for node in 0..sc.assignment.num_nodes() as NodeId {
            if !contributors_active && sc.assignment.roles[node as usize].is_contributor() {
                continue;
            }
            let classes = sc.classes_for(node);
            if !classes.is_empty() {
                net.set_classes(node, classes);
            }
        }
        sc
    }

    /// The class layout for one node given its role.
    /// Class index 0 is always the hotspot class where one exists —
    /// moving-hotspot retargeting relies on that.
    fn classes_for(&self, node: NodeId) -> Vec<TrafficClass> {
        let hs = &self.assignment.hotspots;
        match self.assignment.roles[node as usize] {
            NodeRole::V => vec![TrafficClass::new(
                100,
                DestPattern::UniformExceptSelf,
                self.msg_bytes,
            )],
            NodeRole::C { group } => vec![TrafficClass::new(
                100,
                DestPattern::Fixed(hs[group]),
                self.msg_bytes,
            )],
            NodeRole::B { group, p } => {
                let mut v = vec![TrafficClass::new(
                    p,
                    DestPattern::Fixed(hs[group]),
                    self.msg_bytes,
                )];
                if p < 100 {
                    v.push(TrafficClass::new(
                        100 - p,
                        DestPattern::UniformExceptSelf,
                        self.msg_bytes,
                    ));
                }
                v
            }
        }
    }

    /// Move every hotspot to a fresh random location (distinct nodes)
    /// and retarget all contributors. Committed messages finish at the
    /// old target, exactly as a real sender would drain its queue.
    pub fn move_hotspots(&mut self, net: &mut Network) {
        let n = self.assignment.num_nodes();
        let new: Vec<NodeId> = self
            .mover_rng
            .sample_indices(n, self.assignment.hotspots.len())
            .into_iter()
            .map(|i| i as NodeId)
            .collect();
        self.assignment.hotspots = new;
        for node in 0..n as NodeId {
            if let Some(g) = self.assignment.roles[node as usize].group() {
                let mut target = self.assignment.hotspots[g];
                if target == node {
                    // Never send to self: borrow the next group's
                    // hotspot, or — with a single group — any other
                    // node, for this node only.
                    let alt = self.assignment.hotspots[(g + 1) % self.assignment.hotspots.len()];
                    target = if alt != node {
                        alt
                    } else {
                        (node + 1) % n as NodeId
                    };
                }
                net.retarget_class(node, 0, target);
            }
        }
    }

    // ---- measurement helpers -------------------------------------------

    /// Average receive rate (Gbit/s) over `nodes`.
    pub fn avg_rx(&self, net: &Network, nodes: &[NodeId]) -> f64 {
        if nodes.is_empty() {
            return 0.0;
        }
        nodes.iter().map(|&n| net.rx_gbps(n)).sum::<f64>() / nodes.len() as f64
    }

    /// Average receive rate of the (current) hotspot nodes.
    pub fn hotspot_avg_rx(&self, net: &Network) -> f64 {
        self.avg_rx(net, &self.assignment.hotspots)
    }

    /// Average receive rate of everything else.
    pub fn non_hotspot_avg_rx(&self, net: &Network) -> f64 {
        self.avg_rx(net, &self.assignment.non_hotspots())
    }

    /// Average receive rate across all nodes (the moving-forest plots).
    pub fn all_avg_rx(&self, net: &Network) -> f64 {
        let all: Vec<NodeId> = (0..self.assignment.num_nodes() as NodeId).collect();
        self.avg_rx(net, &all)
    }

    /// Jain's fairness index over the per-contributor bytes delivered
    /// to each hotspot during the measurement window, averaged across
    /// hotspots. 1.0 = perfectly fair shares; 1/n = one flow hogging.
    /// Returns `None` when no hotspot received anything.
    pub fn hotspot_fairness(&self, net: &Network) -> Option<f64> {
        let mut indices = Vec::new();
        for &hs in &self.assignment.hotspots {
            let by_src = net.hcas[hs as usize].rx_by_src();
            // Restrict to this hotspot's contributors (uniform-traffic
            // drive-by deliveries would dilute the index). The table is
            // dense per source; zero entries mean "no bytes received"
            // and stay out of the index, exactly like absent map keys.
            let xs: Vec<f64> = by_src
                .enumerate()
                .filter(|&(src, b)| b > 0 && self.assignment.roles[src].is_contributor())
                .map(|(_, b)| b as f64)
                .collect();
            if xs.is_empty() {
                continue;
            }
            let sum: f64 = xs.iter().sum();
            let sq: f64 = xs.iter().map(|x| x * x).sum();
            if sq > 0.0 {
                indices.push(sum * sum / (xs.len() as f64 * sq));
            }
        }
        if indices.is_empty() {
            None
        } else {
            Some(indices.iter().sum::<f64>() / indices.len() as f64)
        }
    }

    /// The theoretical maximum average receive rate of the non-hotspots
    /// (the paper's `tmax`): all uniform traffic in the network spread
    /// over every node, as if the hotspots did not exist.
    pub fn tmax_gbps(&self, inj_rate: Bandwidth) -> f64 {
        let mut uniform_share = 0.0f64; // in units of one node's capacity
        for r in &self.assignment.roles {
            match r {
                NodeRole::V => uniform_share += 1.0,
                NodeRole::C { .. } => {}
                NodeRole::B { p, .. } => uniform_share += (100 - p) as f64 / 100.0,
            }
        }
        uniform_share * inj_rate.as_gbps_f64() / self.assignment.num_nodes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmax_matches_paper_examples() {
        // 25 % B at p = 0 with 80/20 C/V of the rest: uniform share =
        // 0.25 + 0.15 = 0.4 of capacity -> 5.4 Gbit/s at 13.5.
        let spec = RoleSpec {
            num_nodes: 648,
            num_hotspots: 8,
            b_pct: 25,
            b_p: 0,
            c_pct_of_rest: 80,
        };
        let a = spec.assign(&mut Rng::new(1));
        let sc = Scenario {
            assignment: a,
            msg_bytes: 4096,
            mover_rng: Rng::new(0),
        };
        let tmax = sc.tmax_gbps(Bandwidth::from_gbps_f64(13.5));
        assert!((tmax - 5.4).abs() < 0.06, "tmax = {tmax}");
    }

    #[test]
    fn tmax_decreases_with_p() {
        let mk = |p| {
            let spec = RoleSpec {
                num_nodes: 100,
                num_hotspots: 4,
                b_pct: 100,
                b_p: p,
                c_pct_of_rest: 80,
            };
            let a = spec.assign(&mut Rng::new(2));
            Scenario {
                assignment: a,
                msg_bytes: 4096,
                mover_rng: Rng::new(0),
            }
            .tmax_gbps(Bandwidth::from_gbps_f64(13.5))
        };
        assert!(mk(0) > mk(50));
        assert!(mk(50) > mk(90));
    }
}
