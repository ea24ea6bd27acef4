//! Node roles and hotspot-group assignment (§III of the paper).
//!
//! The network's end nodes are partitioned into
//!
//! * **C nodes** — pure contributors: all traffic to their group's
//!   hotspot (silent congestion trees);
//! * **V nodes** — potential victims: uniform traffic only;
//! * **B nodes** — both: `p` % of their traffic to their group's
//!   hotspot, the rest uniform (windy congestion trees).
//!
//! Contributors (C and B alike) are evenly divided into one subset per
//! hotspot. Hotspot locations and role placement are drawn from the
//! scenario's random stream, so the whole layout is reproducible.

use ibsim_engine::rng::Rng;
use ibsim_net::NodeId;
use serde::{Deserialize, Serialize};

/// The role of one end node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeRole {
    /// Potential victim: 100 % uniform traffic.
    V,
    /// Pure contributor to hotspot group `group`.
    C { group: usize },
    /// Windy contributor: `p` % to hotspot group `group`, rest uniform.
    B { group: usize, p: u32 },
}

impl NodeRole {
    /// The hotspot group this node contributes to, if any.
    pub fn group(&self) -> Option<usize> {
        match self {
            NodeRole::V => None,
            NodeRole::C { group } | NodeRole::B { group, .. } => Some(*group),
        }
    }

    pub fn is_contributor(&self) -> bool {
        self.group().is_some()
    }
}

/// The complete placement: per-node roles plus hotspot locations.
#[derive(Clone, Debug)]
pub struct RoleAssignment {
    pub roles: Vec<NodeRole>,
    pub hotspots: Vec<NodeId>,
}

/// Parameters of the placement.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RoleSpec {
    pub num_nodes: usize,
    /// Number of hotspots (the paper uses 8).
    pub num_hotspots: usize,
    /// Percentage of all nodes that are B nodes (the paper's `x`).
    pub b_pct: u32,
    /// The B nodes' hotspot fraction (the paper's `p`).
    pub b_p: u32,
    /// Of the remaining (non-B) nodes, the percentage that are C nodes
    /// (the paper uses 80); the rest are V nodes.
    pub c_pct_of_rest: u32,
}

impl RoleSpec {
    /// A silent forest: no B nodes, 80 % of the rest contributing.
    pub const fn silent(num_nodes: usize, num_hotspots: usize) -> Self {
        RoleSpec {
            num_nodes,
            num_hotspots,
            b_pct: 0,
            b_p: 0,
            c_pct_of_rest: 80,
        }
    }

    /// Can a placement be drawn? The error names the offending field.
    pub fn check(&self) -> Result<(), String> {
        if self.num_hotspots == 0 {
            return Err("roles.num_hotspots must be at least 1".into());
        }
        if self.num_hotspots >= self.num_nodes {
            return Err(format!(
                "roles.num_hotspots {} needs more nodes than hotspots ({} nodes)",
                self.num_hotspots, self.num_nodes
            ));
        }
        let pcts = [
            ("b_pct", self.b_pct),
            ("b_p", self.b_p),
            ("c_pct_of_rest", self.c_pct_of_rest),
        ];
        match pcts.iter().find(|(_, pct)| *pct > 100) {
            Some((key, pct)) => Err(format!("roles.{key} {pct} is not a percentage (0..=100)")),
            None => Ok(()),
        }
    }

    /// Draw a placement. Every contributor gets a group; a contributor
    /// is never asked to send to itself (group membership is rotated
    /// away from its own hotspot). Panics where [`RoleSpec::check`]
    /// fails.
    pub fn assign(&self, rng: &mut Rng) -> RoleAssignment {
        self.check().unwrap_or_else(|e| panic!("{e}"));

        // Hotspot locations: distinct random nodes.
        let hotspots: Vec<NodeId> = rng
            .sample_indices(self.num_nodes, self.num_hotspots)
            .into_iter()
            .map(|i| i as NodeId)
            .collect();

        // Shuffle all node indices, then carve off B / C / V counts so
        // roles are randomly distributed in the topology.
        let mut order: Vec<usize> = (0..self.num_nodes).collect();
        rng.shuffle(&mut order);
        let n_b = self.num_nodes * self.b_pct as usize / 100;
        let n_c = (self.num_nodes - n_b) * self.c_pct_of_rest as usize / 100;

        let mut roles = vec![NodeRole::V; self.num_nodes];
        // Contributors are dealt into groups round-robin over the
        // shuffled order, which divides them evenly (paper: "evenly
        // divided into eight subsets").
        let mut next_group = 0usize;
        let mut deal = |node: usize, rng: &mut Rng| -> usize {
            let mut g = next_group;
            // Never assign a node to the group whose hotspot is itself.
            if hotspots[g] == node as NodeId {
                if self.num_hotspots == 1 {
                    // Sole hotspot: re-draw is impossible; this node
                    // just stays a victim. Signalled by usize::MAX.
                    next_group = (next_group + 1) % self.num_hotspots;
                    return usize::MAX;
                }
                g = (g + 1) % self.num_hotspots;
            }
            let _ = rng;
            next_group = (next_group + 1) % self.num_hotspots;
            g
        };

        for (k, &node) in order.iter().enumerate() {
            if k < n_b {
                let g = deal(node, rng);
                roles[node] = if g == usize::MAX {
                    NodeRole::V
                } else {
                    NodeRole::B {
                        group: g,
                        p: self.b_p,
                    }
                };
            } else if k < n_b + n_c {
                let g = deal(node, rng);
                roles[node] = if g == usize::MAX {
                    NodeRole::V
                } else {
                    NodeRole::C { group: g }
                };
            }
        }
        RoleAssignment { roles, hotspots }
    }
}

impl RoleAssignment {
    pub fn num_nodes(&self) -> usize {
        self.roles.len()
    }

    /// Is `node` one of the current hotspots?
    pub fn is_hotspot(&self, node: NodeId) -> bool {
        self.hotspots.contains(&node)
    }

    /// All nodes that are not hotspots (the paper's "non-hotspots").
    pub fn non_hotspots(&self) -> Vec<NodeId> {
        (0..self.roles.len() as NodeId)
            .filter(|n| !self.is_hotspot(*n))
            .collect()
    }

    /// Count nodes per role kind: (V, C, B).
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut v = 0;
        let mut c = 0;
        let mut b = 0;
        for r in &self.roles {
            match r {
                NodeRole::V => v += 1,
                NodeRole::C { .. } => c += 1,
                NodeRole::B { .. } => b += 1,
            }
        }
        (v, c, b)
    }

    /// Members of hotspot group `g`.
    pub fn group_members(&self, g: usize) -> Vec<NodeId> {
        (0..self.roles.len())
            .filter(|&n| self.roles[n].group() == Some(g))
            .map(|n| n as NodeId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RoleSpec {
        RoleSpec::silent(648, 8)
    }

    #[test]
    fn paper_silent_split_is_80_20() {
        let a = spec().assign(&mut Rng::new(1));
        let (v, c, b) = a.counts();
        assert_eq!(b, 0);
        // 80 % of 648 = 518 C nodes (integer division / self-hotspot
        // demotion may shave a couple).
        assert!((516..=519).contains(&c), "c = {c}");
        assert_eq!(v + c, 648);
        assert_eq!(a.hotspots.len(), 8);
    }

    #[test]
    fn hotspots_are_distinct() {
        let a = spec().assign(&mut Rng::new(2));
        let mut h = a.hotspots.clone();
        h.sort_unstable();
        h.dedup();
        assert_eq!(h.len(), 8);
    }

    #[test]
    fn groups_are_even() {
        let a = spec().assign(&mut Rng::new(3));
        let sizes: Vec<usize> = (0..8).map(|g| a.group_members(g).len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 2, "uneven groups: {sizes:?}");
        let total: usize = sizes.iter().sum();
        let (_, c, b) = a.counts();
        assert_eq!(total, c + b);
    }

    #[test]
    fn nobody_contributes_to_itself() {
        for seed in 0..20 {
            let mut s = spec();
            s.b_pct = 50;
            s.b_p = 60;
            let a = s.assign(&mut Rng::new(seed));
            for (n, r) in a.roles.iter().enumerate() {
                if let Some(g) = r.group() {
                    assert_ne!(a.hotspots[g], n as NodeId, "node {n} targets itself");
                }
            }
        }
    }

    #[test]
    fn b_fraction_respected() {
        let mut s = spec();
        s.b_pct = 25;
        s.b_p = 50;
        let a = s.assign(&mut Rng::new(4));
        let (v, c, b) = a.counts();
        assert_eq!(b, 162); // 25 % of 648
                            // Of the remaining 486: 80 % C = 388 (±1 for demotions).
        assert!((386..=389).contains(&c), "c = {c}");
        assert_eq!(v + c + b, 648);
    }

    #[test]
    fn hundred_pct_b() {
        let mut s = spec();
        s.b_pct = 100;
        s.b_p = 90;
        let a = s.assign(&mut Rng::new(5));
        let (v, c, b) = a.counts();
        assert_eq!(c, 0);
        assert!(v <= 1, "only a self-hotspot demotion may create a V");
        assert!(b >= 647);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = spec().assign(&mut Rng::new(7));
        let b = spec().assign(&mut Rng::new(7));
        assert_eq!(a.hotspots, b.hotspots);
        assert_eq!(a.roles, b.roles);
        let c = spec().assign(&mut Rng::new(8));
        assert_ne!(a.hotspots, c.hotspots);
    }

    #[test]
    fn non_hotspots_complement() {
        let a = spec().assign(&mut Rng::new(9));
        let nh = a.non_hotspots();
        assert_eq!(nh.len(), 640);
        for h in &a.hotspots {
            assert!(!nh.contains(h));
        }
    }
}
