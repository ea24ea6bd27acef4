//! Topology description: devices, links, and linear forwarding tables.
//!
//! A [`Topology`] is a pure description — no simulation state — that the
//! network layer instantiates. End nodes (HCAs) are numbered densely
//! `0..num_hcas` (their "LID"); switches `0..switches.len()`. Links are
//! described once and are full duplex; the network layer expands each
//! into a pair of unidirectional channels.

/// One endpoint of a full-duplex cable.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Endpoint {
    /// The single port of end node `hca`.
    Hca(usize),
    /// Port `port` of switch `switch`.
    SwitchPort { switch: usize, port: usize },
}

/// A full-duplex cable between two endpoints.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkSpec {
    pub a: Endpoint,
    pub b: Endpoint,
}

/// A switch with `ports` ports; which ports are cabled is defined by the
/// topology's link list.
#[derive(Clone, Copy, Debug)]
pub struct SwitchSpec {
    pub ports: usize,
}

/// Sentinel for "no route" entries in a forwarding table.
pub const NO_ROUTE: u16 = u16::MAX;

/// A complete network description.
#[derive(Clone, Debug)]
pub struct Topology {
    pub name: String,
    pub num_hcas: usize,
    pub switches: Vec<SwitchSpec>,
    pub links: Vec<LinkSpec>,
    /// Linear forwarding tables: `lfts[switch][dst_hca]` is the output
    /// port toward end node `dst_hca` (`NO_ROUTE` if unreachable).
    /// `Arc`ed so the network layer shares each table with its switch
    /// instead of cloning it (a 648-HCA fabric has 54 × 648-entry
    /// tables).
    pub lfts: Vec<std::sync::Arc<Vec<u16>>>,
}

/// Prebuilt adjacency for fast repeated routing queries over a
/// [`Topology`].
#[derive(Clone, Debug)]
pub struct RoutingIndex {
    /// `(switch, port)` → what is cabled there.
    peers: std::collections::HashMap<(usize, usize), Endpoint>,
    /// Per HCA: the `(switch, port)` it is attached to.
    hca_attach: Vec<Option<(usize, usize)>>,
}

impl RoutingIndex {
    /// The switch and port end node `hca` is attached to.
    pub fn attachment(&self, hca: usize) -> Option<(usize, usize)> {
        self.hca_attach.get(hca).copied().flatten()
    }

    /// What is cabled to `switch`'s `port`.
    pub fn peer(&self, switch: usize, port: usize) -> Option<Endpoint> {
        self.peers.get(&(switch, port)).copied()
    }
}

impl Topology {
    /// Unidirectional channels the network layer builds: two per cable,
    /// the pair of cable `l` being channels `2l` and `2l + 1`.
    pub fn num_channels(&self) -> usize {
        2 * self.links.len()
    }

    /// The switch port each HCA is cabled to, or `None` if unattached.
    pub fn hca_attachment(&self, hca: usize) -> Option<(usize, usize)> {
        self.links.iter().find_map(|l| match (l.a, l.b) {
            (Endpoint::Hca(h), Endpoint::SwitchPort { switch, port }) if h == hca => {
                Some((switch, port))
            }
            (Endpoint::SwitchPort { switch, port }, Endpoint::Hca(h)) if h == hca => {
                Some((switch, port))
            }
            _ => None,
        })
    }

    /// Build a lookup index for fast repeated routing queries.
    pub fn index(&self) -> RoutingIndex {
        let mut peers = std::collections::HashMap::new();
        let mut hca_attach = vec![None; self.num_hcas];
        for l in &self.links {
            let mut note = |x: Endpoint, y: Endpoint| match x {
                Endpoint::SwitchPort { switch, port } => {
                    peers.insert((switch, port), y);
                }
                Endpoint::Hca(h) => {
                    if let (Endpoint::SwitchPort { switch, port }, Some(slot)) =
                        (y, hca_attach.get_mut(h))
                    {
                        *slot = Some((switch, port));
                    }
                }
            };
            note(l.a, l.b);
            note(l.b, l.a);
        }
        RoutingIndex { peers, hca_attach }
    }

    /// Follow the forwarding tables from `src` to `dst`; returns the
    /// sequence of switches traversed, or `None` on a routing failure
    /// (loop, dead end, or missing LFT entry). `src == dst` yields an
    /// empty path.
    pub fn route_path(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        self.route_path_with(&self.index(), src, dst)
    }

    /// [`route_path`](Self::route_path) against a prebuilt index —
    /// the form to use inside all-pairs loops.
    pub fn route_path_with(
        &self,
        idx: &RoutingIndex,
        src: usize,
        dst: usize,
    ) -> Option<Vec<usize>> {
        if src == dst {
            return Some(vec![]);
        }
        let (mut sw, _) = (*idx.hca_attach.get(src)?)?;
        let mut path = vec![sw];
        // A route longer than the switch count must contain a loop.
        for _ in 0..self.switches.len() {
            let port = *self.lfts.get(sw)?.get(dst)?;
            if port == NO_ROUTE {
                return None;
            }
            match *idx.peers.get(&(sw, port as usize))? {
                Endpoint::Hca(h) => return (h == dst).then_some(path),
                Endpoint::SwitchPort { switch, .. } => {
                    sw = switch;
                    path.push(sw);
                }
            }
        }
        None // loop detected
    }

    /// Exhaustively validate the topology; returns the first problem.
    pub fn validate(&self) -> Result<(), String> {
        // Every endpoint must be in range and used by at most one cable.
        let mut seen = std::collections::HashSet::new();
        for l in &self.links {
            for ep in [l.a, l.b] {
                match ep {
                    Endpoint::Hca(h) if h >= self.num_hcas => {
                        return Err(format!("link references HCA {h} out of range"));
                    }
                    Endpoint::SwitchPort { switch, port } => {
                        if switch >= self.switches.len() {
                            return Err(format!("link references switch {switch} out of range"));
                        }
                        if port >= self.switches[switch].ports {
                            return Err(format!("switch {switch} port {port} out of range"));
                        }
                    }
                    _ => {}
                }
                if !seen.insert(ep) {
                    return Err(format!("endpoint {ep:?} cabled twice"));
                }
            }
            if l.a == l.b {
                return Err(format!("self-link at {:?}", l.a));
            }
        }
        // Every HCA must be attached.
        for h in 0..self.num_hcas {
            if self.hca_attachment(h).is_none() {
                return Err(format!("HCA {h} is not attached to any switch"));
            }
        }
        // LFT shape.
        let idx = self.index();
        if self.lfts.len() != self.switches.len() {
            return Err("one LFT per switch required".into());
        }
        for (s, lft) in self.lfts.iter().enumerate() {
            if lft.len() != self.num_hcas {
                return Err(format!("switch {s} LFT has {} entries", lft.len()));
            }
            for (dst, &p) in lft.iter().enumerate() {
                if p != NO_ROUTE {
                    if p as usize >= self.switches[s].ports {
                        return Err(format!("switch {s} LFT[{dst}] = invalid port {p}"));
                    }
                    if !idx.peers.contains_key(&(s, p as usize)) {
                        return Err(format!("switch {s} LFT[{dst}] = uncabled port {p}"));
                    }
                }
            }
        }
        // Full reachability between all HCA pairs.
        for src in 0..self.num_hcas {
            for dst in 0..self.num_hcas {
                if src != dst && self.route_path_with(&idx, src, dst).is_none() {
                    return Err(format!("no route from HCA {src} to HCA {dst}"));
                }
            }
        }
        Ok(())
    }

    /// Hop count (number of switches traversed) from `src` to `dst`.
    pub fn hop_count(&self, src: usize, dst: usize) -> Option<usize> {
        self.route_path(src, dst).map(|p| p.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two HCAs on one 4-port switch.
    fn tiny() -> Topology {
        Topology {
            name: "tiny".into(),
            num_hcas: 2,
            switches: vec![SwitchSpec { ports: 4 }],
            links: vec![
                LinkSpec {
                    a: Endpoint::Hca(0),
                    b: Endpoint::SwitchPort { switch: 0, port: 0 },
                },
                LinkSpec {
                    a: Endpoint::Hca(1),
                    b: Endpoint::SwitchPort { switch: 0, port: 1 },
                },
            ],
            lfts: vec![vec![0, 1].into()],
        }
    }

    #[test]
    fn tiny_is_valid_and_routes() {
        let t = tiny();
        t.validate().unwrap();
        assert_eq!(t.route_path(0, 1), Some(vec![0]));
        assert_eq!(t.route_path(0, 0), Some(vec![]));
        assert_eq!(t.hop_count(0, 1), Some(1));
        assert_eq!(t.hca_attachment(1), Some((0, 1)));
    }

    #[test]
    fn validate_rejects_double_cabling() {
        let mut t = tiny();
        t.links.push(LinkSpec {
            a: Endpoint::Hca(0),
            b: Endpoint::SwitchPort { switch: 0, port: 2 },
        });
        assert!(t.validate().unwrap_err().contains("cabled twice"));
    }

    #[test]
    fn validate_rejects_unattached_hca() {
        let mut t = tiny();
        t.num_hcas = 3;
        t.lfts = vec![vec![0, 1, NO_ROUTE].into()];
        assert!(t.validate().unwrap_err().contains("not attached"));
    }

    #[test]
    fn validate_rejects_bad_lft_port() {
        let mut t = tiny();
        t.lfts = vec![vec![0, 9].into()];
        assert!(t.validate().unwrap_err().contains("invalid port"));
    }

    #[test]
    fn validate_rejects_uncabled_lft_port() {
        let mut t = tiny();
        t.lfts = vec![vec![0, 3].into()]; // port 3 exists but nothing cabled
        assert!(t.validate().unwrap_err().contains("uncabled"));
    }

    #[test]
    fn validate_rejects_misrouted_lft() {
        let mut t = tiny();
        t.lfts = vec![vec![1, 0].into()]; // swapped: routes to the wrong HCA
        assert!(t.validate().unwrap_err().contains("no route"));
    }

    #[test]
    fn route_detects_loops() {
        // Two switches pointing at each other forever for dst 1.
        let t = Topology {
            name: "loop".into(),
            num_hcas: 2,
            switches: vec![SwitchSpec { ports: 4 }, SwitchSpec { ports: 4 }],
            links: vec![
                LinkSpec {
                    a: Endpoint::Hca(0),
                    b: Endpoint::SwitchPort { switch: 0, port: 0 },
                },
                LinkSpec {
                    a: Endpoint::Hca(1),
                    b: Endpoint::SwitchPort { switch: 1, port: 0 },
                },
                LinkSpec {
                    a: Endpoint::SwitchPort { switch: 0, port: 1 },
                    b: Endpoint::SwitchPort { switch: 1, port: 1 },
                },
            ],
            // Switch 0 sends dst1 to switch 1; switch 1 sends dst1 back.
            lfts: vec![vec![0, 1].into(), vec![0, 1].into()],
        };
        assert_eq!(t.route_path(0, 1), None);
        assert!(t.validate().is_err());
    }
}
