//! Fabric partitioning for the sharded parallel executor.
//!
//! The sharded DES core (`ibsim-net`) splits the fabric into `n`
//! shards that advance through conservative time windows in parallel.
//! The partition itself is a pure topology concern and lives here: it
//! must depend only on the wiring, never on runtime state, so that
//! every shard count yields the same deterministic assignment on every
//! run.
//!
//! The cut is made at **leaf-switch-group boundaries**: a *leaf* is a
//! switch with at least one HCA attached, and each shard owns a
//! contiguous block of leaves plus every HCA cabled to them. That
//! keeps the dominant traffic (HCA ↔ leaf, which shares a cable and
//! therefore can never be cut) inside one shard, while inter-switch
//! cables — whose link latency bounds the executor's lookahead — form
//! the only cross-shard edges. Switches with no HCAs (spines) carry
//! transit traffic for everyone; they are dealt round-robin so their
//! arbitration work spreads evenly.

use crate::graph::{Endpoint, Topology};

/// A deterministic assignment of every device to one of `n` shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Effective shard count: `min(requested, leaf count)`, and 1 for
    /// fabrics with no leaves at all (nothing to cut).
    pub n: usize,
    /// Shard index per switch, indexed by switch id.
    pub switch_shard: Vec<u32>,
    /// Shard index per HCA, indexed by HCA id.
    pub hca_shard: Vec<u32>,
}

impl Partition {
    /// Every device in shard 0: the serial layout.
    pub fn trivial(topo: &Topology) -> Partition {
        Partition {
            n: 1,
            switch_shard: vec![0; topo.switches.len()],
            hca_shard: vec![0; topo.num_hcas],
        }
    }
}

/// Partition `topo` into (at most) `n` shards at leaf-switch-group
/// boundaries.
///
/// Leaves (switches with ≥ 1 HCA attached) are split into `n`
/// contiguous blocks of `ceil(leaves / n)` in switch-id order; each
/// HCA inherits its leaf's shard; spine switches (no HCAs) go
/// round-robin across shards in switch-id order. Requesting more
/// shards than there are leaves clamps to the leaf count — a shard
/// without a leaf would own no traffic sources and only add barrier
/// overhead.
pub fn partition_leaf_groups(topo: &Topology, n: usize) -> Partition {
    let n_req = n.max(1);
    // A switch is a leaf iff some HCA's cable lands on it.
    let mut is_leaf = vec![false; topo.switches.len()];
    let mut hca_leaf = vec![usize::MAX; topo.num_hcas];
    for link in &topo.links {
        let (hca, sw) = match (link.a, link.b) {
            (Endpoint::Hca(h), Endpoint::SwitchPort { switch, .. }) => (h, switch),
            (Endpoint::SwitchPort { switch, .. }, Endpoint::Hca(h)) => (h, switch),
            _ => continue,
        };
        is_leaf[sw] = true;
        hca_leaf[hca] = sw;
    }
    let leaves: Vec<usize> = (0..topo.switches.len()).filter(|&s| is_leaf[s]).collect();
    let n = n_req.min(leaves.len().max(1));
    if n <= 1 {
        return Partition::trivial(topo);
    }

    let per_block = leaves.len().div_ceil(n);
    let mut switch_shard = vec![u32::MAX; topo.switches.len()];
    for (i, &sw) in leaves.iter().enumerate() {
        switch_shard[sw] = (i / per_block) as u32;
    }
    let mut next_spine = 0u32;
    for (sw, shard) in switch_shard.iter_mut().enumerate() {
        if !is_leaf[sw] {
            *shard = next_spine % n as u32;
            next_spine += 1;
        }
    }
    let hca_shard = hca_leaf
        .iter()
        .map(|&leaf| {
            assert!(leaf != usize::MAX, "HCA with no switch attachment");
            switch_shard[leaf]
        })
        .collect();
    Partition {
        n,
        switch_shard,
        hca_shard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::FatTreeSpec;
    use crate::single::single_switch;

    fn assert_covering(topo: &Topology, p: &Partition) {
        assert_eq!(p.switch_shard.len(), topo.switches.len());
        assert_eq!(p.hca_shard.len(), topo.num_hcas);
        assert!(p.switch_shard.iter().all(|&s| (s as usize) < p.n));
        assert!(p.hca_shard.iter().all(|&s| (s as usize) < p.n));
        // Every shard owns at least one leaf (and therefore ≥ 1 HCA).
        for shard in 0..p.n as u32 {
            assert!(
                p.hca_shard.contains(&shard),
                "shard {shard} of {} owns no HCAs",
                p.n
            );
        }
    }

    /// HCAs stay with their leaf: the HCA↔leaf cable is never cut.
    fn assert_leaves_keep_their_hcas(topo: &Topology, p: &Partition) {
        for link in &topo.links {
            if let (Endpoint::Hca(h), Endpoint::SwitchPort { switch, .. })
            | (Endpoint::SwitchPort { switch, .. }, Endpoint::Hca(h)) = (link.a, link.b)
            {
                assert_eq!(
                    p.hca_shard[h], p.switch_shard[switch],
                    "HCA {h} cut from its leaf {switch}"
                );
            }
        }
    }

    #[test]
    fn single_switch_never_splits() {
        let topo = single_switch(8, 2);
        for n in [1, 2, 4, 8] {
            let p = partition_leaf_groups(&topo, n);
            assert_eq!(p.n, 1, "one leaf cannot split {n} ways");
            assert_eq!(p, Partition::trivial(&topo));
        }
    }

    #[test]
    fn fat8_splits_at_leaf_boundaries() {
        let topo = FatTreeSpec::TEST_8.build();
        for n in [2, 4] {
            let p = partition_leaf_groups(&topo, n);
            assert_eq!(p.n, n);
            assert_covering(&topo, &p);
            assert_leaves_keep_their_hcas(&topo, &p);
        }
    }

    #[test]
    fn paper_648_splits_up_to_8() {
        let topo = FatTreeSpec::PAPER_648.build();
        for n in [2, 4, 8] {
            let p = partition_leaf_groups(&topo, n);
            assert_eq!(p.n, n);
            assert_covering(&topo, &p);
            assert_leaves_keep_their_hcas(&topo, &p);
        }
    }

    #[test]
    fn oversubscribed_request_clamps_to_leaf_count() {
        let topo = FatTreeSpec::TEST_8.build();
        let leaves = topo
            .switches
            .iter()
            .enumerate()
            .filter(|(s, _)| {
                (0..topo.num_hcas).any(|h| topo.hca_attachment(h).map(|(sw, _)| sw) == Some(*s))
            })
            .count();
        let p = partition_leaf_groups(&topo, 1000);
        assert_eq!(p.n, leaves);
        assert_covering(&topo, &p);
    }

    #[test]
    fn partition_is_deterministic() {
        let topo = FatTreeSpec::QUICK_72.build();
        assert_eq!(
            partition_leaf_groups(&topo, 4),
            partition_leaf_groups(&topo, 4)
        );
    }
}
