//! Second phase of the two-phase partitioning: a *fast balanced partition
//! of the meta-graph over the number of physical machines* (§4.1).
//!
//! The same `k` atoms can therefore be re-balanced onto any cluster size
//! without repartitioning the data graph. Three strategies
//! ([`PlacementStrategy`]):
//!
//! - **Affinity** (default): LPT (longest-processing-time-first) bin
//!   packing by owned-vertex count with a connectivity affinity bonus —
//!   among machines within the balance envelope, prefer the one already
//!   holding the most meta-graph neighbours of the atom.
//! - **ReplicationAware**: greedy region growing over the meta-graph.
//!   Each machine's share is grown one atom at a time, always absorbing
//!   the unplaced atom with the largest cross-edge weight into the
//!   region so far, up to an even load target. Connected neighborhoods
//!   land on one machine, so a vertex's scope — and therefore its lock
//!   chain — spans fewer machines (ROADMAP item 4a).
//! - **RoundRobin**: atom `a` → machine `a mod m`; the degenerate
//!   scatter baseline the ablations compare against.
//!
//! All strategies are deterministic pure functions of the index — no RNG,
//! no hash-order iteration: placement runs inside adoption plans, which
//! must replay identically on every survivor.

use bytes::{Bytes, BytesMut};
use graphlab_graph::{AtomId, MachineId};
use graphlab_net::codec::Codec;

use crate::index::AtomIndex;

/// How atoms are packed onto machines (see the [module docs](self)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Atom `a` on machine `a mod m` — ignores the meta-graph entirely.
    RoundRobin,
    /// LPT by owned-vertex count with an affinity tie-break (the
    /// default; what [`Placement::compute`] runs).
    #[default]
    Affinity,
    /// Region growing by cross-edge weight: co-locates hot
    /// neighborhoods so lock chains span fewer machines.
    ReplicationAware,
}

/// Assignment of atoms to machines.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Placement {
    machine_of: Vec<MachineId>,
    num_machines: usize,
}

impl Placement {
    /// Computes a placement of `index`'s atoms onto `num_machines`
    /// machines with the given strategy.
    pub fn with_strategy(
        index: &AtomIndex,
        num_machines: usize,
        strategy: PlacementStrategy,
    ) -> Placement {
        match strategy {
            PlacementStrategy::RoundRobin => Placement::round_robin(index.num_atoms(), num_machines),
            PlacementStrategy::Affinity => Placement::compute(index, num_machines),
            PlacementStrategy::ReplicationAware => Placement::replication_aware(index, num_machines),
        }
    }

    /// Computes a placement of `index`'s atoms onto `num_machines`
    /// machines ([`PlacementStrategy::Affinity`]).
    pub fn compute(index: &AtomIndex, num_machines: usize) -> Placement {
        assert!(num_machines > 0);
        let k = index.num_atoms();
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&a| std::cmp::Reverse(index.entries[a].owned_vertices));

        let total: u64 = index.entries.iter().map(|e| e.owned_vertices).sum();
        // Allow 20% headroom over the perfectly balanced load before
        // affinity is overruled.
        let cap = (total as f64 / num_machines as f64 * 1.2).ceil() as u64 + 1;

        let mut machine_of = vec![MachineId(0); k];
        let mut placed = vec![false; k];
        let mut load = vec![0u64; num_machines];

        for &a in &order {
            let entry = &index.entries[a];
            // Affinity: count already-placed neighbour atoms per machine.
            let mut affinity = vec![0u64; num_machines];
            for &(nbr, w) in &entry.neighbors {
                if placed[nbr.index()] {
                    affinity[machine_of[nbr.index()].index()] += w;
                }
            }
            // Candidate: max affinity among machines under cap; fall back
            // to least-loaded.
            let mut best: Option<usize> = None;
            for m in 0..num_machines {
                if load[m] + entry.owned_vertices <= cap {
                    match best {
                        None => best = Some(m),
                        Some(b) => {
                            let better = (affinity[m], std::cmp::Reverse(load[m]))
                                > (affinity[b], std::cmp::Reverse(load[b]));
                            if better {
                                best = Some(m);
                            }
                        }
                    }
                }
            }
            let m = best.unwrap_or_else(|| {
                (0..num_machines).min_by_key(|&m| load[m]).expect("num_machines > 0")
            });
            machine_of[a] = MachineId::from(m);
            placed[a] = true;
            load[m] += entry.owned_vertices;
        }
        Placement { machine_of, num_machines }
    }

    /// Replication-aware placement ([`PlacementStrategy::ReplicationAware`]).
    ///
    /// Machines are filled in order. Each one grows a connected region:
    /// starting from the heaviest unplaced atom, it repeatedly absorbs
    /// the unplaced atom with the largest total cross-edge weight into
    /// the region so far (ties broken by owned-vertex count, then by
    /// atom id — a full deterministic order), stopping once the region
    /// reaches the even-load target `⌈total/m⌉`. The last machine takes
    /// whatever remains, so every atom is placed exactly once.
    ///
    /// Greedy growth strands fragments on late machines (the first
    /// regions consume the densest neighborhoods), so a bounded number
    /// of deterministic refinement passes follow: each atom moves to
    /// the machine holding the largest share of its cross-edge weight
    /// whenever that strictly improves co-location and stays under a
    /// 10%-headroom balance cap.
    fn replication_aware(index: &AtomIndex, num_machines: usize) -> Placement {
        assert!(num_machines > 0);
        let k = index.num_atoms();
        let total: u64 = index.entries.iter().map(|e| e.owned_vertices).sum();
        let target = total.div_ceil(num_machines as u64);

        let mut machine_of = vec![MachineId(0); k];
        let mut placed = vec![false; k];
        let mut remaining = k;
        for m in 0..num_machines {
            if remaining == 0 {
                break;
            }
            let last = m + 1 == num_machines;
            let mut load = 0u64;
            // gain[a] = cross-edge weight from unplaced atom a into this
            // machine's region so far.
            let mut gain = vec![0u64; k];
            while remaining > 0 && (load < target || last) {
                let mut best: Option<usize> = None;
                for a in 0..k {
                    if placed[a] {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some(b) => {
                            (gain[a], index.entries[a].owned_vertices)
                                > (gain[b], index.entries[b].owned_vertices)
                        }
                    };
                    if better {
                        best = Some(a);
                    }
                }
                let a = best.expect("remaining > 0");
                // Keep regions within the target: a non-empty region
                // stops before overshooting (the last machine sweeps up).
                if load > 0 && !last && load + index.entries[a].owned_vertices > target {
                    break;
                }
                machine_of[a] = MachineId::from(m);
                placed[a] = true;
                remaining -= 1;
                load += index.entries[a].owned_vertices;
                for &(nbr, w) in &index.entries[a].neighbors {
                    if !placed[nbr.index()] {
                        gain[nbr.index()] += w;
                    }
                }
            }
        }

        // Refinement: best-fit moves, fixed atom order, at most 3 passes
        // (every step strictly increases co-located weight, so this
        // terminates regardless; 3 passes capture nearly all of it).
        let cap = (total as f64 / num_machines as f64 * 1.1).ceil() as u64 + 1;
        let mut load = vec![0u64; num_machines];
        for a in 0..k {
            load[machine_of[a].index()] += index.entries[a].owned_vertices;
        }
        for _ in 0..3 {
            let mut moved = false;
            for a in 0..k {
                let cur = machine_of[a].index();
                let mut weight = vec![0u64; num_machines];
                for &(nbr, w) in &index.entries[a].neighbors {
                    weight[machine_of[nbr.index()].index()] += w;
                }
                let mut best = cur;
                for (m, &w) in weight.iter().enumerate() {
                    if m != cur
                        && w > weight[best]
                        && load[m] + index.entries[a].owned_vertices <= cap
                    {
                        best = m;
                    }
                }
                if best != cur {
                    load[cur] -= index.entries[a].owned_vertices;
                    load[best] += index.entries[a].owned_vertices;
                    machine_of[a] = MachineId::from(best);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        Placement { machine_of, num_machines }
    }

    /// Round-robin placement (used by tests and as a degenerate baseline).
    pub fn round_robin(num_atoms: usize, num_machines: usize) -> Placement {
        assert!(num_machines > 0);
        Placement {
            machine_of: (0..num_atoms).map(|a| MachineId::from(a % num_machines)).collect(),
            num_machines,
        }
    }

    /// Machine that loads `atom`.
    #[inline]
    pub fn machine_of(&self, atom: AtomId) -> MachineId {
        self.machine_of[atom.index()]
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// Number of atoms placed.
    pub fn num_atoms(&self) -> usize {
        self.machine_of.len()
    }

    /// Atoms assigned to `machine`.
    pub fn atoms_of(&self, machine: MachineId) -> Vec<AtomId> {
        self.machine_of
            .iter()
            .enumerate()
            .filter(|(_, &m)| m == machine)
            .map(|(a, _)| AtomId(a as u32))
            .collect()
    }

    /// Restart-free elasticity (§3): re-balances the atoms of `dead`
    /// machines over the survivors. Survivors keep every atom they
    /// already hold (their loaded state stays valid); only the dead
    /// machines' atoms move, LPT-packed by owned-vertex count onto the
    /// currently least-loaded survivor — the k·n over-partitioning is
    /// what makes the adopted shares even. Panics if no machine survives.
    pub fn adopt(&self, index: &AtomIndex, dead: &[bool]) -> Placement {
        assert_eq!(dead.len(), self.num_machines);
        assert!(dead.iter().any(|&d| !d), "adoption needs at least one survivor");
        let mut machine_of = self.machine_of.clone();
        let mut load = vec![0u64; self.num_machines];
        for (a, &m) in machine_of.iter().enumerate() {
            if !dead[m.index()] {
                load[m.index()] += index.entries[a].owned_vertices;
            }
        }
        // Orphaned atoms, heaviest first (LPT).
        let mut orphans: Vec<usize> =
            (0..machine_of.len()).filter(|&a| dead[machine_of[a].index()]).collect();
        orphans.sort_by_key(|&a| (std::cmp::Reverse(index.entries[a].owned_vertices), a));
        for a in orphans {
            let m = (0..self.num_machines)
                .filter(|&m| !dead[m])
                .min_by_key(|&m| (load[m], m))
                .expect("at least one survivor");
            machine_of[a] = MachineId::from(m);
            load[m] += index.entries[a].owned_vertices;
        }
        Placement { machine_of, num_machines: self.num_machines }
    }

    /// Owned-vertex load per machine given the index.
    pub fn loads(&self, index: &AtomIndex) -> Vec<u64> {
        let mut loads = vec![0u64; self.num_machines];
        for (a, &m) in self.machine_of.iter().enumerate() {
            loads[m.index()] += index.entries[a].owned_vertices;
        }
        loads
    }
}

impl Codec for Placement {
    fn encode(&self, buf: &mut BytesMut) {
        let raw: Vec<u16> = self.machine_of.iter().map(|m| m.0).collect();
        raw.encode(buf);
        (self.num_machines as u32).encode(buf);
    }
    /// `None` unless the machine count is one a `MachineId` can name (1 to
    /// `u16::MAX + 1`) and every atom's machine is below it: `loads` and
    /// `adopt` index and size by what a peer sent.
    fn decode(buf: &mut Bytes) -> Option<Self> {
        let raw = Vec::<u16>::decode(buf)?;
        let num_machines = u32::decode(buf)? as usize;
        if !(1..=u16::MAX as usize + 1).contains(&num_machines)
            || raw.iter().any(|&m| m as usize >= num_machines)
        {
            return None;
        }
        Some(Placement { machine_of: raw.into_iter().map(MachineId).collect(), num_machines })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::AtomIndexEntry;

    fn index(sizes: &[u64], edges: &[(usize, usize, u64)]) -> AtomIndex {
        let mut entries: Vec<AtomIndexEntry> = sizes
            .iter()
            .enumerate()
            .map(|(a, &s)| AtomIndexEntry {
                atom: AtomId(a as u32),
                owned_vertices: s,
                owned_edges: 0,
                file: format!("t/atom_{a:06}"),
                neighbors: vec![],
            })
            .collect();
        for &(a, b, w) in edges {
            entries[a].neighbors.push((AtomId(b as u32), w));
            entries[b].neighbors.push((AtomId(a as u32), w));
        }
        AtomIndex { entries, total_vertices: sizes.iter().sum(), total_edges: 0 }
    }

    #[test]
    fn balances_equal_atoms() {
        let idx = index(&[10; 8], &[]);
        let p = Placement::compute(&idx, 4);
        let loads = p.loads(&idx);
        assert_eq!(loads, vec![20, 20, 20, 20]);
    }

    #[test]
    fn affinity_groups_connected_atoms() {
        // Two cliques of atoms {0,1} and {2,3} heavily connected inside.
        let idx = index(&[10, 10, 10, 10], &[(0, 1, 100), (2, 3, 100), (1, 2, 1)]);
        let p = Placement::compute(&idx, 2);
        assert_eq!(p.machine_of(AtomId(0)), p.machine_of(AtomId(1)));
        assert_eq!(p.machine_of(AtomId(2)), p.machine_of(AtomId(3)));
        assert_ne!(p.machine_of(AtomId(0)), p.machine_of(AtomId(2)));
    }

    #[test]
    fn handles_skewed_sizes() {
        let idx = index(&[100, 1, 1, 1, 1, 1], &[]);
        let p = Placement::compute(&idx, 2);
        let loads = p.loads(&idx);
        // The big atom alone on one machine, the small ones elsewhere.
        assert_eq!(loads.iter().max(), Some(&100));
        assert_eq!(loads.iter().sum::<u64>(), 105);
    }

    #[test]
    fn round_robin_covers_machines() {
        let p = Placement::round_robin(10, 3);
        assert_eq!(p.atoms_of(MachineId(0)).len(), 4);
        assert_eq!(p.atoms_of(MachineId(1)).len(), 3);
        assert_eq!(p.atoms_of(MachineId(2)).len(), 3);
    }

    #[test]
    fn adopt_moves_only_dead_atoms_and_balances() {
        let idx = index(&[10; 8], &[]);
        let p = Placement::compute(&idx, 4);
        let q = p.adopt(&idx, &[false, false, true, false]);
        for a in 0..8 {
            let a = AtomId(a);
            if p.machine_of(a) != MachineId(2) {
                assert_eq!(q.machine_of(a), p.machine_of(a), "survivor atoms stay put");
            } else {
                assert_ne!(q.machine_of(a), MachineId(2), "orphans leave the dead machine");
            }
        }
        assert!(q.atoms_of(MachineId(2)).is_empty());
        let loads = q.loads(&idx);
        assert_eq!(loads[2], 0);
        // 80 vertices over 3 survivors: within one atom of even.
        for m in [0, 1, 3] {
            assert!((20..=30).contains(&loads[m]), "loads {loads:?}");
        }
    }

    #[test]
    fn adopt_cascading_deaths_compose() {
        let idx = index(&[7, 5, 3, 2, 2, 1], &[]);
        let p = Placement::compute(&idx, 3);
        let q = p.adopt(&idx, &[false, true, false]);
        let r = q.adopt(&idx, &[false, true, true]);
        assert!(r.atoms_of(MachineId(1)).is_empty());
        assert!(r.atoms_of(MachineId(2)).is_empty());
        assert_eq!(r.atoms_of(MachineId(0)).len(), 6, "sole survivor holds everything");
    }

    #[test]
    #[should_panic(expected = "survivor")]
    fn adopt_requires_a_survivor() {
        let idx = index(&[1, 1], &[]);
        let p = Placement::compute(&idx, 2);
        let _ = p.adopt(&idx, &[true, true]);
    }

    #[test]
    fn codec_roundtrip() {
        let p = Placement::round_robin(5, 2);
        let bytes = graphlab_net::codec::encode_to_bytes(&p);
        assert_eq!(graphlab_net::codec::decode_from::<Placement>(bytes), Some(p));
    }

    #[test]
    fn more_machines_than_atoms() {
        let idx = index(&[5, 5], &[]);
        let p = Placement::compute(&idx, 8);
        let loads = p.loads(&idx);
        assert_eq!(loads.iter().filter(|&&l| l > 0).count(), 2);
    }

    #[test]
    fn replication_aware_groups_connected_regions() {
        // Two chains of atoms {0-1-2-3} and {4-5-6-7} connected inside,
        // one weak bridge between them: region growing must keep each
        // chain whole.
        let idx = index(
            &[10; 8],
            &[(0, 1, 50), (1, 2, 50), (2, 3, 50), (4, 5, 50), (5, 6, 50), (6, 7, 50), (3, 4, 1)],
        );
        let p = Placement::with_strategy(&idx, 2, PlacementStrategy::ReplicationAware);
        for pair in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)] {
            assert_eq!(
                p.machine_of(AtomId(pair.0)),
                p.machine_of(AtomId(pair.1)),
                "chain edge {pair:?} cut"
            );
        }
        assert_ne!(p.machine_of(AtomId(0)), p.machine_of(AtomId(7)));
        assert_eq!(p.loads(&idx), vec![40, 40]);
    }

    #[test]
    fn replication_aware_covers_every_atom_and_balances() {
        let idx = index(&[9, 7, 5, 3, 3, 2, 1, 1], &[(0, 2, 4), (1, 3, 4), (5, 6, 2)]);
        let p = Placement::with_strategy(&idx, 3, PlacementStrategy::ReplicationAware);
        let loads = p.loads(&idx);
        assert_eq!(loads.iter().sum::<u64>(), 31, "every atom placed exactly once");
        assert!(p.atoms_of(MachineId(0)).len() + p.atoms_of(MachineId(1)).len()
            + p.atoms_of(MachineId(2)).len() == 8);
        for m in 0..3 {
            assert!((0..3).contains(&m) && loads[m] > 0, "no empty machine: {loads:?}");
        }
    }

    #[test]
    fn replication_aware_more_machines_than_atoms() {
        let idx = index(&[5, 5], &[(0, 1, 1)]);
        let p = Placement::with_strategy(&idx, 8, PlacementStrategy::ReplicationAware);
        let loads = p.loads(&idx);
        assert_eq!(loads.iter().sum::<u64>(), 10);
        // Target ⌈10/8⌉ = 2: each atom already exceeds it alone, so
        // balance wins over the weak bridge and the atoms spread out.
        assert_eq!(loads.iter().filter(|&&l| l > 0).count(), 2, "one atom per machine");
    }

    #[test]
    fn strategy_dispatch_matches_direct_calls() {
        let idx = index(&[10; 6], &[(0, 1, 5), (2, 3, 5)]);
        assert_eq!(
            Placement::with_strategy(&idx, 3, PlacementStrategy::Affinity),
            Placement::compute(&idx, 3)
        );
        assert_eq!(
            Placement::with_strategy(&idx, 3, PlacementStrategy::RoundRobin),
            Placement::round_robin(6, 3)
        );
    }
}
