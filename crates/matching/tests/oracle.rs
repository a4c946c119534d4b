//! Property tests: the matcher always reaches the same maximum matching
//! *size* as the independent Hopcroft–Karp solver, across random graphs
//! and random mutation sequences — including long remove/re-add runs that
//! recycle vertex slots through compaction. Two instances fed the same
//! mutations agree edge-for-edge, and every exchangeable donor really can
//! be exchanged.

use crowdfill_matching::{hopcroft_karp, max_matching_size, ShardedMatcher};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum Mutation {
    AddEdge(u8, u8),
    /// A probable row arriving: right `r` joined to every left in the mask.
    AddRight(u8, u16),
    RemoveEdge(u8, u8),
    RemoveLeft(u8),
    RemoveRight(u8),
    /// Right `r` leaves and re-arrives with the mask's edges, `n` times.
    Churn(u8, u16, u8),
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        5 => (0u8..10, 0u8..10).prop_map(|(l, r)| Mutation::AddEdge(l, r)),
        3 => (0u8..10, 0u16..1024).prop_map(|(r, mask)| Mutation::AddRight(r, mask)),
        2 => (0u8..10, 0u8..10).prop_map(|(l, r)| Mutation::RemoveEdge(l, r)),
        1 => (0u8..10).prop_map(Mutation::RemoveLeft),
        2 => (0u8..10).prop_map(Mutation::RemoveRight),
        1 => (0u8..10, 0u16..1024, 1u8..40).prop_map(|(r, mask, n)| Mutation::Churn(r, mask, n)),
    ]
}

/// The matcher under test, a twin fed identical mutations, and the edge
/// set the oracle solves.
struct Model {
    m: ShardedMatcher<u8, u8>,
    twin: ShardedMatcher<u8, u8>,
    edges: HashSet<(u8, u8)>,
}

impl Model {
    fn apply(&mut self, mu: &Mutation) {
        for m in [&mut self.m, &mut self.twin] {
            match *mu {
                Mutation::AddEdge(l, r) => {
                    m.add_edge(l, r);
                }
                Mutation::AddRight(r, mask) => {
                    m.add_right(r);
                    for l in (0..10u8).filter(|l| mask & (1 << l) != 0) {
                        m.add_edge(l, r);
                    }
                }
                Mutation::RemoveEdge(l, r) => {
                    m.remove_edge(&l, &r);
                }
                Mutation::RemoveLeft(l) => {
                    m.remove_left(&l);
                }
                Mutation::RemoveRight(r) => {
                    m.remove_right(&r);
                }
                Mutation::Churn(..) => unreachable!("expanded by the caller"),
            }
        }
        match *mu {
            Mutation::AddEdge(l, r) => {
                self.edges.insert((l, r));
            }
            Mutation::AddRight(r, mask) => {
                self.edges
                    .extend((0..10u8).filter(|l| mask & (1 << l) != 0).map(|l| (l, r)));
            }
            Mutation::RemoveEdge(l, r) => {
                self.edges.remove(&(l, r));
            }
            Mutation::RemoveLeft(l) => self.edges.retain(|&(el, _)| el != l),
            Mutation::RemoveRight(r) => self.edges.retain(|&(_, er)| er != r),
            Mutation::Churn(..) => unreachable!("expanded by the caller"),
        }
    }

    fn oracle(&self) -> usize {
        let mut adj = vec![Vec::new(); 10];
        for &(l, r) in &self.edges {
            adj[l as usize].push(r as usize);
        }
        max_matching_size(&adj, 10)
    }

    /// Invariants that hold after any mutation, repaired or not.
    fn check(&self) -> Result<(), TestCaseError> {
        let m = &self.m;
        prop_assert!(m.check_consistency());
        let live = m.left_count() + m.right_count();
        prop_assert!(
            m.slot_count() <= 2 * live + 16,
            "{} slots for {} live vertices",
            m.slot_count(),
            live
        );
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hopcroft–Karp returns an injective matching using only real edges.
    #[test]
    fn hopcroft_karp_is_valid(
        edges in proptest::collection::hash_set((0usize..12, 0usize..12), 0..50)
    ) {
        let mut adj = vec![Vec::new(); 12];
        for &(l, r) in &edges {
            adj[l].push(r);
        }
        let m = hopcroft_karp(&adj, 12);
        let mut used = HashSet::new();
        for (l, r) in m.iter().enumerate() {
            if let Some(r) = r {
                prop_assert!(adj[l].contains(r));
                prop_assert!(used.insert(*r));
            }
        }
    }

    /// The matcher hits the oracle's maximum after every mutation + repair,
    /// keeps its slots within a constant factor of the live graph, agrees
    /// edge-for-edge with an identically-mutated twin, and every donor
    /// `exchangeable_lefts` names can really be exchanged.
    #[test]
    fn sharded_matches_oracle_and_is_deterministic(
        muts in proptest::collection::vec(mutation_strategy(), 1..80)
    ) {
        let mut model = Model {
            m: ShardedMatcher::new(),
            twin: ShardedMatcher::new(),
            edges: HashSet::new(),
        };
        for mu in &muts {
            let steps = match *mu {
                Mutation::Churn(r, mask, n) => (0..n)
                    .flat_map(|_| [Mutation::RemoveRight(r), Mutation::AddRight(r, mask)])
                    .collect(),
                _ => vec![mu.clone()],
            };
            for step in &steps {
                model.apply(step);
                model.check()?;
            }
            model.m.repair();
            model.twin.repair();
            model.check()?;
            prop_assert_eq!(model.m.matching_size(), model.oracle());
            for l in 0u8..10 {
                prop_assert_eq!(
                    model.m.matched_right(&l), model.twin.matched_right(&l),
                    "twins diverged at left {}", l
                );
            }

            for free in model.m.free_lefts() {
                for donor in model.m.exchangeable_lefts(&free) {
                    let mut m = model.m.clone();
                    prop_assert!(m.exchange(&free, &donor));
                    prop_assert!(m.check_consistency());
                    prop_assert_eq!(m.matching_size(), model.m.matching_size());
                    prop_assert!(m.matched_right(&free).is_some());
                    prop_assert!(m.matched_right(&donor).is_none());
                }
            }
        }
    }

    /// Maximality: no single free-left/free-right edge remains unmatched.
    #[test]
    fn hopcroft_karp_is_maximal(
        edges in proptest::collection::hash_set((0usize..10, 0usize..10), 0..40)
    ) {
        let mut adj = vec![Vec::new(); 10];
        for &(l, r) in &edges {
            adj[l].push(r);
        }
        let m = hopcroft_karp(&adj, 10);
        let used_rights: HashSet<usize> = m.iter().flatten().copied().collect();
        for (l, r) in &edges {
            // An augmenting path of length 1 would contradict maximality.
            prop_assert!(
                m[*l].is_some() || used_rights.contains(r),
                "edge ({l},{r}) joins two free vertices"
            );
        }
    }
}
