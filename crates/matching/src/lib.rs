//! # crowdfill-matching
//!
//! Bipartite-matching substrate for CrowdFill's Probable Rows Invariant
//! (paper §4.2). The PRI is equivalent to: *a maximum bipartite matching
//! between template rows (left) and probable rows (right) has exactly |T|
//! edges*. The Central Client maintains that matching **incrementally** as
//! workers act — each change adds/removes a handful of edges, after which a
//! single augmenting-path search (Berge's theorem) restores maximality.
//!
//! * [`ShardedMatcher`] — the live structure: add/remove vertices and
//!   edges, repair in place with BFS augmenting paths, and query the
//!   alternating structure (the CC's "shuffle" step when a template row
//!   must be freed).
//! * [`hopcroft_karp`] — an independent O(E·√V) bulk solver, the test
//!   oracle for the incremental engine.
//!
//! ## Determinism
//!
//! The Central Client's insert/shuffle/drop decisions read the matching, so
//! two servers fed the same message sequence must produce byte-identical
//! broadcast histories (`server/tests/batch_props.rs`). The matched edges
//! are therefore a pure function of the mutation history: free lefts are
//! augmented in ascending key order, every search is a FIFO BFS, and each
//! left's adjacency keeps edge insertion order.
//!
//! ## Dense slots
//!
//! Vertices live in dense slots, so a search indexes vectors instead of
//! ordered maps. Removing a vertex costs O(degree): its slot is marked
//! dead and the neighbours' entries for it are left in place as stale
//! entries that searches skip. Once dead slots outnumber live vertices, or
//! stale entries outnumber live ones, [`ShardedMatcher`] compacts: it
//! renumbers the live slots densely and drops every stale entry in one
//! O(V + E) pass. A slot number is only reused after that pass, so a stale
//! entry never names a recycled slot, and memory stays proportional to the
//! live graph however many probable rows come and go.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;

use crowdfill_obs::metrics::Counter;

/// Counter of augmenting-path searches started.
fn augment_searches() -> &'static Counter {
    static C: OnceLock<std::sync::Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_matching_augment_searches"))
}

/// Counter of lefts reached across all augmenting-path searches — the
/// matcher's unit of work.
fn augment_steps() -> &'static Counter {
    static C: OnceLock<std::sync::Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_matching_augment_steps"))
}

/// "No slot": an unmatched vertex's mate, or a dead slot's new number.
const NONE: u32 = u32::MAX;

/// Dead slots (and stale adjacency entries) tolerated beyond the live
/// count before the matcher compacts.
const COMPACT_SLACK: usize = 16;

/// One vertex: its key (`None` once removed, until compaction), its
/// neighbours on the other side in edge insertion order (possibly naming
/// dead slots), and its mate on the other side.
#[derive(Debug, Clone)]
struct Slot<K> {
    key: Option<K>,
    adj: Vec<u32>,
    mate: u32,
}

impl<K> Slot<K> {
    fn new(key: K) -> Slot<K> {
        Slot {
            key: Some(key),
            adj: Vec::new(),
            mate: NONE,
        }
    }

    fn live(&self) -> bool {
        self.key.is_some()
    }
}

/// Multiply-fold hash for the edge set's packed slot pairs. With the
/// default SipHash, bench-report's `fill_cycle/300x330` ran ~1.5× slower.
#[derive(Debug, Default, Clone, Copy)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

/// The edge set's key for left slot `l` and right slot `r`.
fn pair(l: u32, r: u32) -> u64 {
    (u64::from(l) << 32) | u64::from(r)
}

/// Marks `slots[s]` dead and detaches it. Returns its former mate and its
/// neighbours that are still live; entries it held for dead neighbours
/// are dropped, and the count of those is returned too.
fn unlink<K, O>(slots: &mut [Slot<K>], others: &[Slot<O>], s: u32) -> (u32, Vec<u32>, usize) {
    let slot = &mut slots[s as usize];
    slot.key = None;
    let mate = std::mem::replace(&mut slot.mate, NONE);
    let mut adj = std::mem::take(&mut slot.adj);
    let before = adj.len();
    adj.retain(|&n| others[n as usize].live());
    let dropped = before - adj.len();
    (mate, adj, dropped)
}

/// Drops the dead slots, keeping the live ones in slot order. Returns
/// each old slot's new number ([`NONE`] for the dead).
fn renumber<K>(slots: &mut Vec<Slot<K>>) -> Vec<u32> {
    let mut next = 0;
    let map = slots
        .iter()
        .map(|s| {
            if s.live() {
                next += 1;
                next - 1
            } else {
                NONE
            }
        })
        .collect();
    slots.retain(Slot::live);
    map
}

/// Rewrites adjacency and mates through the other side's renumbering,
/// dropping the entries that named dead vertices.
fn relink<K>(slots: &mut [Slot<K>], other: &[u32]) {
    for slot in slots {
        slot.adj.retain_mut(|n| {
            *n = other[*n as usize];
            *n != NONE
        });
        if slot.mate != NONE {
            slot.mate = other[slot.mate as usize];
        }
    }
}

/// An incrementally-maintained bipartite matching over caller-supplied
/// vertex keys, repaired in place on the calling thread.
///
/// Left vertices model template rows; right vertices model probable rows.
/// The structure never removes a matched edge on its own: mutations report
/// whether they broke the matching, and [`repair`](Self::repair) restores
/// maximality via augmenting paths. See the crate docs for the determinism
/// contract and the slot layout. (The name is kept from an earlier design
/// that repaired connected components on separate threads.)
#[derive(Debug, Clone)]
pub struct ShardedMatcher<L, R> {
    /// Live left keys → slot, ordered so free lefts repair ascending.
    left_slot: BTreeMap<L, u32>,
    /// Live right keys → slot.
    right_slot: HashMap<R, u32>,
    lefts: Vec<Slot<L>>,
    rights: Vec<Slot<R>>,
    /// Live edges as packed (left slot, right slot): O(1) duplicate checks.
    edges: HashSet<u64, BuildHasherDefault<PairHasher>>,
    matched: usize,
    /// Adjacency entries naming a dead slot.
    stale: usize,
    /// Search scratch per right slot: the search that last reached it…
    seen: Vec<u32>,
    /// …and the left it was reached from.
    parent: Vec<u32>,
    epoch: u32,
    queue: Vec<u32>,
}

impl<L, R> Default for ShardedMatcher<L, R> {
    fn default() -> Self {
        ShardedMatcher {
            left_slot: BTreeMap::new(),
            right_slot: HashMap::new(),
            lefts: Vec::new(),
            rights: Vec::new(),
            edges: HashSet::default(),
            matched: 0,
            stale: 0,
            seen: Vec::new(),
            parent: Vec::new(),
            epoch: 0,
            queue: Vec::new(),
        }
    }
}

impl<L, R> ShardedMatcher<L, R>
where
    L: Clone + Eq + Hash + Ord,
    R: Clone + Eq + Hash + Ord,
{
    /// An empty matcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of matched pairs.
    pub fn matching_size(&self) -> usize {
        self.matched
    }

    /// Number of left vertices.
    pub fn left_count(&self) -> usize {
        self.left_slot.len()
    }

    /// Number of right vertices.
    pub fn right_count(&self) -> usize {
        self.right_slot.len()
    }

    /// Vertex slots held, live or dead awaiting compaction. Stays within
    /// twice the live vertex count plus a small constant.
    pub fn slot_count(&self) -> usize {
        self.lefts.len() + self.rights.len()
    }

    /// The right vertex matched to `l`, if any.
    pub fn matched_right(&self, l: &L) -> Option<&R> {
        let mate = self.lefts[*self.left_slot.get(l)? as usize].mate;
        if mate == NONE {
            return None;
        }
        self.rights[mate as usize].key.as_ref()
    }

    /// The left vertex matched to `r`, if any.
    pub fn matched_left(&self, r: &R) -> Option<&L> {
        let mate = self.rights[*self.right_slot.get(r)? as usize].mate;
        if mate == NONE {
            return None;
        }
        self.lefts[mate as usize].key.as_ref()
    }

    /// Whether left vertex `l` exists.
    pub fn has_left(&self, l: &L) -> bool {
        self.left_slot.contains_key(l)
    }

    /// Whether right vertex `r` exists.
    pub fn has_right(&self, r: &R) -> bool {
        self.right_slot.contains_key(r)
    }

    /// The currently unmatched left vertices, ascending (deterministic).
    pub fn free_lefts(&self) -> Vec<L> {
        self.left_slot
            .iter()
            .filter(|(_, &s)| self.lefts[s as usize].mate == NONE)
            .map(|(l, _)| l.clone())
            .collect()
    }

    /// The threads a [`repair`](Self::repair) runs on: always 1, since
    /// repair runs in place on the calling thread.
    pub fn planned_threads(&self) -> usize {
        1
    }

    fn left(&mut self, l: L) -> u32 {
        let lefts = &mut self.lefts;
        *self.left_slot.entry(l.clone()).or_insert_with(|| {
            lefts.push(Slot::new(l));
            lefts.len() as u32 - 1
        })
    }

    fn right(&mut self, r: R) -> u32 {
        let rights = &mut self.rights;
        *self.right_slot.entry(r.clone()).or_insert_with(|| {
            rights.push(Slot::new(r));
            rights.len() as u32 - 1
        })
    }

    /// Adds an isolated left vertex. No-op if present.
    pub fn add_left(&mut self, l: L) {
        self.left(l);
    }

    /// Adds an isolated right vertex. No-op if present.
    pub fn add_right(&mut self, r: R) {
        self.right(r);
    }

    /// Adds an edge (creating endpoints as needed). Returns `true` if the
    /// edge is new.
    pub fn add_edge(&mut self, l: L, r: R) -> bool {
        let (ls, rs) = (self.left(l), self.right(r));
        if !self.edges.insert(pair(ls, rs)) {
            return false;
        }
        self.lefts[ls as usize].adj.push(rs);
        self.rights[rs as usize].adj.push(ls);
        true
    }

    /// Removes an edge if present; a matched pair becomes unmatched (call
    /// [`repair`](Self::repair) afterwards). Returns `true` if removed.
    pub fn remove_edge(&mut self, l: &L, r: &R) -> bool {
        let (Some(&ls), Some(&rs)) = (self.left_slot.get(l), self.right_slot.get(r)) else {
            return false;
        };
        if !self.edges.remove(&pair(ls, rs)) {
            return false;
        }
        let ladj = &mut self.lefts[ls as usize].adj;
        ladj.remove(ladj.iter().position(|&x| x == rs).expect("edge listed"));
        let radj = &mut self.rights[rs as usize].adj;
        radj.remove(radj.iter().position(|&x| x == ls).expect("edge listed"));
        if self.lefts[ls as usize].mate == rs {
            self.lefts[ls as usize].mate = NONE;
            self.rights[rs as usize].mate = NONE;
            self.matched -= 1;
        }
        self.maybe_compact();
        true
    }

    /// Removes a right vertex and all its edges; unmatches its partner.
    /// Returns the left vertex that lost its match, if any.
    pub fn remove_right(&mut self, r: &R) -> Option<L> {
        let rs = self.right_slot.remove(r)?;
        let (mate, live, dropped) = unlink(&mut self.rights, &self.lefts, rs);
        for &ls in &live {
            self.edges.remove(&pair(ls, rs));
        }
        self.stale = self.stale + live.len() - dropped;
        let widowed = (mate != NONE).then(|| {
            self.matched -= 1;
            let slot = &mut self.lefts[mate as usize];
            slot.mate = NONE;
            slot.key.clone().expect("mate is live")
        });
        self.maybe_compact();
        widowed
    }

    /// Removes a left vertex and all its edges; unmatches its partner.
    /// Returns the right vertex that lost its match, if any.
    pub fn remove_left(&mut self, l: &L) -> Option<R> {
        let ls = self.left_slot.remove(l)?;
        let (mate, live, dropped) = unlink(&mut self.lefts, &self.rights, ls);
        for &rs in &live {
            self.edges.remove(&pair(ls, rs));
        }
        self.stale = self.stale + live.len() - dropped;
        let widowed = (mate != NONE).then(|| {
            self.matched -= 1;
            let slot = &mut self.rights[mate as usize];
            slot.mate = NONE;
            slot.key.clone().expect("mate is live")
        });
        self.maybe_compact();
        widowed
    }

    fn maybe_compact(&mut self) {
        let live = self.left_count() + self.right_count();
        if self.slot_count() - live > live + COMPACT_SLACK
            || self.stale > 2 * self.edges.len() + COMPACT_SLACK
        {
            self.compact();
        }
    }

    /// Renumbers the live slots densely and drops every stale entry. Keeps
    /// each adjacency list's order, so no later search changes course.
    fn compact(&mut self) {
        let lmap = renumber(&mut self.lefts);
        let rmap = renumber(&mut self.rights);
        relink(&mut self.lefts, &rmap);
        relink(&mut self.rights, &lmap);
        for s in self.left_slot.values_mut() {
            *s = lmap[*s as usize];
        }
        for s in self.right_slot.values_mut() {
            *s = rmap[*s as usize];
        }
        self.edges.clear();
        for (ls, slot) in self.lefts.iter().enumerate() {
            self.edges
                .extend(slot.adj.iter().map(|&rs| pair(ls as u32, rs)));
        }
        self.stale = 0;
        self.seen.clear();
        self.parent.clear();
    }

    /// BFS over alternating paths from free left slot `from`: an unmatched
    /// edge to a right, then that right's matched edge back to its mate.
    /// Returns the first right reached whose mate is `goal` — [`NONE`] for
    /// a free right — with `parent` leading back to `from`.
    fn search(&mut self, from: u32, goal: u32) -> Option<u32> {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        if self.seen.len() < self.rights.len() {
            self.seen.resize(self.rights.len(), 0);
            self.parent.resize(self.rights.len(), NONE);
        }
        self.queue.clear();
        self.queue.push(from);
        let mut head = 0;
        while let Some(&cur) = self.queue.get(head) {
            head += 1;
            for &rs in &self.lefts[cur as usize].adj {
                let r = &self.rights[rs as usize];
                if !r.live() || self.seen[rs as usize] == self.epoch {
                    continue;
                }
                self.seen[rs as usize] = self.epoch;
                self.parent[rs as usize] = cur;
                if r.mate == goal {
                    return Some(rs);
                }
                if r.mate != NONE {
                    self.queue.push(r.mate);
                }
            }
        }
        None
    }

    /// Flips the path [`search`](Self::search) found, ending at right `rs`
    /// (now free): every left on it takes the right that reached it.
    fn flip(&mut self, mut rs: u32) {
        loop {
            let ls = self.parent[rs as usize];
            let prev = std::mem::replace(&mut self.lefts[ls as usize].mate, rs);
            self.rights[rs as usize].mate = ls;
            if prev == NONE {
                return;
            }
            rs = prev;
        }
    }

    fn augment_slot(&mut self, ls: u32) -> bool {
        augment_searches().inc();
        let found = self.search(ls, NONE);
        augment_steps().add(self.queue.len() as u64);
        let Some(rs) = found else {
            return false;
        };
        self.flip(rs);
        self.matched += 1;
        true
    }

    /// Attempts to match free left vertex `l` via one augmenting-path search
    /// (Berge's theorem: flipping an augmenting path grows the matching by
    /// one). Returns `true` on success; no-op (`false`) if `l` is unknown or
    /// already matched.
    pub fn augment(&mut self, l: &L) -> bool {
        match self.left_slot.get(l) {
            Some(&ls) if self.lefts[ls as usize].mate == NONE => self.augment_slot(ls),
            _ => false,
        }
    }

    /// Augments every free left vertex once, ascending, and returns the
    /// matching size. After arbitrary mutations this restores maximality.
    pub fn repair(&mut self) -> usize {
        if self.matched < self.left_slot.len() {
            let free: Vec<u32> = self
                .left_slot
                .values()
                .copied()
                .filter(|&s| self.lefts[s as usize].mate == NONE)
                .collect();
            for ls in free {
                self.augment_slot(ls);
            }
        }
        self.matched
    }

    /// The *exchangeable* left vertices for a free left vertex `l`: matched
    /// lefts reachable from `l` by an alternating path, i.e. those whose
    /// match can be shifted so that `l` becomes matched and they become
    /// free, with no other vertex losing its match. BFS discovery order.
    ///
    /// This implements the Central Client's "shuffle" step (paper §4.2): when
    /// inserting a row for template `t` would not be probable, CC looks for
    /// another template row `t'` to free instead.
    pub fn exchangeable_lefts(&self, l: &L) -> Vec<L> {
        let Some(&from) = self.left_slot.get(l) else {
            return Vec::new();
        };
        if self.lefts[from as usize].mate != NONE {
            return Vec::new();
        }
        let mut seen = vec![false; self.rights.len()];
        let mut out = Vec::new();
        let mut queue = VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            for &rs in &self.lefts[cur as usize].adj {
                let r = &self.rights[rs as usize];
                if !r.live() || std::mem::replace(&mut seen[rs as usize], true) {
                    continue;
                }
                if r.mate != NONE {
                    out.extend(self.lefts[r.mate as usize].key.clone());
                    queue.push_back(r.mate);
                }
            }
        }
        out
    }

    /// Rebuilds the matching so that `l` (currently free) becomes matched and
    /// `donor` (currently matched, reachable from `l`) becomes free. Returns
    /// `false` — leaving the matching unchanged — if no alternating path from
    /// `l` ends at `donor`.
    pub fn exchange(&mut self, l: &L, donor: &L) -> bool {
        let (Some(&ls), Some(&ds)) = (self.left_slot.get(l), self.left_slot.get(donor)) else {
            return false;
        };
        if self.lefts[ls as usize].mate != NONE || self.lefts[ds as usize].mate == NONE {
            return false;
        }
        let Some(rs) = self.search(ls, ds) else {
            return false;
        };
        self.lefts[ds as usize].mate = NONE;
        self.rights[rs as usize].mate = NONE;
        self.flip(rs);
        true
    }

    /// Internal consistency check (tests and debug assertions): the key
    /// maps name exactly the live slots, matched pairs are symmetric,
    /// live and joined by an edge, both sides list as many live entries as
    /// there are edges, and the matched and stale counts agree with the
    /// slots. O(V + E), with no hashing per adjacency entry.
    pub fn check_consistency(&self) -> bool {
        /// One side's (matched, live entries, stale entries), if its key
        /// map and mates are sound.
        fn side<'a, K: PartialEq + 'a, O>(
            slots: &[Slot<K>],
            others: &[Slot<O>],
            keys: impl ExactSizeIterator<Item = (&'a K, &'a u32)>,
        ) -> Option<(usize, usize, usize)> {
            let named = keys.len();
            for (k, &s) in keys {
                (slots.get(s as usize)?.key.as_ref() == Some(k)).then_some(())?;
            }
            let (mut live, mut matched, mut entries, mut stale) = (0, 0, 0, 0);
            for (s, slot) in slots.iter().enumerate() {
                if !slot.live() {
                    (slot.adj.is_empty() && slot.mate == NONE).then_some(())?;
                    continue;
                }
                live += 1;
                if slot.mate != NONE {
                    let m = others.get(slot.mate as usize)?;
                    (m.live() && m.mate == s as u32).then_some(())?;
                    matched += 1;
                }
                for &n in &slot.adj {
                    if others.get(n as usize)?.live() {
                        entries += 1;
                    } else {
                        stale += 1;
                    }
                }
            }
            (live == named).then_some((matched, entries, stale))
        }
        let (Some((lm, le, ls)), Some((rm, re, rs))) = (
            side(&self.lefts, &self.rights, self.left_slot.iter()),
            side(&self.rights, &self.lefts, self.right_slot.iter()),
        ) else {
            return false;
        };
        let matched_edges =
            self.lefts.iter().enumerate().all(|(l, slot)| {
                slot.mate == NONE || self.edges.contains(&pair(l as u32, slot.mate))
            });
        matched_edges
            && lm == self.matched
            && rm == self.matched
            && le == self.edges.len()
            && re == self.edges.len()
            && ls + rs == self.stale
    }
}

/// Bulk maximum bipartite matching via Hopcroft–Karp, O(E·√V).
///
/// `adj[i]` lists right-vertex indices adjacent to left vertex `i`;
/// `n_right` is the number of right vertices. Returns `match_left` where
/// `match_left[i]` is the matched right index of left `i`, if any.
pub fn hopcroft_karp(adj: &[Vec<usize>], n_right: usize) -> Vec<Option<usize>> {
    const INF: u32 = u32::MAX;
    let n_left = adj.len();
    let mut match_l: Vec<Option<usize>> = vec![None; n_left];
    let mut match_r: Vec<Option<usize>> = vec![None; n_right];
    let mut dist = vec![INF; n_left];
    let mut queue = VecDeque::new();

    loop {
        // BFS phase: layer free left vertices.
        queue.clear();
        for l in 0..n_left {
            if match_l[l].is_none() {
                dist[l] = 0;
                queue.push_back(l);
            } else {
                dist[l] = INF;
            }
        }
        let mut found_augmenting_layer = false;
        while let Some(l) = queue.pop_front() {
            for &r in &adj[l] {
                match match_r[r] {
                    None => found_augmenting_layer = true,
                    Some(l2) => {
                        if dist[l2] == INF {
                            dist[l2] = dist[l] + 1;
                            queue.push_back(l2);
                        }
                    }
                }
            }
        }
        if !found_augmenting_layer {
            break;
        }
        // DFS phase: vertex-disjoint shortest augmenting paths.
        fn dfs(
            l: usize,
            adj: &[Vec<usize>],
            dist: &mut [u32],
            match_l: &mut [Option<usize>],
            match_r: &mut [Option<usize>],
        ) -> bool {
            for idx in 0..adj[l].len() {
                let r = adj[l][idx];
                let ok = match match_r[r] {
                    None => true,
                    Some(l2) => dist[l2] == dist[l] + 1 && dfs(l2, adj, dist, match_l, match_r),
                };
                if ok {
                    match_l[l] = Some(r);
                    match_r[r] = Some(l);
                    return true;
                }
            }
            dist[l] = u32::MAX;
            false
        }
        for l in 0..n_left {
            if match_l[l].is_none() && dist[l] == 0 {
                dfs(l, adj, &mut dist, &mut match_l, &mut match_r);
            }
        }
    }
    match_l
}

/// Size of a maximum matching, via [`hopcroft_karp`].
pub fn max_matching_size(adj: &[Vec<usize>], n_right: usize) -> usize {
    hopcroft_karp(adj, n_right).iter().flatten().count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matcher_from(edges: &[(u32, u32)]) -> ShardedMatcher<u32, u32> {
        let mut m = ShardedMatcher::new();
        for &(l, r) in edges {
            m.add_edge(l, r);
        }
        m
    }

    #[test]
    fn empty_matcher() {
        let m: ShardedMatcher<u32, u32> = ShardedMatcher::new();
        assert_eq!(m.matching_size(), 0);
        assert_eq!(m.planned_threads(), 1);
        assert!(m.check_consistency());
    }

    #[test]
    fn augmenting_path_reshuffles() {
        // l0-{r0,r1}, l1-{r0}: greedy could match l0-r0 and strand l1;
        // augmenting must find size 2.
        let mut m = matcher_from(&[(0, 0), (0, 1), (1, 0)]);
        assert_eq!(m.repair(), 2);
        assert!(m.check_consistency());
        assert!(!m.add_edge(0, 1), "duplicate edge");
    }

    #[test]
    fn insertion_order_decides_matched_edges() {
        // l0 lists r1 before r0, so its search takes r1 first.
        let mut m = matcher_from(&[(0, 1), (0, 0)]);
        m.repair();
        assert_eq!(m.matched_right(&0), Some(&1));
        // r1 leaves and comes back: its edge now sits behind r0's.
        assert_eq!(m.remove_right(&1), Some(0));
        m.add_edge(0, 1);
        m.repair();
        assert_eq!(m.matched_right(&0), Some(&0));
        assert!(m.check_consistency());
    }

    #[test]
    fn unmatchable_left_stays_free() {
        let mut m = matcher_from(&[(0, 0), (1, 0)]);
        assert_eq!(m.repair(), 1);
        assert_eq!(m.free_lefts(), vec![1]);
    }

    #[test]
    fn removals_widow_and_repair_recovers() {
        let mut m = matcher_from(&[(0, 0), (0, 1), (1, 0)]);
        m.repair();
        assert!(m.remove_right(&0).is_some());
        assert_eq!(m.repair(), 1); // only r1 remains, adjacent to l0 only
        assert_eq!(m.remove_left(&0), Some(1));
        assert_eq!(m.repair(), 0);
        assert!(m.check_consistency());
    }

    #[test]
    fn remove_matched_edge_unmatches() {
        let mut m = matcher_from(&[(0, 0)]);
        m.repair();
        assert!(m.remove_edge(&0, &0));
        assert_eq!(m.matching_size(), 0);
        assert!(!m.remove_edge(&0, &0)); // already gone
        assert!(m.check_consistency());
    }

    #[test]
    fn churn_compacts_and_keeps_the_matching() {
        // A fill-like cycle on a complete 8x9 graph: the matched right
        // leaves, a fresh one joins every left. Slots stay bounded.
        let mut m = ShardedMatcher::new();
        for l in 0..8u32 {
            for r in 0..9u32 {
                m.add_edge(l, r);
            }
        }
        m.repair();
        for fresh in 9..200u32 {
            let gone = *m.matched_right(&(fresh % 8)).unwrap();
            m.remove_right(&gone);
            for l in 0..8 {
                m.add_edge(l, fresh);
            }
            assert_eq!(m.repair(), 8);
            assert!(m.check_consistency());
            assert!(m.slot_count() <= 2 * (m.left_count() + m.right_count()) + COMPACT_SLACK);
        }
    }

    #[test]
    fn exchangeable_lefts_follow_alternating_paths() {
        // l0 matched r0; l1 matched r1; l2 free, adjacent to r0 only.
        let mut m = matcher_from(&[(0, 0), (1, 1)]);
        m.repair();
        m.add_edge(2, 0);
        // l0 can donate r0 to l2; l1 is unreachable (r1 is not adjacent
        // to l2 or l0).
        assert_eq!(m.exchangeable_lefts(&2), vec![0]);
        m.add_edge(0, 1);
        // Now l0 could take r1, freeing l1.
        assert_eq!(m.exchangeable_lefts(&2), vec![0, 1]);
        assert!(m.exchangeable_lefts(&0).is_empty(), "matched left");
    }

    #[test]
    fn exchange_shifts_matching() {
        let mut m = matcher_from(&[(0, 0), (0, 1), (1, 1)]);
        m.repair();
        assert_eq!(m.matching_size(), 2);
        m.add_edge(2, 0);
        assert_eq!(m.exchangeable_lefts(&2), vec![0, 1]);
        assert!(m.exchange(&2, &1));
        assert!(m.check_consistency());
        assert_eq!(m.matching_size(), 2);
        assert!(m.matched_right(&2).is_some());
        assert!(m.matched_right(&1).is_none()); // donor is now free
        assert!(m.matched_right(&0).is_some());
    }

    #[test]
    fn exchange_fails_when_unreachable() {
        let mut m = matcher_from(&[(0, 0), (1, 1)]);
        m.repair();
        m.add_edge(2, 0);
        // l1 is not on any alternating path from l2.
        assert!(!m.exchange(&2, &1));
        // Matching unchanged.
        assert_eq!(m.matching_size(), 2);
        assert!(m.check_consistency());
    }

    #[test]
    fn hopcroft_karp_small_cases() {
        assert_eq!(max_matching_size(&[], 0), 0);
        assert_eq!(max_matching_size(&[vec![0], vec![0]], 1), 1);
        assert_eq!(max_matching_size(&[vec![0, 1], vec![0]], 2), 2);
        let adj = vec![vec![0, 1], vec![0], vec![1, 2], vec![2]];
        assert_eq!(max_matching_size(&adj, 3), 3);
    }

    #[test]
    fn hopcroft_karp_returns_valid_matching() {
        let adj = vec![vec![0, 1, 2], vec![0], vec![0, 2], vec![1]];
        let m = hopcroft_karp(&adj, 3);
        let mut used = HashSet::new();
        for (l, r) in m.iter().enumerate() {
            if let Some(r) = r {
                assert!(adj[l].contains(r), "matched edge must exist");
                assert!(used.insert(*r), "right vertex used twice");
            }
        }
        assert_eq!(m.iter().flatten().count(), 3);
    }
}
