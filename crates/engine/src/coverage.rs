//! Symbolic data tracking for collective verification.
//!
//! Every buffer in the simulator carries a [`CoverageMap`]: for each byte
//! range of the logical reduction vector, *which ranks' contributions* the
//! buffer currently holds. A correct allreduce must end with every rank
//! holding the full set `{0..p}` over the whole vector `[0, n)`.
//!
//! Tracking is exact (byte-range granularity, bitset rank sets), so schedule
//! bugs — a missing wait, a partition copied to the wrong leader, a
//! double-reduced segment — surface as verification failures rather than
//! silently producing plausible timings.

use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// A set of ranks, as a bitset.
///
/// The words are shared: cloning a set — which every coverage-map
/// snapshot, copy and coalesce does per segment — bumps a reference count
/// instead of copying the bitset. Sets are immutable once shared; `insert`
/// and `union_with` build a fresh word array only when the result differs
/// from both inputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RankSet {
    words: Arc<[u64]>,
}

/// The serialized form, `{"words":[…]}`: named like the public type so
/// deserialization errors read the same.
mod wire {
    #[derive(serde::Serialize, serde::Deserialize)]
    pub struct RankSet {
        pub words: Vec<u64>,
    }
}

impl Serialize for RankSet {
    fn to_value(&self) -> Value {
        wire::RankSet {
            words: self.words.to_vec(),
        }
        .to_value()
    }
}

impl Deserialize for RankSet {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let w = wire::RankSet::from_value(v)?;
        Ok(RankSet {
            words: w.words.into(),
        })
    }
}

impl RankSet {
    /// The empty set.
    pub fn empty() -> Self {
        RankSet {
            words: Arc::new([]),
        }
    }

    /// A singleton set.
    pub fn singleton(rank: u32) -> Self {
        let mut s = RankSet::empty();
        s.insert(rank);
        s
    }

    /// The full set `{0, ..., p-1}`.
    pub fn full(p: u32) -> Self {
        let words = (0..p.div_ceil(64)).map(|w| {
            let bits = (p - 64 * w).min(64);
            u64::MAX >> (64 - bits)
        });
        RankSet {
            words: words.collect(),
        }
    }

    /// Insert a rank.
    pub fn insert(&mut self, rank: u32) {
        let w = (rank / 64) as usize;
        let bit = 1u64 << (rank % 64);
        if let Some(words) = Arc::get_mut(&mut self.words).filter(|ws| w < ws.len()) {
            words[w] |= bit;
            return;
        }
        // Collecting from an exact-length iterator builds the shared
        // array in one allocation.
        let old = &self.words;
        let words = (0..old.len().max(w + 1))
            .map(|i| old.get(i).copied().unwrap_or(0) | if i == w { bit } else { 0 });
        self.words = words.collect();
    }

    /// Membership test.
    pub fn contains(&self, rank: u32) -> bool {
        let w = (rank / 64) as usize;
        self.words
            .get(w)
            .is_some_and(|&word| word & (1u64 << (rank % 64)) != 0)
    }

    /// True when every member of `self` is in `other` and `self` is no
    /// wider — so `other`'s words are exactly `self ∪ other`.
    fn within(&self, other: &RankSet) -> bool {
        self.words.len() <= other.words.len()
            && self
                .words
                .iter()
                .zip(other.words.iter())
                .all(|(a, b)| a & !b == 0)
    }

    /// In-place union. The result's words are `max(len)` wide, as if
    /// or-ed word by word; when one operand already is that result (the
    /// same shared words, or a superset at least as wide) no new array is
    /// built.
    pub fn union_with(&mut self, other: &RankSet) {
        if Arc::ptr_eq(&self.words, &other.words) || other.within(self) {
            return;
        }
        if self.within(other) {
            self.words = other.words.clone();
            return;
        }
        let (long, short) = if self.words.len() >= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        let words = long
            .iter()
            .enumerate()
            .map(|(i, &w)| w | short.get(i).copied().unwrap_or(0));
        self.words = words.collect();
    }

    /// Set cardinality.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// True if this set intersects `other`.
    pub fn intersects(&self, other: &RankSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Semantic equality (ignores trailing zero words). Allocation-free,
    /// and O(1) for sets sharing their words — this sits inside every
    /// coalesce step on the simulator's delivery hot path, where equal
    /// neighbors are usually clones of one set.
    pub fn set_eq(&self, other: &RankSet) -> bool {
        if Arc::ptr_eq(&self.words, &other.words) {
            return true;
        }
        let n = self.words.len().min(other.words.len());
        self.words[..n] == other.words[..n]
            && self.words[n..].iter().all(|&w| w == 0)
            && other.words[n..].iter().all(|&w| w == 0)
    }

    /// Iterate over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w & (1u64 << b) != 0)
                .map(move |b| (wi as u32) * 64 + b)
        })
    }
}

/// A half-open byte range `[start, end)` of the logical vector.
pub type Seg = (u64, u64);

/// Maps disjoint byte ranges of the logical vector to the rank sets whose
/// contributions they hold.
///
/// Invariants: segments are sorted, non-empty, pairwise disjoint, and
/// adjacent segments with equal rank sets are coalesced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CoverageMap {
    segs: Vec<(u64, u64, RankSet)>,
}

impl CoverageMap {
    /// An empty buffer: holds nothing.
    pub fn empty() -> Self {
        CoverageMap { segs: Vec::new() }
    }

    /// A buffer holding a single rank's contribution over `[start, end)`.
    pub fn singleton(rank: u32, start: u64, end: u64) -> Self {
        if start >= end {
            return CoverageMap::empty();
        }
        CoverageMap {
            segs: vec![(start, end, RankSet::singleton(rank))],
        }
    }

    /// Number of internal segments (for tests / diagnostics).
    pub fn num_segments(&self) -> usize {
        self.segs.len()
    }

    /// True if nothing is held.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Total bytes covered (by at least one contribution).
    pub fn covered_bytes(&self) -> u64 {
        self.segs.iter().map(|(s, e, _)| e - s).sum()
    }

    /// Index of the first segment whose end is past `at` (candidate
    /// overlap start — segments are sorted and disjoint).
    #[inline]
    fn lower(&self, at: u64) -> usize {
        self.segs.partition_point(|seg| seg.1 <= at)
    }

    /// Index of the first segment starting at or past `end` (one past the
    /// overlap window for a range ending at `end`).
    #[inline]
    fn upper(&self, end: u64) -> usize {
        self.segs.partition_point(|seg| seg.0 < end)
    }

    /// The segments overlapping `[start, end)`, unclipped.
    fn overlapping(&self, start: u64, end: u64) -> &[(u64, u64, RankSet)] {
        if start >= end {
            return &[];
        }
        &self.segs[self.lower(start)..self.upper(end)]
    }

    /// The segments overlapping `[start, end)`, clipped to it — a view of
    /// the window, read in place.
    fn window(
        &self,
        start: u64,
        end: u64,
    ) -> impl ExactSizeIterator<Item = (u64, u64, &RankSet)> + '_ {
        self.overlapping(start, end)
            .iter()
            .map(move |(s, e, set)| ((*s).max(start), (*e).min(end), set))
    }

    /// The rank set held at byte offset `at`, if any.
    pub fn at(&self, at: u64) -> Option<&RankSet> {
        let i = self.lower(at);
        match self.segs.get(i) {
            Some((s, _, set)) if *s <= at => Some(set),
            _ => None,
        }
    }

    /// Extract the sub-map covering `[start, end)`.
    pub fn restrict(&self, start: u64, end: u64) -> CoverageMap {
        CoverageMap {
            segs: self
                .window(start, end)
                .map(|(s, e, set)| (s, e, set.clone()))
                .collect(),
        }
    }

    /// Replace all coverage in `[start, end)` with `mid` — segments that
    /// must already lie within `[start, end)`, sorted, disjoint, and
    /// internally coalesced. Splices only the overlap window in place;
    /// boundary segments are split and the (at most four) joints the
    /// splice creates re-coalesced, so cost is O(window + log n) with no
    /// intermediate buffer.
    fn splice_window<I>(&mut self, start: u64, end: u64, mid: I)
    where
        I: ExactSizeIterator<Item = (u64, u64, RankSet)>,
    {
        let (i, j) = (self.lower(start), self.upper(end));
        let left = (i < j && self.segs[i].0 < start)
            .then(|| (self.segs[i].0, start, self.segs[i].2.clone()));
        let right = (i < j && self.segs[j - 1].1 > end)
            .then(|| (end, self.segs[j - 1].1, self.segs[j - 1].2.clone()));
        let len = left.is_some() as usize + mid.len() + right.is_some() as usize;
        let has_left = left.is_some();
        self.segs
            .splice(i..j, left.into_iter().chain(mid).chain(right));
        // Re-coalesce from the highest joint down, so a merge never
        // shifts a joint still to be checked: the right neighbor, then
        // inside the splice (its two ends), then the left neighbor.
        if len > 0 {
            self.merge_joint(i + len - 1);
            if len > 1 {
                self.merge_joint(i + len - 2);
            }
            if has_left {
                self.merge_joint(i);
            }
        }
        if i > 0 {
            self.merge_joint(i - 1);
        }
        self.assert_invariants();
    }

    /// Merge `segs[idx + 1]` into `segs[idx]` when they are adjacent and
    /// hold the same set.
    fn merge_joint(&mut self, idx: usize) {
        if idx + 1 < self.segs.len()
            && self.segs[idx].1 == self.segs[idx + 1].0
            && self.segs[idx].2.set_eq(&self.segs[idx + 1].2)
        {
            self.segs[idx].1 = self.segs[idx + 1].1;
            self.segs.remove(idx + 1);
        }
    }

    /// Remove all coverage within `[start, end)`.
    pub fn clear_range(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        self.splice_window(start, end, std::iter::empty());
    }

    /// Overwrite `[start, end)` with `src`'s contents over the same range
    /// (bytes `src` does not cover become uncovered). This is the semantics
    /// of a plain copy or a received message: payload *replaces* buffer
    /// content. `src`'s window is read in place.
    pub fn overwrite(&mut self, src: &CoverageMap, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let add = src
            .window(start, end)
            .map(|(s, e, set)| (s, e, set.clone()));
        self.splice_window(start, end, add);
    }

    /// Pointwise-union `src`'s contents over `[start, end)` into this map —
    /// the semantics of a reduction: contributions combine. `src`'s window
    /// is read in place.
    pub fn union_merge(&mut self, src: &CoverageMap, start: u64, end: u64) {
        let add = src.overlapping(start, end);
        let (Some(first), Some(last)) = (add.first(), add.last()) else {
            return;
        };
        // Sweep both maps across the window `add` spans (outside it the
        // union changes nothing), advancing a cursor into each segment
        // list and cutting at the next boundary of either — O(window).
        let lo = first.0.max(start);
        let hi = last.1.min(end);
        let mine = self.overlapping(lo, hi);
        let mut rebuilt: Vec<(u64, u64, RankSet)> = Vec::with_capacity(mine.len() + add.len() + 1);
        let (mut ai, mut bi) = (0usize, 0usize);
        let mut pos = lo;
        while pos < hi {
            while ai < mine.len() && mine[ai].1 <= pos {
                ai += 1;
            }
            while bi < add.len() && add[bi].1.min(hi) <= pos {
                bi += 1;
            }
            let (a, a_next) = piece_at(mine.get(ai), pos, hi);
            let (b, b_next) = piece_at(add.get(bi), pos, hi);
            let next = a_next.min(b_next).min(hi);
            let set = match (a, b) {
                (None, None) => None,
                (Some(x), None) => Some(x.clone()),
                (None, Some(y)) => Some(y.clone()),
                (Some(x), Some(y)) => {
                    let mut u = x.clone();
                    u.union_with(y);
                    Some(u)
                }
            };
            if let Some(set) = set {
                push_coalesced(&mut rebuilt, (pos, next, set));
            }
            pos = next;
        }
        self.splice_window(lo, hi, rebuilt.into_iter());
    }

    /// True when `[start, end)` is fully covered and every byte holds
    /// exactly `expected`.
    pub fn covers_exactly(&self, start: u64, end: u64, expected: &RankSet) -> bool {
        if start >= end {
            return true;
        }
        let mut cursor = start;
        for (s, e, set) in &self.segs[self.lower(start)..] {
            if *e <= cursor {
                continue;
            }
            if *s > cursor {
                return false; // gap
            }
            if !set.set_eq(expected) {
                return false;
            }
            cursor = *e;
            if cursor >= end {
                return true;
            }
        }
        cursor >= end
    }

    #[inline]
    fn assert_invariants(&self) {
        debug_assert!(
            self.segs.windows(2).all(|w| w[0].1 <= w[1].0),
            "coverage segments overlap or unsorted"
        );
        debug_assert!(self.segs.iter().all(|(s, e, _)| s < e), "empty segment");
    }

    /// Iterate over `(start, end, set)` segments.
    pub fn segments(&self) -> impl Iterator<Item = (u64, u64, &RankSet)> {
        self.segs.iter().map(|(s, e, set)| (*s, *e, set))
    }
}

/// A sweep cursor's view of `seg` at `pos`: the set it holds there (if
/// it covers `pos`) and the offset where that view next changes.
#[inline]
fn piece_at(seg: Option<&(u64, u64, RankSet)>, pos: u64, hi: u64) -> (Option<&RankSet>, u64) {
    match seg {
        Some((s, e, set)) if *s <= pos => (Some(set), *e),
        Some((s, _, _)) => (None, *s),
        None => (None, hi),
    }
}

/// Append `seg` to `out`, extending the last segment instead when the two
/// are adjacent with equal sets (the canonical-form invariant).
#[inline]
fn push_coalesced(out: &mut Vec<(u64, u64, RankSet)>, seg: (u64, u64, RankSet)) {
    if seg.0 >= seg.1 {
        return;
    }
    if let Some(last) = out.last_mut() {
        if last.1 == seg.0 && last.2.set_eq(&seg.2) {
            last.1 = seg.1;
            return;
        }
    }
    out.push(seg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rankset_basics() {
        let mut s = RankSet::singleton(3);
        assert!(s.contains(3));
        assert!(!s.contains(4));
        s.insert(100);
        assert!(s.contains(100));
        assert_eq!(s.count(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 100]);
    }

    #[test]
    fn rankset_union_and_eq() {
        let mut a = RankSet::singleton(1);
        let b = RankSet::singleton(200);
        a.union_with(&b);
        assert_eq!(a.count(), 2);
        // Semantic equality ignores width.
        let mut wide = RankSet::singleton(1);
        wide.insert(200);
        assert!(a.set_eq(&wide));
        let narrow = RankSet::singleton(1);
        assert!(!a.set_eq(&narrow));
    }

    #[test]
    fn rankset_full() {
        let f = RankSet::full(130);
        assert_eq!(f.count(), 130);
        assert!(f.contains(0));
        assert!(f.contains(129));
        assert!(!f.contains(130));
    }

    #[test]
    fn singleton_map_and_restrict() {
        let m = CoverageMap::singleton(2, 0, 100);
        let r = m.restrict(25, 75);
        assert_eq!(r.covered_bytes(), 50);
        assert!(r.covers_exactly(25, 75, &RankSet::singleton(2)));
        assert!(!r.covers_exactly(0, 75, &RankSet::singleton(2)));
    }

    #[test]
    fn empty_range_singleton_is_empty() {
        assert!(CoverageMap::singleton(0, 5, 5).is_empty());
        assert!(CoverageMap::singleton(0, 7, 5).is_empty());
    }

    #[test]
    fn overwrite_replaces_content() {
        let mut m = CoverageMap::singleton(0, 0, 100);
        let src = CoverageMap::singleton(1, 40, 60);
        m.overwrite(&src, 40, 60);
        assert!(m.covers_exactly(0, 40, &RankSet::singleton(0)));
        assert!(m.covers_exactly(40, 60, &RankSet::singleton(1)));
        assert!(m.covers_exactly(60, 100, &RankSet::singleton(0)));
        assert_eq!(m.covered_bytes(), 100);
    }

    #[test]
    fn overwrite_with_uncovered_src_clears() {
        let mut m = CoverageMap::singleton(0, 0, 100);
        m.overwrite(&CoverageMap::empty(), 10, 20);
        assert_eq!(m.covered_bytes(), 90);
        assert!(m.at(15).is_none());
    }

    #[test]
    fn union_merge_combines_contributions() {
        let mut m = CoverageMap::singleton(0, 0, 100);
        let src = CoverageMap::singleton(1, 0, 100);
        m.union_merge(&src, 0, 100);
        let mut both = RankSet::singleton(0);
        both.insert(1);
        assert!(m.covers_exactly(0, 100, &both));
        assert_eq!(m.num_segments(), 1, "coalescing failed");
    }

    #[test]
    fn union_merge_partial_overlap() {
        let mut m = CoverageMap::singleton(0, 0, 50);
        let src = CoverageMap::singleton(1, 25, 75);
        m.union_merge(&src, 0, 100);
        assert!(m.covers_exactly(0, 25, &RankSet::singleton(0)));
        let mut both = RankSet::singleton(0);
        both.insert(1);
        assert!(m.covers_exactly(25, 50, &both));
        assert!(m.covers_exactly(50, 75, &RankSet::singleton(1)));
        assert!(m.at(80).is_none());
    }

    #[test]
    fn union_merge_respects_range_restriction() {
        let mut m = CoverageMap::empty();
        let src = CoverageMap::singleton(1, 0, 100);
        m.union_merge(&src, 30, 40);
        assert_eq!(m.covered_bytes(), 10);
        assert!(m.covers_exactly(30, 40, &RankSet::singleton(1)));
    }

    #[test]
    fn clear_range_splits_segments() {
        let mut m = CoverageMap::singleton(0, 0, 100);
        m.clear_range(30, 40);
        assert_eq!(m.covered_bytes(), 90);
        assert_eq!(m.num_segments(), 2);
    }

    #[test]
    fn covers_exactly_detects_gap_and_wrong_set() {
        let mut m = CoverageMap::singleton(0, 0, 40);
        m.union_merge(&CoverageMap::singleton(0, 60, 100), 0, 100);
        let s0 = RankSet::singleton(0);
        assert!(!m.covers_exactly(0, 100, &s0)); // gap 40..60
        assert!(m.covers_exactly(0, 40, &s0));
        assert!(!m.covers_exactly(0, 40, &RankSet::singleton(1)));
    }

    #[test]
    fn allreduce_style_accumulation() {
        // Simulate: 4 ranks' contributions merged pairwise, then checked.
        let p = 4;
        let n = 64;
        let mut acc = CoverageMap::singleton(0, 0, n);
        for r in 1..p {
            acc.union_merge(&CoverageMap::singleton(r, 0, n), 0, n);
        }
        assert!(acc.covers_exactly(0, n, &RankSet::full(p)));
    }

    /// Reports, checkpoints and healing continuations persist coverage
    /// as JSON; the shared-word representation must not change it.
    #[test]
    fn json_form_is_pinned() {
        let mut wide = RankSet::singleton(0);
        wide.insert(64);
        let cases = [
            (RankSet::empty(), r#"{"words":[]}"#),
            (RankSet::singleton(3), r#"{"words":[8]}"#),
            (wide, r#"{"words":[1,1]}"#),
        ];
        for (set, json) in cases {
            assert_eq!(serde_json::to_string(&set).unwrap(), json);
            assert_eq!(serde_json::from_str::<RankSet>(json).unwrap(), set);
        }
        let mut m = CoverageMap::singleton(0, 0, 100);
        m.union_merge(&CoverageMap::singleton(1, 50, 150), 0, 150);
        let json =
            r#"{"segs":[[0,50,{"words":[1]}],[50,100,{"words":[3]}],[100,150,{"words":[2]}]]}"#;
        assert_eq!(serde_json::to_string(&m).unwrap(), json);
        assert_eq!(serde_json::from_str::<CoverageMap>(json).unwrap(), m);
        assert!(serde_json::from_str::<RankSet>(r#"{"bits":[1]}"#)
            .unwrap_err()
            .to_string()
            .contains("RankSet"));
    }

    /// Naive per-byte reference model for property tests.
    #[derive(Clone, PartialEq, Debug)]
    struct NaiveMap {
        bytes: Vec<Option<RankSet>>,
    }

    impl NaiveMap {
        fn new(n: u64) -> Self {
            NaiveMap {
                bytes: vec![None; n as usize],
            }
        }
        fn from_cov(m: &CoverageMap, n: u64) -> Self {
            let mut out = NaiveMap::new(n);
            for (s, e, set) in m.segments() {
                for b in s..e.min(n) {
                    out.bytes[b as usize] = Some(set.clone());
                }
            }
            out
        }
        fn overwrite(&mut self, src: &NaiveMap, start: u64, end: u64) {
            for b in start..end.min(self.bytes.len() as u64) {
                self.bytes[b as usize] = src.bytes[b as usize].clone();
            }
        }
        fn union_merge(&mut self, src: &NaiveMap, start: u64, end: u64) {
            for b in start..end.min(self.bytes.len() as u64) {
                match (&mut self.bytes[b as usize], &src.bytes[b as usize]) {
                    (Some(a), Some(x)) => a.union_with(x),
                    (slot @ None, Some(x)) => *slot = Some(x.clone()),
                    _ => {}
                }
            }
        }
        fn semantically_eq(&self, other: &NaiveMap) -> bool {
            self.bytes
                .iter()
                .zip(other.bytes.iter())
                .all(|(a, b)| match (a, b) {
                    (None, None) => true,
                    (Some(x), Some(y)) => x.set_eq(y),
                    _ => false,
                })
        }
    }

    /// The canonical-form invariant: sorted, non-empty, disjoint, and no
    /// two adjacent segments holding equal sets.
    fn is_canonical(m: &CoverageMap) -> bool {
        m.segs.iter().all(|(s, e, _)| s < e)
            && m.segs
                .windows(2)
                .all(|w| w[0].1 < w[1].0 || (w[0].1 == w[1].0 && !w[0].2.set_eq(&w[1].2)))
    }

    use proptest::prelude::*;

    const N: u64 = 48;

    fn arb_map() -> impl Strategy<Value = CoverageMap> {
        proptest::collection::vec((0u32..6, 0u64..N, 0u64..N), 0..6).prop_map(|ops| {
            let mut m = CoverageMap::empty();
            for (r, a, b) in ops {
                let (s, e) = if a <= b { (a, b) } else { (b, a) };
                m.union_merge(&CoverageMap::singleton(r, s, e), s, e);
            }
            m
        })
    }

    proptest! {
        #[test]
        fn prop_overwrite_matches_naive(a in arb_map(), b in arb_map(), x in 0u64..N, y in 0u64..N) {
            let (s, e) = if x <= y { (x, y) } else { (y, x) };
            let mut fast = a.clone();
            fast.overwrite(&b, s, e);
            let mut slow = NaiveMap::from_cov(&a, N);
            slow.overwrite(&NaiveMap::from_cov(&b, N), s, e);
            prop_assert!(NaiveMap::from_cov(&fast, N).semantically_eq(&slow));
        }

        #[test]
        fn prop_union_matches_naive(a in arb_map(), b in arb_map(), x in 0u64..N, y in 0u64..N) {
            let (s, e) = if x <= y { (x, y) } else { (y, x) };
            let mut fast = a.clone();
            fast.union_merge(&b, s, e);
            let mut slow = NaiveMap::from_cov(&a, N);
            slow.union_merge(&NaiveMap::from_cov(&b, N), s, e);
            prop_assert!(NaiveMap::from_cov(&fast, N).semantically_eq(&slow));
        }

        #[test]
        fn prop_segments_stay_canonical(a in arb_map(), b in arb_map(), x in 0u64..N, y in 0u64..N) {
            let (s, e) = if x <= y { (x, y) } else { (y, x) };
            let mut m = a.clone();
            m.union_merge(&b, 0, N);
            prop_assert!(is_canonical(&m), "{m:?}");
            m.overwrite(&a, s, e);
            prop_assert!(is_canonical(&m), "{m:?}");
            m.clear_range(e, N);
            prop_assert!(is_canonical(&m), "{m:?}");
        }

        /// The engine's `Reduce` folds every source straight out of its
        /// buffer into one accumulator, then unions that into the
        /// destination — it must agree with the per-byte model.
        #[test]
        fn prop_nary_reduce_from_references_matches_naive(
            dst in arb_map(),
            srcs in proptest::collection::vec(arb_map(), 1..5),
            x in 0u64..N,
            y in 0u64..N,
        ) {
            let (s, e) = if x <= y { (x, y) } else { (y, x) };
            let mut acc = CoverageMap::empty();
            for src in &srcs {
                acc.union_merge(src, s, e);
            }
            let mut out = dst.clone();
            out.union_merge(&acc, s, e);
            let mut slow_acc = NaiveMap::new(N);
            for src in &srcs {
                slow_acc.union_merge(&NaiveMap::from_cov(src, N), s, e);
            }
            let mut slow_out = NaiveMap::from_cov(&dst, N);
            slow_out.union_merge(&slow_acc, s, e);
            prop_assert!(NaiveMap::from_cov(&acc, N).semantically_eq(&slow_acc));
            prop_assert!(NaiveMap::from_cov(&out, N).semantically_eq(&slow_out));
            prop_assert!(is_canonical(&acc) && is_canonical(&out));
        }

        /// `union_with` and `set_eq` against a word-by-word model, over
        /// sets of random width (trailing zero words included) and the
        /// sharing cases the fast paths take: aliased words, a subset, a
        /// superset.
        #[test]
        fn prop_rankset_union_and_eq_match_words(
            a in proptest::collection::vec(0u64..8, 0..4),
            b in proptest::collection::vec(0u64..8, 0..4),
            drop in 0u64..8,
        ) {
            let set = |w: &[u64]| RankSet { words: w.into() };
            let or = |x: &[u64], y: &[u64]| -> Vec<u64> {
                (0..x.len().max(y.len()))
                    .map(|i| x.get(i).unwrap_or(&0) | y.get(i).unwrap_or(&0))
                    .collect()
            };
            let members = |w: &[u64]| set(w).iter().collect::<Vec<u32>>();
            // Arbitrary pair.
            let mut u = set(&a);
            u.union_with(&set(&b));
            prop_assert_eq!(&u.words[..], &or(&a, &b)[..]);
            prop_assert_eq!(set(&a).set_eq(&set(&b)), members(&a) == members(&b));
            prop_assert_eq!(set(&b).set_eq(&set(&a)), members(&a) == members(&b));
            // Aliased: the union is the set itself, sharing its words.
            let base = set(&a);
            let mut alias = base.clone();
            alias.union_with(&base);
            prop_assert!(Arc::ptr_eq(&alias.words, &base.words));
            prop_assert!(alias.set_eq(&base));
            // Subset, no wider: nothing is rebuilt.
            let sub: Vec<u64> = a.iter().map(|w| w & !drop).collect();
            let mut with_sub = base.clone();
            with_sub.union_with(&set(&sub));
            prop_assert!(Arc::ptr_eq(&with_sub.words, &base.words));
            // Superset: the union takes the superset's words (or keeps
            // its own when the two are the same words).
            let sup = set(&or(&a, &b));
            let mut into_sup = base.clone();
            into_sup.union_with(&sup);
            let shared = if sup.words == base.words { &base.words } else { &sup.words };
            prop_assert!(Arc::ptr_eq(&into_sup.words, shared));
            prop_assert_eq!(&into_sup.words[..], &or(&a, &b)[..]);
        }

        #[test]
        fn prop_union_is_commutative(a in arb_map(), b in arb_map()) {
            let mut ab = a.clone();
            ab.union_merge(&b, 0, N);
            let mut ba = b.clone();
            ba.union_merge(&a, 0, N);
            prop_assert!(NaiveMap::from_cov(&ab, N).semantically_eq(&NaiveMap::from_cov(&ba, N)));
        }
    }
}
