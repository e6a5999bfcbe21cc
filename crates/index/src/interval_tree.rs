//! A static centered interval tree over half-open intervals.
//!
//! Supports the two probe shapes the engine needs:
//!
//! * **stabbing** — all intervals containing a time point `t`
//!   (`O(log n + k)`), the workhorse of indexed timeslice evaluation, and
//! * **overlap** — all intervals overlapping a query interval `[b, e)`
//!   (`O(log n + k)` for balanced inputs), used for selective index
//!   nested-loop probes.
//!
//! The tree is built once over the intervals of a stored table (ids are row
//! positions) and is immutable afterwards: a [`crate::TableIndex`] keeps it
//! as the *base* of later versions, answering for the rows edited since
//! from a linearly stabbed tail, and rebuilds it once that tail grows past
//! an eighth of the base.

/// A static interval tree. Ids are the positions the intervals were built
/// from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalTree {
    nodes: Vec<Node>,
    root: Option<u32>,
    len: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    center: i64,
    left: Option<u32>,
    right: Option<u32>,
    /// Intervals containing `center`, sorted ascending by begin.
    by_begin: Vec<(i64, u32)>,
    /// The same intervals, sorted ascending by end.
    by_end: Vec<(i64, u32)>,
}

impl IntervalTree {
    /// Builds the tree from half-open `(begin, end)` intervals; the id of an
    /// interval is its position in the slice.
    ///
    /// # Panics
    /// Panics when an interval is empty (`begin >= end`) or there are more
    /// than `u32::MAX` intervals.
    pub fn build(intervals: &[(i64, i64)]) -> IntervalTree {
        assert!(
            u32::try_from(intervals.len()).is_ok(),
            "IntervalTree supports at most u32::MAX intervals"
        );
        let mut by_begin: Vec<(i64, u32)> = (0..intervals.len() as u32)
            .map(|id| (intervals[id as usize].0, id))
            .collect();
        by_begin.sort_unstable();
        IntervalTree::from_begin_order(&by_begin, |id| intervals[id].1)
    }

    /// Builds the tree from `(begin, id)` pairs already in ascending order —
    /// an [`crate::EventList::by_begin`] — reading each id's end through
    /// `end_of`. Partitioning keeps that order, so no node re-sorts its
    /// begins: the one sort is the caller's.
    ///
    /// # Panics
    /// Panics when an interval is empty (`begin >= end`).
    pub(crate) fn from_begin_order(
        by_begin: &[(i64, u32)],
        end_of: impl Fn(usize) -> i64,
    ) -> IntervalTree {
        debug_assert!(by_begin.is_sorted(), "begin order must ascend");
        let items: Vec<(i64, i64, u32)> = by_begin
            .iter()
            .map(|&(b, id)| {
                let e = end_of(id as usize);
                assert!(b < e, "empty interval [{b}, {e}) at position {id}");
                (b, e, id)
            })
            .collect();
        let mut tree = IntervalTree {
            nodes: Vec::new(),
            root: None,
            len: by_begin.len(),
        };
        tree.root = tree.build_node(items);
        tree
    }

    /// `items` ascend by `(begin, id)`, and so does every partition of them.
    fn build_node(&mut self, items: Vec<(i64, i64, u32)>) -> Option<u32> {
        if items.is_empty() {
            return None;
        }
        // Center on the median begin: any interval whose begin equals the
        // center contains it (begin <= center < end holds because
        // end > begin), so the node set is never empty and recursion always
        // shrinks.
        let center = items[items.len() / 2].0;

        let mut here: Vec<(i64, i64, u32)> = Vec::new();
        let mut left_items: Vec<(i64, i64, u32)> = Vec::new();
        let mut right_items: Vec<(i64, i64, u32)> = Vec::new();
        for it in items {
            let (b, e, _) = it;
            if e <= center {
                left_items.push(it);
            } else if b > center {
                right_items.push(it);
            } else {
                // b <= center < e: the interval contains the center point.
                here.push(it);
            }
        }
        debug_assert!(!here.is_empty(), "median-begin interval must stay here");

        let by_begin: Vec<(i64, u32)> = here.iter().map(|&(b, _, id)| (b, id)).collect();
        let mut by_end: Vec<(i64, u32)> = here.iter().map(|&(_, e, id)| (e, id)).collect();
        by_end.sort_unstable();

        let left = self.build_node(left_items);
        let right = self.build_node(right_items);
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            center,
            left,
            right,
            by_begin,
            by_end,
        });
        Some(idx)
    }

    /// Number of indexed intervals.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ids of all intervals containing time point `t`, ascending.
    pub fn stab(&self, t: i64) -> Vec<usize> {
        self.stab_where(t, |_| true)
    }

    /// [`IntervalTree::stab`] keeping only the ids `keep` accepts: the
    /// others are dropped during the walk, before the sort.
    pub(crate) fn stab_where(&self, t: i64, keep: impl Fn(u32) -> bool) -> Vec<usize> {
        let mut out = Vec::new();
        self.stab_into(self.root, t, &keep, &mut out);
        out.sort_unstable();
        out
    }

    fn stab_into(
        &self,
        node: Option<u32>,
        t: i64,
        keep: &impl Fn(u32) -> bool,
        out: &mut Vec<usize>,
    ) {
        let Some(idx) = node else { return };
        let n = &self.nodes[idx as usize];
        if t < n.center {
            // Stored intervals have end > center > t; match iff begin <= t.
            for &(b, id) in &n.by_begin {
                if b > t {
                    break;
                }
                if keep(id) {
                    out.push(id as usize);
                }
            }
            self.stab_into(n.left, t, keep, out);
        } else if t > n.center {
            // Stored intervals have begin <= center < t; match iff end > t.
            for &(e, id) in n.by_end.iter().rev() {
                if e <= t {
                    break;
                }
                if keep(id) {
                    out.push(id as usize);
                }
            }
            self.stab_into(n.right, t, keep, out);
        } else {
            // t == center: every stored interval contains it.
            out.extend(
                n.by_begin
                    .iter()
                    .filter_map(|&(_, id)| keep(id).then_some(id as usize)),
            );
            // Left descendants end at or before center (no match); right
            // descendants begin after center (no match).
        }
    }

    /// Ids of all intervals overlapping the half-open query `[b, e)`,
    /// ascending.
    ///
    /// # Panics
    /// Panics when the query interval is empty.
    pub fn overlapping(&self, b: i64, e: i64) -> Vec<usize> {
        self.overlapping_where(b, e, |_| true)
    }

    /// [`IntervalTree::overlapping`] keeping only the ids `keep` accepts:
    /// the others are dropped during the walk, before the sort.
    ///
    /// # Panics
    /// Panics when the query interval is empty.
    pub(crate) fn overlapping_where(
        &self,
        b: i64,
        e: i64,
        keep: impl Fn(u32) -> bool,
    ) -> Vec<usize> {
        assert!(b < e, "empty query interval [{b}, {e})");
        let mut out = Vec::new();
        self.overlap_into(self.root, b, e, &keep, &mut out);
        out.sort_unstable();
        out
    }

    fn overlap_into(
        &self,
        node: Option<u32>,
        qb: i64,
        qe: i64,
        keep: &impl Fn(u32) -> bool,
        out: &mut Vec<usize>,
    ) {
        let Some(idx) = node else { return };
        let n = &self.nodes[idx as usize];
        if qe <= n.center {
            // Stored have end > center >= qe > their begin check: match iff
            // begin < qe.
            for &(b, id) in &n.by_begin {
                if b >= qe {
                    break;
                }
                if keep(id) {
                    out.push(id as usize);
                }
            }
            self.overlap_into(n.left, qb, qe, keep, out);
        } else if qb > n.center {
            // Stored have begin <= center < qb; match iff end > qb.
            for &(e, id) in n.by_end.iter().rev() {
                if e <= qb {
                    break;
                }
                if keep(id) {
                    out.push(id as usize);
                }
            }
            self.overlap_into(n.right, qb, qe, keep, out);
        } else {
            // qb <= center < qe: every stored interval overlaps the query.
            out.extend(
                n.by_begin
                    .iter()
                    .filter_map(|&(_, id)| keep(id).then_some(id as usize)),
            );
            self.overlap_into(n.left, qb, qe, keep, out);
            self.overlap_into(n.right, qb, qe, keep, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_stab(intervals: &[(i64, i64)], t: i64) -> Vec<usize> {
        intervals
            .iter()
            .enumerate()
            .filter(|(_, &(b, e))| b <= t && t < e)
            .map(|(i, _)| i)
            .collect()
    }

    fn naive_overlap(intervals: &[(i64, i64)], qb: i64, qe: i64) -> Vec<usize> {
        intervals
            .iter()
            .enumerate()
            .filter(|(_, &(b, e))| b < qe && qb < e)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn stab_small_example() {
        let iv = vec![(3, 10), (8, 16), (18, 20), (0, 4)];
        let tree = IntervalTree::build(&iv);
        assert_eq!(tree.len(), 4);
        assert_eq!(tree.stab(3), vec![0, 3]);
        assert_eq!(tree.stab(9), vec![0, 1]);
        assert_eq!(tree.stab(17), Vec::<usize>::new());
        assert_eq!(tree.stab(19), vec![2]);
        // Half-open: the end point is excluded, the begin point included.
        assert_eq!(tree.stab(10), vec![1]);
        assert_eq!(tree.stab(18), vec![2]);
    }

    #[test]
    fn overlap_small_example() {
        let iv = vec![(3, 10), (8, 16), (18, 20), (0, 4)];
        let tree = IntervalTree::build(&iv);
        assert_eq!(tree.overlapping(0, 24), vec![0, 1, 2, 3]);
        assert_eq!(tree.overlapping(10, 18), vec![1]);
        assert_eq!(tree.overlapping(16, 18), Vec::<usize>::new());
        assert_eq!(tree.overlapping(4, 8), vec![0]);
    }

    #[test]
    fn agrees_with_naive_on_pseudorandom_input() {
        // Deterministic xorshift so the test needs no rand dependency.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545F4914F6CDD1D)
        };
        let intervals: Vec<(i64, i64)> = (0..500)
            .map(|_| {
                let b = (next() % 200) as i64;
                let len = 1 + (next() % 40) as i64;
                (b, b + len)
            })
            .collect();
        let tree = IntervalTree::build(&intervals);
        for t in -2..245 {
            assert_eq!(tree.stab(t), naive_stab(&intervals, t), "stab({t})");
        }
        for qb in (-2..240).step_by(7) {
            for len in [1, 3, 17, 60] {
                assert_eq!(
                    tree.overlapping(qb, qb + len),
                    naive_overlap(&intervals, qb, qb + len),
                    "overlap [{qb}, {})",
                    qb + len
                );
            }
        }
    }

    #[test]
    fn shuffled_input_builds_the_same_tree_as_begin_sorted_input() {
        // Deterministically shuffled intervals with tied begins and ends.
        let mut intervals: Vec<(i64, i64)> =
            (0..300).map(|i| (i % 37, i % 37 + 1 + i % 11)).collect();
        let mut state = 0x2545F4914F6CDD1Du64;
        for i in (1..intervals.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            intervals.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let shuffled = IntervalTree::build(&intervals);

        // The same intervals renumbered in begin order (stable, so tied
        // begins keep their relative order): mapped back to the shuffled
        // ids, the tree is the same node for node.
        let mut perm: Vec<usize> = (0..intervals.len()).collect();
        perm.sort_by_key(|&i| intervals[i].0);
        let sorted: Vec<(i64, i64)> = perm.iter().map(|&i| intervals[i]).collect();
        let mut renumbered = IntervalTree::build(&sorted);
        for node in &mut renumbered.nodes {
            for (_, id) in node.by_begin.iter_mut().chain(node.by_end.iter_mut()) {
                *id = perm[*id as usize] as u32;
            }
            node.by_end.sort_unstable();
        }
        assert_eq!(shuffled, renumbered);

        // A begin order computed elsewhere — the `EventList` a `TableIndex`
        // hands over — builds it too.
        let rows: Vec<storage::Row> = intervals
            .iter()
            .map(|&(b, e)| storage::row![b, e])
            .collect();
        let events = crate::EventList::build(&rows, 0);
        assert_eq!(
            shuffled,
            IntervalTree::from_begin_order(events.by_begin(), |id| intervals[id].1)
        );
    }

    #[test]
    fn empty_tree() {
        let tree = IntervalTree::build(&[]);
        assert!(tree.is_empty());
        assert_eq!(tree.stab(0), Vec::<usize>::new());
        assert_eq!(tree.overlapping(0, 1), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn rejects_empty_intervals() {
        let _ = IntervalTree::build(&[(5, 5)]);
    }
}
