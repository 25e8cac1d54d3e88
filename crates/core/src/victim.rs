//! Victim selection: which swap-cluster to evict under pressure.

use crate::swap_cluster::SwapClusterEntry;

/// Policy deciding which loaded swap-cluster is detached when memory must
/// be freed. The manager's boundary-crossing statistics ("basic data w.r.t.
/// recency and frequency, as these boundaries are transversed by the
/// application", paper §3) feed the recency/frequency policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimPolicy {
    /// Evict the cluster whose boundary was crossed longest ago.
    #[default]
    LeastRecentlyUsed,
    /// Evict the cluster with the fewest boundary crossings.
    LeastFrequentlyUsed,
    /// Evict the cluster occupying the most bytes (frees the most memory
    /// per swap).
    LargestFirst,
    /// Evict clusters cyclically by id (baseline for the ablation).
    RoundRobin,
}

impl VictimPolicy {
    /// Pick a victim among `candidates` (id, entry) pairs; candidates not
    /// in the `Loaded` state are skipped. `cursor` is the round-robin
    /// memory (last evicted id). Returns the chosen id.
    ///
    /// Every policy takes the minimum of a per-entry rank that ends in the
    /// id, so ranks are unique and the winner of a registry is the winner
    /// among the winners of any partition of it — the sharded manager lets
    /// each shard nominate under its own lock.
    pub fn choose<'a>(
        self,
        candidates: impl Iterator<Item = (u32, &'a SwapClusterEntry)>,
        cursor: u32,
    ) -> Option<u32> {
        self.nominate(candidates, cursor).map(|rank| rank.1)
    }

    /// The best [`VictimPolicy::rank`] among the loaded `candidates`.
    pub(crate) fn nominate<'a>(
        self,
        candidates: impl Iterator<Item = (u32, &'a SwapClusterEntry)>,
        cursor: u32,
    ) -> Option<(u64, u32)> {
        candidates
            .filter(|(_, e)| e.is_loaded())
            .map(|(id, e)| self.rank(id, e, cursor))
            .min()
    }

    /// The sort key this policy evicts by, lowest first: LRU by last
    /// crossing, LFU by crossing count, largest-first by descending bytes,
    /// round-robin by "above the cursor, then smallest id" — each with the
    /// id as the final tie-break.
    pub(crate) fn rank(self, id: u32, e: &SwapClusterEntry, cursor: u32) -> (u64, u32) {
        let primary = match self {
            VictimPolicy::LeastRecentlyUsed => e.last_crossing,
            VictimPolicy::LeastFrequentlyUsed => e.crossings,
            VictimPolicy::LargestFirst => u64::MAX - e.bytes as u64,
            VictimPolicy::RoundRobin => u64::from(id <= cursor),
        };
        (primary, id)
    }

    /// Name used in reports and the policy dialect.
    pub fn name(self) -> &'static str {
        match self {
            VictimPolicy::LeastRecentlyUsed => "lru",
            VictimPolicy::LeastFrequentlyUsed => "lfu",
            VictimPolicy::LargestFirst => "largest",
            VictimPolicy::RoundRobin => "round-robin",
        }
    }
}

impl std::fmt::Display for VictimPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;
    use crate::swap_cluster::SwapClusterState;

    fn entry(bytes: usize, crossings: u64, last: u64) -> SwapClusterEntry {
        let mut e = SwapClusterEntry::new();
        e.bytes = bytes;
        e.crossings = crossings;
        e.last_crossing = last;
        e
    }

    fn candidates() -> Vec<(u32, SwapClusterEntry)> {
        vec![
            (1, entry(100, 10, 5)),
            (2, entry(300, 2, 9)),
            (3, entry(200, 7, 1)),
        ]
    }

    #[test]
    fn lru_picks_stalest() {
        let c = candidates();
        let pick = VictimPolicy::LeastRecentlyUsed.choose(c.iter().map(|(i, e)| (*i, e)), 0);
        assert_eq!(pick, Some(3));
    }

    #[test]
    fn lfu_picks_least_crossed() {
        let c = candidates();
        let pick = VictimPolicy::LeastFrequentlyUsed.choose(c.iter().map(|(i, e)| (*i, e)), 0);
        assert_eq!(pick, Some(2));
    }

    #[test]
    fn largest_picks_biggest() {
        let c = candidates();
        let pick = VictimPolicy::LargestFirst.choose(c.iter().map(|(i, e)| (*i, e)), 0);
        assert_eq!(pick, Some(2));
    }

    #[test]
    fn largest_breaks_ties_on_smallest_id() {
        let c = [
            (7, entry(300, 1, 1)),
            (5, entry(300, 9, 9)),
            (6, entry(10, 0, 0)),
        ];
        let pick = VictimPolicy::LargestFirst.choose(c.iter().map(|(i, e)| (*i, e)), 0);
        assert_eq!(pick, Some(5));
    }

    #[test]
    fn round_robin_cycles() {
        let c = candidates();
        let iter = || c.iter().map(|(i, e)| (*i, e));
        assert_eq!(VictimPolicy::RoundRobin.choose(iter(), 0), Some(1));
        assert_eq!(VictimPolicy::RoundRobin.choose(iter(), 1), Some(2));
        assert_eq!(VictimPolicy::RoundRobin.choose(iter(), 3), Some(1));
    }

    #[test]
    fn swapped_out_clusters_are_not_candidates() {
        let mut c = candidates();
        for (_, e) in c.iter_mut() {
            e.state = SwapClusterState::Dropped;
        }
        assert_eq!(
            VictimPolicy::LeastRecentlyUsed.choose(c.iter().map(|(i, e)| (*i, e)), 0),
            None
        );
    }

    #[test]
    fn ties_break_deterministically() {
        let c = [(4, entry(10, 1, 1)), (2, entry(10, 1, 1))];
        let pick = VictimPolicy::LeastRecentlyUsed.choose(c.iter().map(|(i, e)| (*i, e)), 0);
        assert_eq!(pick, Some(2), "lowest id wins ties");
    }
}
