//! Weak reference table.
//!
//! The paper's SwappingManager stores its per-swap-cluster proxy entries
//! behind *weak references* so that the tables never keep a proxy alive; when
//! a proxy becomes unreachable the paper's finalizer prunes the entries.
//! Here a proxy has no finalizer: the collection that frees it clears its
//! weak entries, so they resolve to `None`, and the manager compacts its
//! tables from the count of dead proxies the sweep's hook reports
//! ([`crate::Heap::collect_with`]).
//!
//! Entries are generational: a slot cleared by a sweep is recycled for new
//! weak references, and any stale [`WeakRef`] still held by a table keeps
//! resolving to `None` instead of aliasing the new occupant. Without
//! recycling, the table would grow by one slot per proxy ever created —
//! a real leak under sustained load (the Criterion benches caught it).
//!
//! A weak entry created before the collection before last points at an
//! object that is old by now, which only a full collection can free; so a
//! minor collection clears only the entries created since the collection
//! before last.

use crate::ObjRef;

/// Handle to a weak table entry. Obtained from [`crate::Heap::weak_ref`],
/// resolved with [`crate::Heap::weak_get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeakRef {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    generation: u32,
    target: Option<ObjRef>,
    /// Listed in [`WeakTable::young`] or [`WeakTable::aged`].
    young: bool,
}

/// The table of weak entries. Sweeps clear entries whose targets died and
/// recycle their slots.
#[derive(Debug, Default)]
pub(crate) struct WeakTable {
    entries: Vec<Entry>,
    free: Vec<u32>,
    /// Entries (re)filled since the last collection, each listed once.
    young: Vec<u32>,
    /// Entries filled before the last collection, a minor one, that it did
    /// not clear.
    aged: Vec<u32>,
}

impl WeakTable {
    pub(crate) fn create(&mut self, target: ObjRef) -> WeakRef {
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                self.entries.push(Entry {
                    generation: 0,
                    target: None,
                    young: false,
                });
                self.entries.len() as u32 - 1
            }
        };
        let entry = &mut self.entries[index as usize];
        entry.target = Some(target);
        if !entry.young {
            entry.young = true;
            self.young.push(index);
        }
        WeakRef {
            index,
            generation: entry.generation,
        }
    }

    pub(crate) fn get(&self, weak: WeakRef) -> Option<ObjRef> {
        let entry = self.entries.get(weak.index as usize)?;
        (entry.generation == weak.generation)
            .then_some(entry.target)
            .flatten()
    }

    pub(crate) fn drop_ref(&mut self, weak: WeakRef) {
        if let Some(entry) = self.entries.get_mut(weak.index as usize) {
            if entry.generation == weak.generation && entry.target.take().is_some() {
                entry.generation = entry.generation.wrapping_add(1);
                self.free.push(weak.index);
            }
        }
    }

    /// Clear (and recycle) every entry whose target satisfies `dead`.
    pub(crate) fn clear_dead(&mut self, mut dead: impl FnMut(ObjRef) -> bool) {
        for index in 0..self.entries.len() as u32 {
            self.entries[index as usize].young = false;
            self.clear_if_dead(index, &mut dead);
        }
        self.young.clear();
        self.aged.clear();
    }

    /// Clear (and recycle) the entries created since the collection before
    /// last whose target satisfies `dead`; the survivors created since the
    /// last collection are checked once more by the next one.
    pub(crate) fn clear_dead_young(&mut self, mut dead: impl FnMut(ObjRef) -> bool) {
        for index in std::mem::take(&mut self.aged) {
            self.entries[index as usize].young = false;
            self.clear_if_dead(index, &mut dead);
        }
        for index in std::mem::take(&mut self.young) {
            if self.clear_if_dead(index, &mut dead) {
                self.entries[index as usize].young = false;
            } else {
                self.aged.push(index);
            }
        }
    }

    /// Clear and recycle entry `index` if its target satisfies `dead`;
    /// whether it did.
    fn clear_if_dead(&mut self, index: u32, dead: &mut impl FnMut(ObjRef) -> bool) -> bool {
        let entry = &mut self.entries[index as usize];
        if !entry.target.is_some_and(&mut *dead) {
            return false;
        }
        entry.target = None;
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(index);
        true
    }

    /// Number of live (occupied) entries.
    #[cfg(test)]
    pub(crate) fn len_live(&self) -> usize {
        self.entries.iter().filter(|e| e.target.is_some()).count()
    }

    /// Total slots allocated (capacity diagnostics).
    #[cfg(test)]
    pub(crate) fn len_slots(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> ObjRef {
        ObjRef {
            index: i,
            generation: 0,
        }
    }

    #[test]
    fn create_and_get() {
        let mut t = WeakTable::default();
        let w = t.create(r(5));
        assert_eq!(t.get(w), Some(r(5)));
    }

    #[test]
    fn drop_recycles_slot_without_aliasing() {
        let mut t = WeakTable::default();
        let w1 = t.create(r(1));
        t.drop_ref(w1);
        assert_eq!(t.get(w1), None);
        let w2 = t.create(r(2));
        assert_eq!(w2.index, w1.index, "slot recycled");
        assert_ne!(w2.generation, w1.generation, "generation bumped");
        assert_eq!(t.get(w1), None, "stale handle stays dead");
        assert_eq!(t.get(w2), Some(r(2)));
    }

    #[test]
    fn clear_dead_recycles_and_keeps_stale_handles_dead() {
        let mut t = WeakTable::default();
        let w = t.create(r(1));
        t.clear_dead(|target| target == r(1));
        assert_eq!(t.get(w), None);
        let w2 = t.create(r(2));
        assert_eq!(w2.index, w.index, "cleared slot is reused");
        assert_eq!(t.get(w), None, "old handle cannot see the new target");
        assert_eq!(t.get(w2), Some(r(2)));
    }

    #[test]
    fn a_young_clear_checks_entries_until_they_outlive_two_collections() {
        let mut t = WeakTable::default();
        let old = t.create(r(1));
        t.clear_dead(|_| false);
        let aged = t.create(r(2));
        t.clear_dead_young(|_| false);
        let young = t.create(r(3));
        t.clear_dead_young(|_| true);
        assert_eq!(t.get(old), Some(r(1)), "older than the last full clear");
        assert_eq!(t.get(aged), None, "checked by its second collection");
        assert_eq!(t.get(young), None);
        // A third collection no longer looks at an entry.
        let w = t.create(r(4));
        t.clear_dead_young(|_| false);
        t.clear_dead_young(|_| false);
        t.clear_dead_young(|_| true);
        assert_eq!(t.get(w), Some(r(4)));
        // A recycled slot is young again, listed once however often it is
        // refilled and dropped.
        for target in 5..8 {
            let w = t.create(r(target));
            t.drop_ref(w);
        }
        assert_eq!(t.young.len(), 1);
        t.clear_dead(|_| true);
        assert_eq!(t.get(old), None);
    }

    #[test]
    fn sustained_churn_does_not_grow_the_table() {
        let mut t = WeakTable::default();
        for round in 0..1_000u32 {
            let w = t.create(r(round));
            assert_eq!(t.get(w), Some(r(round)));
            t.clear_dead(|_| true);
        }
        assert!(
            t.len_slots() <= 2,
            "slots must be recycled, got {}",
            t.len_slots()
        );
        assert_eq!(t.len_live(), 0);
    }

    #[test]
    fn double_drop_is_harmless() {
        let mut t = WeakTable::default();
        let w = t.create(r(1));
        t.drop_ref(w);
        t.drop_ref(w);
        assert_eq!(t.len_live(), 0);
        // Free list must not contain the slot twice.
        let a = t.create(r(2));
        let b = t.create(r(3));
        assert_ne!(a, b);
    }
}
