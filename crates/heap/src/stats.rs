//! Aggregate heap statistics.

use crate::Heap;

/// A snapshot of heap health, consumed by the context manager (memory
/// monitor) and printed by the examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapStats {
    /// Bytes currently charged to live objects.
    pub bytes_used: usize,
    /// Hard capacity.
    pub capacity: usize,
    /// High-water mark of `bytes_used`.
    pub peak_bytes: usize,
    /// Live object count.
    pub live_objects: usize,
    /// Cumulative allocations.
    pub total_allocs: u64,
    /// Cumulative frees.
    pub total_frees: u64,
    /// Collections run, minor and full.
    pub gc_runs: u64,
    /// Minor collections run (a share of `gc_runs`).
    pub minor_gc_runs: u64,
}

impl HeapStats {
    /// Occupancy as a fraction in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.bytes_used as f64 / self.capacity as f64
        }
    }
}

impl Heap {
    /// Take a statistics snapshot.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            bytes_used: self.bytes_used,
            capacity: self.capacity(),
            peak_bytes: self.peak_bytes,
            live_objects: self.live_objects,
            total_allocs: self.total_allocs,
            total_frees: self.total_frees,
            gc_runs: self.gc_runs,
            minor_gc_runs: self.minor_gc_runs,
        }
    }
}

#[cfg(test)]
mod tests {
    // Tests assert on known-good setups; panicking on failure is the point.
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::{ClassBuilder, ClassRegistry, ObjectKind};

    #[test]
    fn stats_track_alloc_free_gc() {
        let mut reg = ClassRegistry::new();
        let node = reg.register(ClassBuilder::new("N").int_field("x"));
        let mut heap = Heap::new(reg, 4096);
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        let _b = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_global("keep", crate::Value::Ref(a));
        heap.collect();
        let s = heap.stats();
        assert_eq!(s.total_allocs, 2);
        assert_eq!(s.total_frees, 1);
        assert_eq!(s.live_objects, 1);
        assert_eq!(s.gc_runs, 1);
        assert_eq!(s.minor_gc_runs, 0);
        heap.collect_minor();
        let s = heap.stats();
        assert_eq!((s.gc_runs, s.minor_gc_runs), (2, 1));
        assert!(s.peak_bytes >= s.bytes_used);
        assert!(s.occupancy() > 0.0 && s.occupancy() < 1.0);
    }

    #[test]
    fn zero_capacity_occupancy_is_zero() {
        let s = HeapStats::default();
        assert_eq!(s.occupancy(), 0.0);
    }
}
