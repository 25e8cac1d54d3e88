//! Context management: resource monitors that turn raw readings into
//! policy events (paper §2: "responsible for monitoring available memory
//! and network connectivity").

use crate::PolicyEvent;
use std::collections::BTreeSet;

/// Memory watermarks with hysteresis.
///
/// Crossing `high_pct` upward emits [`PolicyEvent::MemoryPressure`]; the
/// pressure state clears only when occupancy falls below `low_pct`,
/// preventing oscillation right at the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// Occupancy percentage that raises pressure.
    pub high_pct: u8,
    /// Occupancy percentage that clears pressure.
    pub low_pct: u8,
}

impl Watermarks {
    /// Watermarks with validation.
    ///
    /// # Panics
    ///
    /// Panics unless `low_pct < high_pct <= 100`.
    pub fn new(low_pct: u8, high_pct: u8) -> Self {
        assert!(
            low_pct < high_pct && high_pct <= 100,
            "watermarks must satisfy low < high <= 100"
        );
        Watermarks { high_pct, low_pct }
    }
}

impl Default for Watermarks {
    /// 70 % low, 85 % high.
    fn default() -> Self {
        Watermarks {
            high_pct: 85,
            low_pct: 70,
        }
    }
}

/// The context manager: stateful monitors for memory and connectivity.
///
/// # Examples
///
/// ```
/// use obiwan_policy::{ContextManager, PolicyEvent, Watermarks};
///
/// let mut cm = ContextManager::new(Watermarks::new(70, 85));
/// assert!(cm.observe_memory(860, 1000).is_some()); // crossed 85 %
/// assert!(cm.observe_memory(900, 1000).is_none()); // still pressed, no re-fire
/// assert!(matches!(
///     cm.observe_memory(500, 1000),
///     Some(PolicyEvent::MemoryRelaxed { .. })       // fell below 70 %
/// ));
/// ```
#[derive(Debug, Default)]
pub struct ContextManager {
    watermarks: Watermarks,
    pressured: bool,
    known_devices: BTreeSet<i64>,
}

impl ContextManager {
    /// Create with the given watermarks.
    pub fn new(watermarks: Watermarks) -> Self {
        ContextManager {
            watermarks,
            pressured: false,
            known_devices: BTreeSet::new(),
        }
    }

    /// The configured watermarks.
    pub fn watermarks(&self) -> Watermarks {
        self.watermarks
    }

    /// Whether the memory monitor is currently in the pressured state.
    pub fn is_pressured(&self) -> bool {
        self.pressured
    }

    /// Feed a memory reading; returns an event on watermark crossings
    /// (edge-triggered with hysteresis).
    pub fn observe_memory(&mut self, bytes_used: usize, capacity: usize) -> Option<PolicyEvent> {
        let pct = if capacity == 0 {
            0
        } else {
            (bytes_used as u128 * 100 / capacity as u128) as i64
        };
        if !self.pressured && pct >= self.watermarks.high_pct as i64 {
            self.pressured = true;
            return Some(PolicyEvent::MemoryPressure {
                occupancy_pct: pct,
                bytes_used: bytes_used as i64,
                capacity: capacity as i64,
            });
        }
        if self.pressured && pct < self.watermarks.low_pct as i64 {
            self.pressured = false;
            return Some(PolicyEvent::MemoryRelaxed { occupancy_pct: pct });
        }
        None
    }

    /// Feed the ids of the currently reachable storage devices; returns
    /// discovery / loss events for the delta, losses in id order.
    ///
    /// `free_storage` is asked only for the devices reported in a
    /// [`PolicyEvent::DeviceDiscovered`]: a device already known costs no
    /// lookup, and one that left and came back is discovered (and asked)
    /// again. On a live fabric each lookup is a round trip to the store.
    pub fn observe_devices(
        &mut self,
        present: &[i64],
        mut free_storage: impl FnMut(i64) -> i64,
    ) -> Vec<PolicyEvent> {
        let now: BTreeSet<i64> = present.iter().copied().collect();
        let mut events = Vec::new();
        for &device in present {
            if !self.known_devices.contains(&device) {
                events.push(PolicyEvent::DeviceDiscovered {
                    device,
                    free_storage: free_storage(device),
                });
            }
        }
        for &device in self.known_devices.difference(&now) {
            events.push(PolicyEvent::DeviceLost {
                device,
                blobs_held: 0,
            });
        }
        self.known_devices = now;
        events
    }
}

#[cfg(test)]
mod tests {
    // Tests assert on known-good setups; panicking on failure is the point.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn hysteresis_prevents_refiring() {
        let mut cm = ContextManager::new(Watermarks::new(50, 80));
        assert!(cm.observe_memory(10, 100).is_none());
        let e = cm.observe_memory(80, 100).unwrap();
        assert!(matches!(
            e,
            PolicyEvent::MemoryPressure {
                occupancy_pct: 80,
                ..
            }
        ));
        // Between low and high while pressured: silence.
        assert!(cm.observe_memory(79, 100).is_none());
        assert!(cm.observe_memory(60, 100).is_none());
        // Below low: relax fires once.
        assert!(matches!(
            cm.observe_memory(49, 100),
            Some(PolicyEvent::MemoryRelaxed { occupancy_pct: 49 })
        ));
        assert!(cm.observe_memory(48, 100).is_none());
        // And pressure can fire again.
        assert!(cm.observe_memory(90, 100).is_some());
    }

    #[test]
    fn zero_capacity_reads_as_zero_occupancy() {
        let mut cm = ContextManager::new(Watermarks::default());
        assert!(cm.observe_memory(100, 0).is_none());
    }

    /// Free bytes of the test room's devices.
    fn room(device: i64) -> i64 {
        device * 100
    }

    #[test]
    fn device_deltas_produce_discovery_and_loss() {
        let mut cm = ContextManager::new(Watermarks::default());
        let evs = cm.observe_devices(&[1, 2], room);
        assert_eq!(
            evs,
            vec![
                PolicyEvent::DeviceDiscovered {
                    device: 1,
                    free_storage: 100
                },
                PolicyEvent::DeviceDiscovered {
                    device: 2,
                    free_storage: 200
                },
            ]
        );
        // No change → no events.
        assert!(cm.observe_devices(&[1, 2], room).is_empty());
        // 2 leaves, 3 arrives.
        let evs = cm.observe_devices(&[1, 3], room);
        assert_eq!(
            evs,
            vec![
                PolicyEvent::DeviceDiscovered {
                    device: 3,
                    free_storage: 300
                },
                PolicyEvent::DeviceLost {
                    device: 2,
                    blobs_held: 0
                },
            ]
        );
    }

    #[test]
    fn free_storage_is_asked_only_on_discovery() {
        fn observe(
            cm: &mut ContextManager,
            present: &[i64],
            asked: &mut Vec<i64>,
        ) -> Vec<PolicyEvent> {
            cm.observe_devices(present, |d| {
                asked.push(d);
                room(d)
            })
        }
        let mut cm = ContextManager::new(Watermarks::default());
        let mut asked: Vec<i64> = Vec::new();
        // Exactly one lookup per newly present device.
        let evs = observe(&mut cm, &[1, 2], &mut asked);
        assert_eq!(asked, vec![1, 2]);
        assert_eq!(evs.len(), 2);
        // A repeat observation asks nothing.
        asked.clear();
        assert!(observe(&mut cm, &[1, 2], &mut asked).is_empty());
        assert!(asked.is_empty());
        // Leaving asks nothing; returning is a fresh discovery, asked once.
        let evs = observe(&mut cm, &[1], &mut asked);
        assert!(asked.is_empty());
        assert_eq!(
            evs,
            vec![PolicyEvent::DeviceLost {
                device: 2,
                blobs_held: 0
            }]
        );
        let evs = observe(&mut cm, &[1, 2], &mut asked);
        assert_eq!(asked, vec![2]);
        assert_eq!(
            evs,
            vec![PolicyEvent::DeviceDiscovered {
                device: 2,
                free_storage: 200
            }]
        );
    }

    #[test]
    fn losses_come_out_in_id_order() {
        let mut cm = ContextManager::new(Watermarks::default());
        cm.observe_devices(&[9, 4, 7, 1], room);
        let lost: Vec<i64> = cm
            .observe_devices(&[], room)
            .into_iter()
            .map(|e| match e {
                PolicyEvent::DeviceLost { device, .. } => device,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(lost, vec![1, 4, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "watermarks")]
    fn inverted_watermarks_panic() {
        let _ = Watermarks::new(90, 80);
    }
}
