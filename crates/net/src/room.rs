//! The control plane both fabrics share: who is in the room, over which
//! link, who has left, and what each device's failure plan says.
//!
//! A storage device only stores, returns or drops keyed bytes; knowing
//! the neighbourhood is the middleware's job. [`Room`] does that job once,
//! for the simulation ([`crate::SimNet`] is a `Room<MemStore>`) and for
//! the live actor runtime alike. Each fabric adds only its data plane —
//! what a store, fetch or drop does to the per-device handle `H`.

use crate::{DeviceId, DeviceProfile, FailurePlan, LinkSpec, NetError, Result};
use std::collections::BTreeMap;

#[derive(Debug)]
struct Slot<H> {
    profile: DeviceProfile,
    present: bool,
    plan: FailurePlan,
    /// Store/fetch/drop operations that reached this device so far; the
    /// failure plan is indexed by it.
    ops: u64,
    handle: H,
}

/// One device table and one link table, shared by every fabric.
///
/// Devices carry a profile, a presence flag, a [`FailurePlan`] with its
/// operation counter, and a fabric-specific handle `H` (a blob store, an
/// actor mailbox). Links are keyed by the ordered device pair. Every
/// query here is a field read; nothing talks to a store.
#[derive(Debug)]
pub struct Room<H> {
    devices: Vec<Slot<H>>,
    links: BTreeMap<(DeviceId, DeviceId), LinkSpec>,
    churn_seq: u64,
    bytes_sent: u64,
    bytes_fetched: u64,
}

impl<H> Default for Room<H> {
    fn default() -> Self {
        Room {
            devices: Vec::new(),
            links: BTreeMap::new(),
            churn_seq: 0,
            bytes_sent: 0,
            bytes_fetched: 0,
        }
    }
}

fn pair(a: DeviceId, b: DeviceId) -> (DeviceId, DeviceId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl<H> Room<H> {
    /// An empty room.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a present device; `handle` receives the id it will have.
    pub fn add(&mut self, profile: DeviceProfile, handle: impl FnOnce(DeviceId) -> H) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(Slot {
            profile,
            present: true,
            plan: FailurePlan::none(),
            ops: 0,
            handle: handle(id),
        });
        id
    }

    fn slot(&self, device: DeviceId) -> Result<&Slot<H>> {
        self.devices
            .get(device.0 as usize)
            .ok_or(NetError::UnknownDevice { device })
    }

    fn slot_mut(&mut self, device: DeviceId) -> Result<&mut Slot<H>> {
        self.devices
            .get_mut(device.0 as usize)
            .ok_or(NetError::UnknownDevice { device })
    }

    /// A device's handle, present or not.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`].
    pub fn handle(&self, device: DeviceId) -> Result<&H> {
        self.slot(device).map(|s| &s.handle)
    }

    /// A device's handle, mutably.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`].
    pub fn handle_mut(&mut self, device: DeviceId) -> Result<&mut H> {
        self.slot_mut(device).map(|s| &mut s.handle)
    }

    /// Present devices and their handles, in id order.
    pub fn present(&self) -> impl Iterator<Item = (DeviceId, &H)> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, s)| s.present)
            .map(|(i, s)| (DeviceId(i as u32), &s.handle))
    }

    /// A device's profile.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`].
    pub fn profile(&self, device: DeviceId) -> Result<&DeviceProfile> {
        self.slot(device).map(|s| &s.profile)
    }

    /// Replace a device's failure plan. The plan's indices keep counting
    /// the device's operations from when it joined the room.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`].
    pub fn set_failure_plan(&mut self, device: DeviceId, plan: FailurePlan) -> Result<()> {
        self.slot_mut(device)?.plan = plan;
        Ok(())
    }

    /// Count one store/fetch/drop against `device` and fail it if its
    /// plan says so. Fabrics call this after reachability and airtime,
    /// just before the store would apply the op.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`], or [`NetError::InjectedFailure`].
    pub fn check_plan(&mut self, device: DeviceId, op: &'static str) -> Result<()> {
        let slot = self.slot_mut(device)?;
        let n = slot.ops;
        slot.ops += 1;
        if slot.plan.should_fail(n) {
            return Err(NetError::InjectedFailure { device, op });
        }
        Ok(())
    }

    /// Create or replace the link between two devices.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`].
    pub fn connect(&mut self, a: DeviceId, b: DeviceId, link: LinkSpec) -> Result<()> {
        self.slot(a)?;
        self.slot(b)?;
        self.links.insert(pair(a, b), link);
        self.churn_seq += 1;
        Ok(())
    }

    /// Remove the link between two devices; whether there was one.
    pub fn disconnect(&mut self, a: DeviceId, b: DeviceId) -> bool {
        let removed = self.links.remove(&pair(a, b)).is_some();
        if removed {
            self.churn_seq += 1;
        }
        removed
    }

    /// Mark a device away. Its handle, and whatever it stores, stays.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`].
    pub fn depart(&mut self, device: DeviceId) -> Result<()> {
        self.slot_mut(device)?.present = false;
        self.churn_seq += 1;
        Ok(())
    }

    /// Mark a device present again.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`].
    pub fn arrive(&mut self, device: DeviceId) -> Result<()> {
        self.slot_mut(device)?.present = true;
        self.churn_seq += 1;
        Ok(())
    }

    /// Monotonic counter bumped by every topology change — departures,
    /// arrivals, links made and broken.
    pub fn churn_seq(&self) -> u64 {
        self.churn_seq
    }

    /// Whether the device is known and present.
    pub fn is_present(&self, device: DeviceId) -> bool {
        self.devices
            .get(device.0 as usize)
            .is_some_and(|s| s.present)
    }

    /// Every device id, departed ones included, ascending.
    pub fn device_ids(&self) -> Vec<DeviceId> {
        (0..self.devices.len() as u32).map(DeviceId).collect()
    }

    /// The link between two devices, if both are present.
    pub fn link(&self, a: DeviceId, b: DeviceId) -> Option<LinkSpec> {
        if self.is_present(a) && self.is_present(b) {
            self.links.get(&pair(a, b)).copied()
        } else {
            None
        }
    }

    /// Present devices linked to `of`, ascending id order.
    pub fn nearby(&self, of: DeviceId) -> Vec<DeviceId> {
        let mut out: Vec<DeviceId> = self
            .links
            .keys()
            .filter_map(|&(a, b)| {
                if a == of {
                    Some(b)
                } else if b == of {
                    Some(a)
                } else {
                    None
                }
            })
            .filter(|&id| self.link(of, id).is_some())
            .collect();
        out.sort();
        out
    }

    /// The link a transfer from `from` to `to` would use, checked in the
    /// one order every fabric reports: unknown device, departed sender,
    /// departed receiver, not connected.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`], [`NetError::Departed`] or
    /// [`NetError::NotConnected`].
    pub fn require_link(&self, from: DeviceId, to: DeviceId) -> Result<LinkSpec> {
        let (f, t) = (self.slot(from)?, self.slot(to)?);
        if !f.present {
            return Err(NetError::Departed { device: from });
        }
        if !t.present {
            return Err(NetError::Departed { device: to });
        }
        self.links
            .get(&pair(from, to))
            .copied()
            .ok_or(NetError::NotConnected { from, to })
    }

    /// Count `bytes` of payload sent (charged before the far store
    /// accepts or refuses it: the airtime was spent either way).
    pub fn charge_sent(&mut self, bytes: usize) {
        self.bytes_sent = self.bytes_sent.saturating_add(bytes as u64);
    }

    /// Count `bytes` of payload fetched.
    pub fn charge_fetched(&mut self, bytes: usize) {
        self.bytes_fetched = self.bytes_fetched.saturating_add(bytes as u64);
    }

    /// Total payload bytes sent / fetched since the room began.
    pub fn traffic(&self) -> (u64, u64) {
        (self.bytes_sent, self.bytes_fetched)
    }
}
