//! The heap-compression baseline (\[2\] Chen et al., \[3\] Chihaia &
//! Gross, \[14\] Wilson).
//!
//! Instead of shipping a swapped-out cluster to a nearby device, the text
//! is compressed into an in-memory **compressed pool** reserved out of the
//! device's own memory. The trade-offs the paper highlights:
//!
//! * compression is CPU-intensive (energy, latency on a handheld);
//! * "the compressed-memory pool actually reduces the memory available to
//!   applications", and sizing it is delicate — "devoting too much memory
//!   to the compressed-memory pool hurts performance as much as not
//!   reserving enough";
//! * capacity is bounded by the device itself, unlike the room's devices.
//!
//! [`CompressedPool`] implements the same three-verb interface as the
//! remote stores ([`obiwan_net::BlobStore`]) so benches can swap it in for
//! the network path one-for-one.

use obiwan_net::{BlobStore, Bytes, DeviceId, NetError};
use std::collections::HashMap;

/// Statistics of a [`CompressedPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Compression operations.
    pub compressions: u64,
    /// Decompression operations.
    pub decompressions: u64,
    /// Uncompressed bytes accepted.
    pub bytes_in: u64,
    /// Compressed bytes currently resident.
    pub bytes_resident: u64,
}

/// An in-memory compressed blob pool with a byte budget.
///
/// # Examples
///
/// ```
/// use obiwan_baselines::compress::CompressedPool;
/// use obiwan_net::BlobStore;
///
/// # fn main() -> Result<(), obiwan_net::NetError> {
/// let mut pool = CompressedPool::new(4096);
/// let text = "<object oid=\"1\"/>".repeat(40);
/// pool.store("sc-1", text.clone().into())?;
/// assert!(pool.used_bytes()? < text.len(), "compression shrank it");
/// assert_eq!(&pool.fetch("sc-1")?[..], text.as_bytes());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct CompressedPool {
    blobs: HashMap<String, Vec<u8>>,
    budget: usize,
    used: usize,
    stats: PoolStats,
}

impl CompressedPool {
    /// A pool with the given byte budget (memory reserved away from the
    /// application heap).
    pub fn new(budget: usize) -> Self {
        CompressedPool {
            blobs: HashMap::new(),
            budget,
            used: 0,
            stats: PoolStats::default(),
        }
    }

    /// The byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Achieved compression ratio so far (compressed / uncompressed).
    pub fn ratio(&self) -> f64 {
        if self.stats.bytes_in == 0 {
            return 1.0;
        }
        self.stats.bytes_resident as f64 / self.stats.bytes_in as f64
    }
}

impl BlobStore for CompressedPool {
    fn store(&mut self, key: &str, data: Bytes) -> obiwan_net::Result<()> {
        if self.blobs.contains_key(key) {
            return Err(NetError::DuplicateBlob {
                device: DeviceId::default(),
                key: key.to_string(),
            });
        }
        let compressed = obiwan_lz::compress(&data);
        if self.used + compressed.len() > self.budget {
            return Err(NetError::QuotaExceeded {
                device: DeviceId::default(),
                requested: compressed.len(),
                used: self.used,
                quota: self.budget,
            });
        }
        self.used += compressed.len();
        self.stats.compressions += 1;
        self.stats.bytes_in += data.len() as u64;
        self.stats.bytes_resident += compressed.len() as u64;
        self.blobs.insert(key.to_string(), compressed);
        Ok(())
    }

    fn fetch(&mut self, key: &str) -> obiwan_net::Result<Bytes> {
        let compressed = self.blobs.get(key).ok_or_else(|| NetError::UnknownBlob {
            device: DeviceId::default(),
            key: key.to_string(),
        })?;
        self.stats.decompressions += 1;
        let raw = obiwan_lz::decompress(compressed).map_err(|_| NetError::UnknownBlob {
            device: DeviceId::default(),
            key: key.to_string(),
        })?;
        Ok(Bytes::from(raw))
    }

    fn drop_blob(&mut self, key: &str) -> obiwan_net::Result<()> {
        match self.blobs.remove(key) {
            Some(compressed) => {
                self.used -= compressed.len();
                self.stats.bytes_resident -= compressed.len() as u64;
                Ok(())
            }
            None => Err(NetError::UnknownBlob {
                device: DeviceId::default(),
                key: key.to_string(),
            }),
        }
    }

    fn contains(&self, key: &str) -> bool {
        self.blobs.contains_key(key)
    }

    fn used_bytes(&self) -> obiwan_net::Result<usize> {
        Ok(self.used)
    }

    fn blob_count(&self) -> usize {
        self.blobs.len()
    }
}

#[cfg(test)]
mod tests {
    // Tests assert on known-good setups; panicking on failure is the point.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn xmlish(n: usize) -> String {
        (0..n)
            .map(|i| format!("<object oid=\"{i}\" class=\"Node\"><field i=\"0\"/></object>"))
            .collect()
    }

    #[test]
    fn store_fetch_drop_roundtrip() {
        let mut pool = CompressedPool::new(1 << 16);
        let text = xmlish(50);
        pool.store("k", text.clone().into()).unwrap();
        assert_eq!(&pool.fetch("k").unwrap()[..], text.as_bytes());
        assert_eq!(pool.blob_count(), 1);
        pool.drop_blob("k").unwrap();
        assert_eq!(pool.used_bytes(), Ok(0));
        assert_eq!(pool.blob_count(), 0);
    }

    #[test]
    fn budget_is_enforced_on_compressed_size() {
        let mut pool = CompressedPool::new(256);
        // Highly compressible 10 KB fits in 256 compressed bytes…
        let compressible = "a".repeat(10_000);
        pool.store("a", compressible.into()).unwrap();
        // …but nearly-random data of the same raw size does not.
        let mut pool2 = CompressedPool::new(256);
        let noisy: String = (0..10_000u32)
            .map(|i| (33 + ((i.wrapping_mul(2654435761) >> 16) % 90) as u8) as char)
            .collect();
        assert!(matches!(
            pool2.store("n", noisy.into()),
            Err(NetError::QuotaExceeded { .. })
        ));
    }

    #[test]
    fn duplicate_keys_rejected() {
        let mut pool = CompressedPool::new(1 << 16);
        pool.store("k", "x".into()).unwrap();
        assert!(matches!(
            pool.store("k", "y".into()),
            Err(NetError::DuplicateBlob { .. })
        ));
    }

    #[test]
    fn ratio_reflects_compressibility() {
        let mut pool = CompressedPool::new(1 << 20);
        pool.store("k", xmlish(200).into()).unwrap();
        assert!(pool.ratio() < 0.5, "ratio {}", pool.ratio());
    }

    #[test]
    fn missing_keys_error() {
        let mut pool = CompressedPool::new(64);
        assert!(pool.fetch("nope").is_err());
        assert!(pool.drop_blob("nope").is_err());
    }
}
