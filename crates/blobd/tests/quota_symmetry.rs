//! Quota symmetry regression: storing then dropping a set of blobs must
//! return the used-byte accounting to exactly where it started — zero on
//! a fresh store — with the *same* arithmetic whether the store is the
//! simulation's in-memory [`MemStore`] or a live `obiwan-blobd` daemon
//! reached over TCP. The daemon wraps the exact same store type, and this
//! test is the pin that keeps the two sides of the wire from drifting.

#![allow(clippy::disallowed_methods)] // tests may panic on impossible states

use obiwan_blobd::{Blobd, RemoteStore};
use obiwan_net::{BlobStore, Bytes, DeviceId, MemStore, NetError};

/// The shared scenario, run against any [`BlobStore`]: store a mixed bag
/// of blobs (empty payloads, long keys, real payloads), verify the quota
/// charge grows monotonically, then drop everything and require the
/// accounting lands back at exactly zero — not merely "small".
fn assert_store_then_drop_returns_to_zero(store: &mut dyn BlobStore) {
    assert_eq!(store.used_bytes(), Ok(0), "fresh store starts empty");
    let blobs: &[(&str, &[u8])] = &[
        (
            "dev0-sc1-e0",
            b"<swap-cluster epoch='0'>payload</swap-cluster>",
        ),
        ("dev0-sc2-e1", b""),
        (
            "a-much-longer-key-charged-against-the-quota-like-any-bytes",
            b"x",
        ),
        ("k", &[0u8; 1024]),
    ];
    let mut expected = 0usize;
    for (key, data) in blobs {
        store
            .store(key, Bytes::copy_from_slice(data))
            .expect("blob fits");
        // Key bytes are charged too: many tiny blobs cannot sneak past
        // the quota for free.
        expected += key.len() + data.len();
        assert_eq!(
            store.used_bytes(),
            Ok(expected),
            "charge after storing {key}"
        );
    }
    assert_eq!(store.blob_count(), blobs.len());
    for (key, _) in blobs {
        store.drop_blob(key).expect("blob exists");
    }
    assert_eq!(
        store.used_bytes(),
        Ok(0),
        "store-then-drop must refund every charged byte"
    );
    assert_eq!(store.blob_count(), 0);
    // Double-drop stays an error, not a double-refund.
    assert!(matches!(
        store.drop_blob("dev0-sc1-e0"),
        Err(NetError::UnknownBlob { .. })
    ));
    assert_eq!(store.used_bytes(), Ok(0));
}

#[test]
fn memstore_quota_is_symmetric() {
    let mut store = MemStore::new(DeviceId::from_index(0), 1 << 20);
    assert_store_then_drop_returns_to_zero(&mut store);
}

#[test]
fn daemon_quota_is_symmetric_over_the_wire() {
    let handle = Blobd::spawn_local(1 << 20).expect("bind loopback");
    let mut store = RemoteStore::connect(DeviceId::from_index(1), handle.addr());
    assert_store_then_drop_returns_to_zero(&mut store);
    handle.shutdown();
}

#[test]
fn daemon_refuses_over_quota_and_refunds_nothing_it_never_charged() {
    let handle = Blobd::spawn_local(64).expect("bind loopback");
    let mut store = RemoteStore::connect(DeviceId::from_index(1), handle.addr());
    store
        .store("small", Bytes::copy_from_slice(&[1u8; 16]))
        .expect("fits");
    let used_before = store.used_bytes();
    let err = store
        .store("big", Bytes::copy_from_slice(&[2u8; 64]))
        .expect_err("over quota");
    assert!(matches!(err, NetError::QuotaExceeded { quota: 64, .. }));
    assert_eq!(
        store.used_bytes(),
        used_before,
        "a refused store charges nothing"
    );
    handle.shutdown();
}
