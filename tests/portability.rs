//! The paper's portability claim, tested literally: the device storing a
//! swapped cluster needs **no VM, no middleware, no class files** — the
//! blob is self-describing XML text that any XML-capable party can read,
//! and the storage protocol is just store / return / drop.

use obiwan::prelude::*;

fn swapped_world() -> (Middleware, String) {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 40, 12).expect("build list");
    let mut mw = Middleware::builder()
        .cluster_size(20)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .build(server);
    let root = mw.replicate_root(head).expect("replicate");
    mw.set_global("head", Value::Ref(root));
    mw.invoke_i64(root, "length", vec![]).expect("warm");
    mw.swap_out(1).expect("swap out");
    let xml = {
        let net = mw.net();
        let mut net = net.lock().expect("net");
        let laptop = net.nearby(mw.home_device())[0];
        let data = net
            .fetch_blob(mw.home_device(), laptop, "dev0-sc1-e0")
            .expect("the blob is on the laptop");
        String::from_utf8(data.to_vec()).expect("the default wire format is XML text")
    };
    (mw, xml)
}

#[test]
fn blob_is_plain_parseable_xml_with_no_middleware_knowledge_needed() {
    let (_mw, xml) = swapped_world();
    // A "dumb" party parses it with the generic XML parser alone — no
    // codec, no class registry, no heap.
    let root = obiwan::xml::Element::parse(&xml).expect("well-formed XML");
    assert_eq!(root.name(), "swap-cluster");
    assert_eq!(root.parse_attr::<u32>("id").unwrap(), 1);
    let objects: Vec<_> = root.children_named("object").collect();
    assert_eq!(objects.len(), 20);
    for o in &objects {
        assert!(o.parse_attr::<u64>("oid").unwrap() > 0);
        assert_eq!(o.require_attr("class").unwrap(), "Node");
        // Every field element is self-describing.
        for f in o.children_named("field") {
            let kind = f.require_attr("kind").unwrap();
            assert!(
                ["ref", "proxyref", "faultref", "int", "double", "bool", "str", "bytes"]
                    .contains(&kind),
                "unknown kind {kind}"
            );
        }
    }
}

#[test]
fn blob_text_is_pure_ascii_safe_for_any_transport() {
    let (_mw, xml) = swapped_world();
    assert!(xml.is_ascii(), "payload bytes travel hex-encoded");
    assert!(!xml.contains('\u{0}'));
}

#[test]
fn storing_device_speaks_only_store_return_drop() {
    // A fresh "device" with no OBIWAN anything: just the three-verb store.
    use obiwan::net::{BlobStore, MemStore};
    let (_mw, xml) = swapped_world();
    let mut dumb = MemStore::new(DeviceId::default(), 1 << 20);
    dumb.store("anything", xml.clone().into()).expect("store");
    assert_eq!(&dumb.fetch("anything").expect("return")[..], xml.as_bytes());
    dumb.drop_blob("anything").expect("drop");
    assert_eq!(dumb.blob_count(), 0);
}

#[test]
fn blob_roundtrips_through_foreign_xml_tooling() {
    let (_mw, xml) = swapped_world();
    // Simulate a storage device that re-serializes the text through its
    // own XML stack (e.g. pretty-printing it differently): the cluster
    // still decodes identically.
    let reparsed = obiwan::xml::Element::parse(&xml).expect("parse");
    let reprinted = reparsed.to_xml();
    let a = obiwan::core::wire::decode_blob(xml.as_bytes()).expect("decode original");
    let b = obiwan::core::wire::decode_blob(reprinted.as_bytes()).expect("decode reprinted");
    assert_eq!(a, b);
}
