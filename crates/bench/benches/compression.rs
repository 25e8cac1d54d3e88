//! Ablation 4 (CPU half): the heap-compression baseline's compute cost —
//! "compression is a computational-intensive process" (paper §1/§6) —
//! measured on real swap-blob text, against the codec work Object-Swapping
//! itself performs.

// Benches are measurement scaffolding: aborting on a setup failure is the
// desired behaviour, so the panic-free discipline is waived here.
#![allow(clippy::disallowed_methods)]

use criterion::{BenchmarkId, Criterion, Throughput};
use obiwan_baselines::compress::CompressedPool;
use obiwan_core::Middleware;
use obiwan_heap::Value;
use obiwan_net::BlobStore;
use obiwan_replication::{standard_classes, Server};

/// Produce a realistic swap blob for a cluster of `size` 64-byte objects.
fn blob_for(size: usize) -> String {
    let mut server = Server::new(standard_classes());
    let head = server
        .build_list("Node", size * 4, obiwan_bench::workloads::PAYLOAD_FOR_64B)
        .expect("Node class");
    let mut mw = Middleware::builder()
        .cluster_size(size)
        .device_memory(size * 4 * 64 * 8 + (1 << 20))
        .no_builtin_policies()
        .build(server);
    let root = mw.replicate_root(head).expect("replicate");
    mw.set_global("head", Value::Ref(root));
    mw.invoke_i64(root, "length", vec![]).expect("warm");
    let members: Vec<obiwan_heap::ObjRef> = mw
        .manager()
        .cluster(1)
        .expect("sc1")
        .members
        .iter()
        .map(|&(_, r)| r)
        .collect();
    let blob = obiwan_core::codec::capture(mw.process(), 1, 0, &members).expect("capture");
    obiwan_core::codec::render_xml(&blob).expect("render")
}

fn bench_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("compression");
    for size in [100usize, 400] {
        let blob = blob_for(size);
        let compressed = obiwan_lz::compress(blob.as_bytes());
        group.throughput(Throughput::Bytes(blob.len() as u64));
        group.bench_with_input(BenchmarkId::new("lz_compress", size), &blob, |b, blob| {
            b.iter(|| obiwan_lz::compress(blob.as_bytes()))
        });
        group.bench_with_input(
            BenchmarkId::new("lz_decompress", size),
            &compressed,
            |b, compressed| b.iter(|| obiwan_lz::decompress(compressed).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("pool_store_fetch_drop", size),
            &blob,
            |b, blob| {
                let mut pool = CompressedPool::new(1 << 24);
                b.iter(|| {
                    pool.store("k", blob.clone().into()).expect("store");
                    let back = pool.fetch("k").expect("fetch");
                    pool.drop_blob("k").expect("drop");
                    back.len()
                })
            },
        );
    }
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    bench_compression(&mut criterion);
    criterion.final_summary();
}
