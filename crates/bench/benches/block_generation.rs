//! Block-generation cost (Sec. III-D): Merkle root + nonce puzzle + signature
//! at several difficulty levels, plus digest-receipt bookkeeping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tldag_core::config::ProtocolConfig;
use tldag_core::node::LedgerNode;
use tldag_sim::NodeId;

fn bench_generate_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate_block");
    group.sample_size(30);
    for difficulty in [0u8, 4, 8] {
        let cfg = ProtocolConfig::test_default().with_difficulty(difficulty);
        group.bench_with_input(
            BenchmarkId::new("difficulty", difficulty),
            &cfg,
            |b, cfg| {
                let neighbors: Vec<NodeId> = (1..=4).map(NodeId).collect();
                let mut slot = 0u64;
                let mut node = LedgerNode::new(NodeId(0), neighbors, cfg);
                b.iter(|| {
                    let payload = vec![slot as u8; 64];
                    let (block, _) = node.generate_block(cfg, slot, black_box(payload)).unwrap();
                    slot += 1;
                    black_box(block.id)
                });
            },
        );
    }
    group.finish();
}

fn bench_receive_digest(c: &mut Criterion) {
    let cfg = ProtocolConfig::test_default();
    let mut node = LedgerNode::new(NodeId(0), vec![NodeId(1)], &cfg);
    let digest = tldag_crypto::sha256::sha256(b"neighbor header");
    c.bench_function("receive_digest", |b| {
        b.iter(|| {
            node.begin_slot();
            black_box(node.receive_digest(NodeId(1), black_box(digest)))
        });
    });
}

criterion_group!(benches, bench_generate_block, bench_receive_digest);
criterion_main!(benches);
