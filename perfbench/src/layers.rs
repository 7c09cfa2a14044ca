//! Per-layer measurements the benchmark takes from outside the crates: it
//! replays a workload's own blocks through each layer's public functions
//! and times the calls.

use crate::report::Report;
use std::path::Path;
use std::time::Instant;
use tldag_core::codec::WireMessage;
use tldag_core::pop::validator::registered_key;
use tldag_core::{BackendFactory, BlockBackend, DataBlock, ProtocolConfig};
use tldag_crypto::puzzle;
use tldag_crypto::schnorr::KeyPair;
use tldag_crypto::sha256::sha256;
use tldag_net::envelope::{decode_datagram, encode_message, Kind};
use tldag_sim::NodeId;
use tldag_storage::ShardedDiskFactory;

fn micros(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

/// Re-mines, re-signs, re-roots and re-verifies `blocks`, recording the
/// `crypto.*` metrics. Every re-solved nonce must equal the stored one and
/// every stored signature, puzzle and Merkle root must verify; a mismatch
/// fails the run.
pub fn crypto_replay(cfg: &ProtocolConfig, blocks: &[DataBlock], report: &mut Report) {
    let (mut puzzle_us, mut sign_us, mut merkle_us, mut verify_us) = (0.0, 0.0, 0.0, 0.0);
    let (mut attempts, mut prefix_bytes, mut hashed_bytes) = (0u64, 0u64, 0u64);
    for block in blocks {
        let header = &block.header;
        let prefix = header.puzzle_prefix();
        let started = Instant::now();
        let nonce = puzzle::solve(&prefix, cfg.difficulty_bits, 0);
        puzzle_us += micros(started);
        let tries = puzzle::attempts_used(0, nonce);
        attempts += tries;
        prefix_bytes += prefix.len() as u64;
        hashed_bytes += tries * (prefix.len() as u64 + 4);
        report.check(nonce == header.nonce, || {
            format!(
                "re-solved nonce of {} differs from the stored one",
                block.id
            )
        });

        let keypair = KeyPair::from_seed(u64::from(block.id.owner.0));
        let msg = sha256(&header.presign_bytes());
        let started = Instant::now();
        let signature = keypair.sign(msg.as_bytes());
        sign_us += micros(started);
        std::hint::black_box(signature);

        let started = Instant::now();
        let root = block.body.merkle_root(cfg.merkle_chunk_bytes);
        merkle_us += micros(started);
        report.check(root == header.root, || {
            format!("recomputed Merkle root of {} differs", block.id)
        });

        let started = Instant::now();
        let valid = header.verify_signature(&registered_key(block.id.owner))
            && header.verify_puzzle(cfg.difficulty_bits);
        verify_us += micros(started);
        report.check(valid, || {
            format!("stored signature or puzzle of {} is invalid", block.id)
        });
    }
    let n = blocks.len().max(1) as f64;
    report.set("crypto.puzzle_us_per_block", puzzle_us / n);
    report.set("crypto.puzzle_attempts_per_block", attempts as f64 / n);
    report.set("crypto.puzzle_prefix_bytes", prefix_bytes as f64 / n);
    report.set(
        "crypto.sha256_mb_per_s",
        if puzzle_us > 0.0 {
            hashed_bytes as f64 / puzzle_us
        } else {
            0.0
        },
    );
    report.set("crypto.sign_us_per_block", sign_us / n);
    report.set("crypto.merkle_us_per_block", merkle_us / n);
    report.set("crypto.sig_verify_us", verify_us / n);
}

/// Replays `slots` (one block per node per slot, in slot order) into a
/// fresh single-shard `disk-sharded` log under `dir` with one sync per slot,
/// recording the `storage.*` metrics. Reads back `reads` of the blocks
/// (`(owner, seq)`) and checks they round-trip.
pub fn storage_replay(
    dir: &Path,
    nodes: usize,
    slots: &[Vec<DataBlock>],
    reads: &[(usize, u32)],
    report: &mut Report,
) {
    let mut factory = ShardedDiskFactory::new(dir, 1, nodes);
    let mut backends: Vec<Box<dyn BlockBackend>> = (0..nodes)
        .map(|i| factory.create(NodeId(i as u32)))
        .collect();
    let (mut append_us, mut sync_us, mut appended) = (0.0, 0.0, 0u64);
    for blocks in slots {
        for block in blocks {
            let owner = block.id.owner.index();
            let started = Instant::now();
            let ok = backends[owner].append(block.clone()).is_ok();
            append_us += micros(started);
            appended += 1;
            report.check(ok, || {
                format!("storage replay could not append {}", block.id)
            });
        }
        let started = Instant::now();
        let ok = backends[0].sync().is_ok();
        sync_us += micros(started);
        report.check(ok, || "storage replay sync failed".to_string());
    }
    let mut get_us = 0.0;
    for &(owner, seq) in reads {
        let started = Instant::now();
        let block = backends[owner].get(seq);
        get_us += micros(started);
        let expected = &slots[seq as usize]
            .iter()
            .find(|b| b.id.owner.index() == owner)
            .map(DataBlock::header_digest);
        report.check(block.map(|b| b.header_digest()) == *expected, || {
            format!("storage replay read back a different block for {owner}#{seq}")
        });
    }
    let started = Instant::now();
    let metas: usize = backends.iter().map(|b| b.iter_meta().count()).sum();
    let iter_meta_us = micros(started);
    report.check(metas as u64 == appended, || {
        format!("iter_meta listed {metas} blocks of {appended}")
    });
    let disk_bytes: u64 = factory
        .open_logs()
        .iter()
        .map(|log| log.lock().expect("shard log lock").disk_usage_bytes())
        .sum();
    let slot_count = slots.len().max(1) as f64;
    report.set("storage.append_us", append_us / appended.max(1) as f64);
    report.set("storage.sync_ms", sync_us / 1e3 / slot_count);
    report.set(
        "storage.fsyncs_per_slot",
        factory.total_fsyncs() as f64 / slot_count,
    );
    report.set("storage.get_us", get_us / reads.len().max(1) as f64);
    report.set("storage.iter_meta_us", iter_meta_us / nodes.max(1) as f64);
    report.set(
        "storage.disk_bytes_per_block",
        disk_bytes as f64 / appended.max(1) as f64,
    );
}

/// Zeros for a layer the workload does not run.
pub fn zero(report: &mut Report, prefix: &str) {
    for (name, _) in crate::report::PER_LAYER {
        if name.starts_with(prefix) {
            report.set(name, 0.0);
        }
    }
}

/// Times the envelope codec on the message mix a lockstep PoP run sends:
/// per block one fetch request, the full block, one child request and one
/// child reply. Every message must decode back to its own payload.
pub fn codec_timing(blocks: &[DataBlock], mtu: usize, report: &mut Report) {
    use tldag_core::codec::encode_message as encode_payload;
    use tldag_core::pop::messages::ChildReply;
    let mut payloads = Vec::with_capacity(blocks.len() * 4);
    for block in blocks {
        let from = block.id.owner;
        payloads.push(encode_payload(&WireMessage::FetchBlock {
            from,
            id: block.id,
        }));
        payloads.push(encode_payload(&WireMessage::Block(Box::new(block.clone()))));
        payloads.push(encode_payload(&WireMessage::ReqChild {
            from,
            target: block.header_digest(),
        }));
        payloads.push(encode_payload(&WireMessage::RpyChild(ChildReply {
            claimed_owner: from,
            block_id: block.id,
            header: block.header.clone(),
        })));
    }
    let (mut encode_us, mut decode_us) = (0.0, 0.0);
    for (seq, payload) in payloads.iter().enumerate() {
        let started = Instant::now();
        let frames = encode_message(Kind::Wire, NodeId(0), seq as u64, seq as u64, payload, mtu);
        encode_us += micros(started);
        let Ok(frames) = frames else {
            report.check(false, || "envelope encoding failed".to_string());
            continue;
        };
        let mut joined = Vec::with_capacity(payload.len());
        let started = Instant::now();
        let mut ok = true;
        for frame in &frames {
            match decode_datagram(frame) {
                Ok((_, body)) => joined.extend_from_slice(body),
                Err(_) => ok = false,
            }
        }
        decode_us += micros(started);
        report.check(ok && joined == *payload, || {
            "an encoded envelope did not decode to its payload".to_string()
        });
    }
    let n = payloads.len().max(1) as f64;
    report.set("net.encode_us", encode_us / n);
    report.set("net.decode_us", decode_us / n);
}
