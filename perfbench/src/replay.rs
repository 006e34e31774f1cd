//! Single-thread replays of a workload's operation stream through one
//! layer's public API, timing that layer alone.
//!
//! * `kvproto`: each operation is built and encoded as the v2 client
//!   does, decoded as the server does, answered (lookups as hits), and the
//!   reply decoded as the client does.
//! * `hashcore`: one `Partition`, sized and prefilled like the workload's
//!   table, executes the operations directly.

use std::time::Instant;

use bytes::BytesMut;
use cphash::CpHashConfig;
use cphash_hashcore::{Partition, PartitionConfig};
use cphash_kvproto::{
    encode_hello, encode_op, encode_reply_parts, envelope, ErrCode, OpFrame, ReplyDecoder,
    ServerDecoder, ServerEvent, Status, VERSION_2,
};

use crate::workload::{KeyKind, Keyspace, Op, OpGen, OpKind, Spec};

/// Operations the hashcore replay prepares (untimed) per timed batch.
const HASHCORE_BATCH: usize = 4096;

#[derive(Debug, Clone, Copy, Default)]
pub struct ProtoReplay {
    pub req_bytes_per_op: f64,
    pub reply_bytes_per_op: f64,
    pub encode_ns_per_req: f64,
    pub decode_ns_per_req: f64,
    pub reply_decode_ns_per_op: f64,
}

fn frame_for(ks: &Keyspace, op: Op, value: &mut Vec<u8>) -> OpFrame {
    if op.kind == OpKind::Insert {
        ks.value(op.key, value);
    }
    match (ks.kind(), op.kind) {
        (KeyKind::U64, OpKind::Lookup) => OpFrame::lookup(ks.u64_key(op.key)),
        (KeyKind::U64, OpKind::Insert) => OpFrame::insert(ks.u64_key(op.key), value.as_slice()),
        (KeyKind::U64, OpKind::Delete) => OpFrame::delete(ks.u64_key(op.key)),
        (KeyKind::Bytes, OpKind::Lookup) => OpFrame::lookup_bytes(ks.byte_key(op.key).to_vec()),
        (KeyKind::Bytes, OpKind::Insert) => {
            OpFrame::insert_bytes(ks.byte_key(op.key).to_vec(), value.as_slice())
        }
        (KeyKind::Bytes, OpKind::Delete) => OpFrame::delete_bytes(ks.byte_key(op.key).to_vec()),
    }
}

/// Replay `ops` operations of the stream through the v2 codec.  Decoders
/// are fed one window of frames at a time, the most one socket read can
/// carry from a client that keeps `spec.window` operations in flight.
pub fn kvproto(spec: &Spec, seed: u64, stream: u64, ops: usize) -> ProtoReplay {
    let ks = Keyspace::new(spec, seed);
    let mut gen = OpGen::new(spec, seed, stream);
    let stream: Vec<Op> = (0..ops).map(|_| gen.next_op()).collect();
    let mut value = Vec::with_capacity(1024);

    // Client: build and encode every request.
    let mut wire = BytesMut::with_capacity(ops * 32);
    let mut cuts = vec![0];
    let t = Instant::now();
    for (i, &op) in stream.iter().enumerate() {
        let frame = frame_for(&ks, op, &mut value);
        encode_op(&mut wire, &frame);
        if (i + 1) % spec.window == 0 {
            cuts.push(wire.len());
        }
    }
    let encode_ns = t.elapsed().as_nanos() as f64;
    cuts.push(wire.len());
    let req_bytes = wire.len();

    // Server: decode them, fed in socket-read sized chunks.
    let mut hello = BytesMut::new();
    encode_hello(&mut hello, VERSION_2);
    let mut server = ServerDecoder::new();
    server.feed(&hello);
    let mut decoded = Vec::with_capacity(ops);
    let t = Instant::now();
    for cut in cuts.windows(2) {
        server.feed(&wire[cut[0]..cut[1]]);
        while let Ok(Some(event)) = server.next_event() {
            if let ServerEvent::Op(op) = event {
                decoded.push(op.frame.kind);
            }
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64;
    assert_eq!(decoded.len(), ops, "every replayed request decodes");

    // Replies: lookups answered as hits with the key's value.
    let mut replies = BytesMut::with_capacity(ops * 16);
    let mut reply_cuts = vec![0];
    for (i, &op) in stream.iter().enumerate() {
        let payload: &[u8] = if op.kind == OpKind::Lookup {
            ks.value(op.key, &mut value);
            &value
        } else {
            &[]
        };
        encode_reply_parts(&mut replies, Status::Ok, ErrCode::None, payload);
        if (i + 1) % spec.window == 0 {
            reply_cuts.push(replies.len());
        }
    }
    reply_cuts.push(replies.len());
    let mut client = ReplyDecoder::new();
    let mut replied = 0usize;
    let t = Instant::now();
    for cut in reply_cuts.windows(2) {
        client.feed(&replies[cut[0]..cut[1]]);
        while let Ok(Some(reply)) = client.next_reply() {
            std::hint::black_box(&reply);
            replied += 1;
        }
    }
    let reply_decode_ns = t.elapsed().as_nanos() as f64;
    assert_eq!(replied, ops, "every replayed reply decodes");

    let n = ops as f64;
    ProtoReplay {
        req_bytes_per_op: req_bytes as f64 / n,
        reply_bytes_per_op: replies.len() as f64 / n,
        encode_ns_per_req: encode_ns / n,
        decode_ns_per_req: decode_ns / n,
        reply_decode_ns_per_op: reply_decode_ns / n,
    }
}

/// The key and stored bytes the table holds for key index `i` (byte keys
/// are stored enveloped under their hash).
fn stored(ks: &Keyspace, i: u64, value: &mut Vec<u8>) -> u64 {
    ks.value(i, value);
    match ks.kind() {
        KeyKind::U64 => ks.u64_key(i),
        KeyKind::Bytes => {
            let key = ks.byte_key(i);
            *value = envelope::encode_envelope(&key, value);
            envelope::hash_key(&key)
        }
    }
}

/// Replay `ops` operations of the stream on one prefilled `Partition`;
/// returns nanoseconds per operation.
pub fn hashcore(spec: &Spec, seed: u64, stream: u64, ops: usize) -> f64 {
    let sizing =
        CpHashConfig::new(1, 1).with_capacity(spec.capacity_bytes, spec.typical_value_bytes);
    let mut partition = Partition::new(PartitionConfig::new(
        sizing.buckets_per_partition,
        sizing.partition_capacity(),
    ));
    let ks = Keyspace::new(spec, seed);
    let mut value = Vec::with_capacity(1100);
    for i in (0..spec.prefill_keys).rev() {
        let key = stored(&ks, i, &mut value);
        let _ = partition.insert_copy(key, &value);
    }
    let mut gen = OpGen::new(spec, seed, stream);
    let mut batch: Vec<(OpKind, u64, Vec<u8>)> = Vec::with_capacity(HASHCORE_BATCH);
    let mut out = Vec::with_capacity(1100);
    let mut timed = std::time::Duration::ZERO;
    let mut done = 0;
    while done < ops {
        batch.clear();
        for _ in 0..HASHCORE_BATCH.min(ops - done) {
            let op = gen.next_op();
            let key = stored(&ks, op.key, &mut value);
            let bytes = if op.kind == OpKind::Insert {
                value.clone()
            } else {
                Vec::new()
            };
            batch.push((op.kind, key, bytes));
        }
        let t = Instant::now();
        for (kind, key, bytes) in &batch {
            match kind {
                OpKind::Lookup => {
                    if let Some(hit) = partition.lookup(*key) {
                        partition.read_value(&hit, &mut out);
                        partition.decref(hit.id);
                    }
                }
                OpKind::Insert => {
                    let _ = partition.insert_copy(*key, bytes);
                }
                OpKind::Delete => {
                    partition.delete(*key);
                }
            }
        }
        timed += t.elapsed();
        done += batch.len();
    }
    timed.as_nanos() as f64 / ops as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kvproto_replay_round_trips_every_op() {
        let spec = crate::workload::spec("tcp-write").unwrap();
        let r = kvproto(&spec, 1, 0, 2_000);
        // Header 16 B + 21 B key, plus ~640 B values on half the ops.
        assert!(
            r.req_bytes_per_op > 37.0 && r.req_bytes_per_op < 600.0,
            "{r:?}"
        );
        assert!(r.reply_bytes_per_op >= 8.0);
        assert!(r.encode_ns_per_req > 0.0 && r.reply_decode_ns_per_op > 0.0);
    }

    #[test]
    fn hashcore_replay_runs_on_a_small_table() {
        let mut spec = crate::workload::spec("tcp-hit").unwrap();
        spec.key_count = 1_000;
        spec.prefill_keys = 1_000;
        assert!(hashcore(&spec, 1, 0, 5_000) > 0.0);
    }
}
