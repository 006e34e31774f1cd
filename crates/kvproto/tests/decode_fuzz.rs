//! Property/fuzz tests for every kvproto decoder: arbitrary byte streams —
//! truncated, garbage, version-skewed — fed in arbitrary chunkings must
//! yield `DecodeError` or valid frames, never a panic and never a silent
//! desync (decoding must be deterministic in the bytes, not the chunking).
//!
//! The vendored proptest shim is deterministic (each case seeds its own
//! xorshift stream), so CI runs are reproducible by construction.

use bytes::BytesMut;
use cphash_kvproto::{
    encode_hello, encode_insert, encode_lookup, encode_op, encode_reply, encode_resize_paced,
    OpFrame, Reply, ReplyDecoder, RequestDecoder, ResponseDecoder, ServerDecoder, ServerEvent,
    VERSION_2,
};
use proptest::prelude::*;

/// Feed `bytes` to a fresh server decoder in one gulp, collecting events
/// until exhaustion or error.
fn decode_all(bytes: &[u8]) -> (Vec<ServerEvent>, bool) {
    let mut decoder = ServerDecoder::new();
    decoder.feed(bytes);
    let mut events = Vec::new();
    let errored = decoder.drain(&mut events).is_err();
    (events, errored)
}

/// Feed `bytes` in chunks of `chunk` bytes, collecting the same way.
fn decode_chunked(bytes: &[u8], chunk: usize) -> (Vec<ServerEvent>, bool) {
    let mut decoder = ServerDecoder::new();
    let mut events = Vec::new();
    for piece in bytes.chunks(chunk.max(1)) {
        decoder.feed(piece);
        if decoder.drain(&mut events).is_err() {
            return (events, true);
        }
    }
    (events, false)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512 })]

    /// Pure garbage: any byte soup either errors or waits for more bytes —
    /// and chunking never changes the outcome. (Catches panics from
    /// out-of-bounds slicing, overflow on length fields, etc.)
    #[test]
    fn garbage_never_panics_and_chunking_is_invisible(
        args in (prop::collection::vec(any::<u8>(), 0..512), 1usize..64),
    ) {
        let (bytes, chunk) = args;
        let (whole, whole_err) = decode_all(&bytes);
        let (pieces, pieces_err) = decode_chunked(&bytes, chunk);
        prop_assert_eq!(whole_err, pieces_err);
        prop_assert_eq!(whole, pieces);

        // Client-side decoders must hold the same bar.
        let mut reply = ReplyDecoder::new();
        reply.feed(&bytes);
        while let Ok(Some(_)) = reply.next_reply() {}
        let mut v1req = RequestDecoder::new();
        v1req.feed(&bytes);
        let mut sink = Vec::new();
        let _ = v1req.drain(&mut sink);
        let mut v1resp = ResponseDecoder::new();
        v1resp.feed(&bytes);
        while let Ok(Some(_)) = v1resp.next_response() {}
    }

    /// Valid streams (v1 and v2, mixed op shapes) decode to exactly the
    /// frames that were encoded, under any chunking, with garbage appended
    /// after a truncation point never reinterpreted as a frame boundary.
    #[test]
    fn valid_streams_round_trip_then_truncate_cleanly(
        args in (
            1u8..5,
            prop::collection::vec((any::<bool>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..48)), 1..12),
            1usize..48,
            0usize..16,
        ),
    ) {
        let (hello_version, keys, chunk, cut_back) = args;
        // Build a valid v2 session: hello + a mix of typed ops.
        let mut wire = BytesMut::new();
        encode_hello(&mut wire, hello_version);
        let mut expected = vec![ServerEvent::Hello { requested: hello_version }];
        for (i, (byte_key, key, value)) in keys.iter().enumerate() {
            let frame = match (i % 4, byte_key) {
                (0, false) => OpFrame::lookup(*key),
                (0, true) => OpFrame::lookup_bytes(key.to_le_bytes().to_vec()),
                (1, false) => OpFrame::insert(*key, value.clone()),
                (1, true) => OpFrame::insert_bytes(key.to_le_bytes().to_vec(), value.clone()),
                (2, false) => OpFrame::delete(*key),
                (2, true) => OpFrame::delete_bytes(key.to_le_bytes().to_vec()),
                _ => OpFrame::resize_paced(*key % 64, (*key >> 32) as u32),
            };
            encode_op(&mut wire, &frame);
            expected.push(ServerEvent::Op(cphash_kvproto::ServerOp {
                frame,
                wants_response: true,
            }));
        }

        let (events, errored) = decode_chunked(&wire, chunk);
        prop_assert!(!errored, "a valid stream must not error");
        prop_assert_eq!(&events, &expected);

        // Truncate the tail: decoding must yield a prefix of the expected
        // events and no error (incomplete ≠ invalid).
        let cut = wire.len().saturating_sub(cut_back % wire.len().max(1));
        let (truncated, errored) = decode_chunked(&wire[..cut], chunk);
        prop_assert!(!errored);
        prop_assert!(truncated.len() <= expected.len());
        prop_assert_eq!(&truncated[..], &expected[..truncated.len()]);
    }

    /// v1 framing holds the same properties through the same decoder.
    #[test]
    fn v1_streams_round_trip_under_chunking(
        args in (
            prop::collection::vec((0u8..3, any::<u64>(), prop::collection::vec(any::<u8>(), 0..32)), 1..12),
            1usize..32,
        ),
    ) {
        let (ops, chunk) = args;
        let mut wire = BytesMut::new();
        let mut expected = Vec::new();
        for (kind, key, value) in &ops {
            match kind {
                0 => {
                    encode_lookup(&mut wire, *key);
                    expected.push(ServerEvent::Op(cphash_kvproto::ServerOp {
                        frame: OpFrame::lookup(*key),
                        wants_response: true,
                    }));
                }
                1 => {
                    encode_insert(&mut wire, *key, value);
                    expected.push(ServerEvent::Op(cphash_kvproto::ServerOp {
                        frame: OpFrame::insert(*key, value.clone()),
                        wants_response: false,
                    }));
                }
                _ => {
                    encode_resize_paced(&mut wire, *key & 0xFFFF, (*key >> 32) as u32);
                    expected.push(ServerEvent::Op(cphash_kvproto::ServerOp {
                        frame: OpFrame::resize_paced(*key & 0xFFFF, (*key >> 32) as u32),
                        wants_response: true,
                    }));
                }
            }
        }
        let (events, errored) = decode_chunked(&wire, chunk);
        prop_assert!(!errored);
        prop_assert_eq!(&events, &expected);
    }

    /// Version-skewed and bit-flipped streams: corrupting one byte of a
    /// valid stream must produce either a clean error, the original
    /// decoding, or a different-but-valid decoding — never a panic. (The
    /// decoder cannot detect every corruption — lengths and key bytes are
    /// data — but it must stay memory-safe and deterministic.)
    #[test]
    fn bit_flips_never_panic(
        args in (
            0usize..256,
            0u8..8,
            prop::collection::vec(any::<u64>(), 1..8),
            1usize..32,
        ),
    ) {
        let (flip_at, flip_bit, keys, chunk) = args;
        let mut wire = BytesMut::new();
        encode_hello(&mut wire, VERSION_2);
        for key in &keys {
            encode_op(&mut wire, &OpFrame::insert_bytes(key.to_le_bytes().to_vec(), key.to_le_bytes().to_vec()));
        }
        let mut bytes = wire.to_vec();
        let at = flip_at % bytes.len();
        bytes[at] ^= 1 << flip_bit;
        // Both gulped and chunked decoding agree and terminate.
        let (whole, whole_err) = decode_all(&bytes);
        let (pieces, pieces_err) = decode_chunked(&bytes, chunk);
        prop_assert_eq!(whole_err, pieces_err);
        prop_assert_eq!(whole, pieces);
    }

    /// Reply streams: round trip + bit-flip safety for the client decoder.
    #[test]
    fn reply_streams_round_trip_and_survive_flips(
        args in (
            prop::collection::vec(prop::option::of(prop::collection::vec(any::<u8>(), 0..32)), 1..8),
            prop::option::of((0usize..128, 0u8..8)),
            1usize..16,
        ),
    ) {
        let (values, flip, chunk) = args;
        let mut wire = BytesMut::new();
        let mut expected = Vec::new();
        for v in &values {
            let reply = match v {
                Some(bytes) => Reply::ok_value(bytes.clone()),
                None => Reply::miss(),
            };
            encode_reply(&mut wire, &reply);
            expected.push(reply);
        }
        let mut bytes = wire.to_vec();
        if let Some((at, bit)) = flip {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        let mut decoder = ReplyDecoder::new();
        let mut decoded = Vec::new();
        let mut errored = false;
        for piece in bytes.chunks(chunk) {
            decoder.feed(piece);
            loop {
                match decoder.next_reply() {
                    Ok(Some(r)) => decoded.push(r),
                    Ok(None) => break,
                    Err(_) => {
                        errored = true;
                        break;
                    }
                }
            }
            if errored {
                break;
            }
        }
        if flip.is_none() {
            prop_assert!(!errored);
            prop_assert_eq!(decoded, expected);
        }
        // With a flip: no panic is the property; outcomes may differ.
    }
}

/// One read holding 20 000 frames decodes in time linear in its size:
/// consuming a frame moves the decoder's read cursor instead of shifting
/// every byte still buffered behind it.
#[test]
fn one_large_feed_of_v2_frames_decodes_completely() {
    const FRAMES: u64 = 20_000;
    let mut wire = BytesMut::new();
    encode_hello(&mut wire, VERSION_2);
    let mut expected = vec![ServerEvent::Hello {
        requested: VERSION_2,
    }];
    for i in 0..FRAMES {
        let frame = match i % 3 {
            0 => OpFrame::lookup(i),
            1 => OpFrame::insert_bytes(i.to_le_bytes().to_vec(), vec![i as u8; (i % 64) as usize]),
            _ => OpFrame::delete(i),
        };
        encode_op(&mut wire, &frame);
        expected.push(ServerEvent::Op(cphash_kvproto::ServerOp {
            frame,
            wants_response: true,
        }));
    }
    let (events, errored) = decode_all(&wire);
    assert!(!errored);
    assert_eq!(events.len(), FRAMES as usize + 1);
    assert_eq!(events, expected);

    // The client side: the same number of replies in one feed.
    let mut replies = BytesMut::new();
    for i in 0..FRAMES {
        encode_reply(&mut replies, &Reply::ok_value(i.to_le_bytes().to_vec()));
    }
    let mut decoder = ReplyDecoder::new();
    decoder.feed(&replies);
    let mut decoded = 0u64;
    while let Some(reply) = decoder.next_reply().expect("valid replies") {
        assert_eq!(reply.value, decoded.to_le_bytes());
        decoded += 1;
    }
    assert_eq!(decoded, FRAMES);
    assert_eq!(decoder.buffered(), 0);
}
