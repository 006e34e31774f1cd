//! `RemoteClient`'s send rule, observed from the server side of a raw
//! socket: a request submitted on an idle connection is written at once;
//! requests submitted while replies are outstanding wait for the next
//! `poll_completions` (or a full outgoing buffer) and leave together; v1
//! fire-and-forget inserts are written at submit.
//!
//! The "server" here is a bare `TcpListener` that does the v2 handshake by
//! hand, so the test sees exactly which bytes are on the wire and when.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use bytes::BytesMut;
use cphash_suite::kvproto::{
    encode_hello, encode_reply, OpFrame, Reply, ServerDecoder, ServerEvent, VERSION_2,
};
use cphash_suite::{Completion, CompletionKind, KeyRef, KvClient, KvOp, RemoteClient};

/// How long to wait for bytes that must arrive.
const ARRIVAL_TIMEOUT: Duration = Duration::from_secs(10);
/// How long to watch for bytes that must not arrive.  A loopback write is
/// readable as soon as `write` returns, so this only absorbs scheduling.
const QUIET_WINDOW: Duration = Duration::from_millis(150);

/// The server side of one accepted connection.
struct RawServer {
    stream: TcpStream,
    decoder: ServerDecoder,
}

impl RawServer {
    /// Accept one connection.  With `handshake`, read the client's HELLO
    /// and acknowledge v2, as a v2 server does.
    fn accept(listener: &TcpListener, handshake: bool) -> RawServer {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        let mut server = RawServer {
            stream,
            decoder: ServerDecoder::new(),
        };
        if handshake {
            let event = server.next_event(ARRIVAL_TIMEOUT).expect("client HELLO");
            assert_eq!(
                event,
                ServerEvent::Hello {
                    requested: VERSION_2
                }
            );
            let mut ack = BytesMut::new();
            encode_hello(&mut ack, VERSION_2);
            server.stream.write_all(&ack).expect("write HELLO-ACK");
        }
        server
    }

    /// The next decoded event, or `None` if none completes within `wait`.
    fn next_event(&mut self, wait: Duration) -> Option<ServerEvent> {
        self.stream
            .set_read_timeout(Some(wait))
            .expect("read timeout");
        let mut buf = [0u8; 4096];
        loop {
            if let Some(event) = self.decoder.next_event().expect("valid frames") {
                return Some(event);
            }
            match self.stream.read(&mut buf) {
                Ok(0) => panic!("client closed the connection"),
                Ok(n) => self.decoder.feed(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return None
                }
                Err(e) => panic!("server read failed: {e}"),
            }
        }
    }

    /// The next request's frame, which must arrive.
    fn expect_op(&mut self) -> OpFrame {
        match self.next_event(ARRIVAL_TIMEOUT) {
            Some(ServerEvent::Op(op)) => op.frame,
            other => panic!("expected a request on the wire, got {other:?}"),
        }
    }

    /// Assert that no request bytes are on the wire.
    fn expect_quiet(&mut self, what: &str) {
        if let Some(event) = self.next_event(QUIET_WINDOW) {
            panic!("{what}: {event:?} was on the wire before a poll");
        }
        assert_eq!(
            self.decoder.buffered(),
            0,
            "{what}: partial frame on the wire"
        );
    }

    fn reply(&mut self, replies: &[Reply]) {
        let mut wire = BytesMut::new();
        for reply in replies {
            encode_reply(&mut wire, reply);
        }
        self.stream.write_all(&wire).expect("write replies");
    }
}

/// Connect `RemoteClient` (capped at `max_version`) to a raw server.
fn connect(max_version: u8) -> (RemoteClient, RawServer) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handshake = max_version >= VERSION_2;
    let server = std::thread::spawn(move || RawServer::accept(&listener, handshake));
    let client = RemoteClient::connect_capped(addr, max_version).expect("connect");
    let server = server.join().expect("server thread");
    assert_eq!(client.protocol_version(), max_version);
    (client, server)
}

/// Poll until `n` completions arrive.
fn collect(client: &mut RemoteClient, n: usize) -> Vec<Completion> {
    let mut out = Vec::new();
    let deadline = std::time::Instant::now() + ARRIVAL_TIMEOUT;
    while out.len() < n {
        assert!(client.is_alive(), "client connection died");
        assert!(
            std::time::Instant::now() < deadline,
            "completions timed out"
        );
        if client.poll_completions(&mut out) == 0 {
            std::thread::yield_now();
        }
    }
    out
}

#[test]
fn idle_submit_is_sent_at_once_and_busy_submits_wait_for_the_poll() {
    let (mut client, mut server) = connect(VERSION_2);

    // Idle connection: the request is on the wire without any poll.
    let first = client.submit(KvOp::Get(KeyRef::Hash(1)));
    assert_eq!(server.expect_op(), OpFrame::lookup(1));

    // A reply is outstanding, so these two are batched client-side.
    let second = client.submit(KvOp::Get(KeyRef::Hash(2)));
    let third = client.submit(KvOp::Insert(KeyRef::Hash(3), b"three"));
    server.expect_quiet("busy submits");

    // The poll flushes both, in order.
    let mut out = Vec::new();
    client.poll_completions(&mut out);
    assert!(out.is_empty(), "no reply has been sent yet");
    assert_eq!(server.expect_op(), OpFrame::lookup(2));
    assert_eq!(server.expect_op(), OpFrame::insert(3, b"three".to_vec()));

    server.reply(&[Reply::ok_value(b"one".to_vec()), Reply::miss(), Reply::ok()]);
    let done = collect(&mut client, 3);
    let kinds: Vec<(u64, CompletionKind)> = done.into_iter().map(|c| (c.token, c.kind)).collect();
    assert_eq!(kinds.len(), 3);
    assert_eq!(kinds[0].0, first);
    assert!(matches!(&kinds[0].1, CompletionKind::LookupHit(v) if v.as_slice() == b"one"));
    assert_eq!(kinds[1], (second, CompletionKind::LookupMiss));
    assert_eq!(kinds[2], (third, CompletionKind::Inserted));

    // Every reply is in, so the connection is idle again: sent at once.
    client.submit(KvOp::Get(KeyRef::Hash(4)));
    assert_eq!(server.expect_op(), OpFrame::lookup(4));
}

#[test]
fn a_full_outgoing_buffer_is_sent_without_a_poll() {
    let (mut client, mut server) = connect(VERSION_2);
    client.submit(KvOp::Get(KeyRef::Hash(1)));
    assert_eq!(server.expect_op(), OpFrame::lookup(1));

    // 1 KiB values: the 16th queued insert takes the buffer past 16 KiB.
    let value = vec![7u8; 1024];
    for key in 0..15 {
        client.submit(KvOp::Insert(KeyRef::Hash(100 + key), &value));
    }
    server.expect_quiet("15 KiB queued");
    client.submit(KvOp::Insert(KeyRef::Hash(115), &value));
    for key in 0..16 {
        assert_eq!(
            server.expect_op(),
            OpFrame::insert(100 + key, value.clone())
        );
    }
}

#[test]
fn v1_inserts_are_sent_at_submit() {
    let (mut client, mut server) = connect(1);
    client.submit(KvOp::Get(KeyRef::Hash(1)));
    assert_eq!(server.expect_op(), OpFrame::lookup(1));

    // A lookup reply is outstanding, yet the fire-and-forget insert (which
    // completes without a reply) goes out at submit.
    let insert = client.submit(KvOp::Insert(KeyRef::Hash(2), b"two"));
    assert_eq!(server.expect_op(), OpFrame::insert(2, b"two".to_vec()));
    let mut out = Vec::new();
    client.poll_completions(&mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].token, insert);
    assert_eq!(out[0].kind, CompletionKind::Inserted);
}
