//! The synchronous serve loop shared by LOCKSERVER and the memcached-style
//! instances.
//!
//! Both servers have the same shape — "first acquiring the lock for the
//! appropriate partition, then performing the query, updating the LRU list
//! and, finally, releasing the lock" (§4.2), no batching, no hand-off to
//! other threads — and differ only in the store they call, which is what
//! [`SyncStore`] abstracts.

use cphash_sync::atomic::plain::{AtomicBool, Ordering};
use std::time::Duration;

use cphash_kvproto::{envelope, ErrCode, OpKind, Reply, ServerOp, Status};

use crate::acceptor::FrontDoor;
use crate::connection::{settle, Connection, Settle};
use crate::metrics::ServerMetrics;
use crate::reactor::Reactor;

/// A table a synchronous worker executes requests on directly.  Each call
/// is one operation under whatever lock the store takes.
pub(crate) trait SyncStore {
    /// The server's name in the resize refusal.
    const NAME: &'static str;

    /// Copy the value stored under `key` into `out`; false on a miss.
    fn lookup(&self, key: u64, out: &mut Vec<u8>) -> bool;

    /// Store `value` under `key`; false when the store cannot make room.
    fn insert(&self, key: u64, value: &[u8]) -> bool;

    /// Remove `key`; false when it was absent.
    fn delete(&self, key: u64) -> bool;
}

/// One synchronous worker: waits for readiness on its front door and its
/// connections, executes every decoded request directly against `store`,
/// and flushes the replies.
///
/// Replies are produced inline, so the worker can always sleep in the
/// reactor between events; back-logged output is watched via write
/// interest.  While the previous pass served anything the reactor is
/// polled without blocking, so the busy-poll backend's idle back-off resets
/// under load.
pub(crate) fn serve_sync<S: SyncStore>(
    store: &S,
    mut door: FrontDoor,
    mut reactor: Reactor,
    stop: &AtomicBool,
    metrics: &ServerMetrics,
) {
    let mut connections: Vec<Option<Connection>> = Vec::new();
    let mut requests = Vec::with_capacity(256);
    let mut value_buf = Vec::with_capacity(256);
    let mut ready: Vec<usize> = Vec::with_capacity(256);
    let mut did_work = false;

    // relaxed: stop flag; shutdown needs no ordering
    while !stop.load(Ordering::Relaxed) {
        ready.clear();
        let timeout = (!did_work).then(|| Duration::from_millis(25));
        let _ = reactor.wait(&mut ready, timeout);
        did_work = door.admit(
            &mut reactor,
            &mut ready,
            &mut connections,
            metrics,
            Connection::new,
            |c| c,
        );

        for &token in ready.iter() {
            // The door's own tokens index no slot.
            let Some(conn) = connections.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            requests.clear();
            let read = conn.poll_requests(&mut requests);
            metrics.note_io(read, 0);
            did_work |= !requests.is_empty();
            for request in requests.drain(..) {
                execute(store, conn, request, &mut value_buf, metrics);
            }
            let (written, verdict) = settle(conn, &mut reactor, token);
            metrics.note_io(0, written);
            if verdict == Settle::Retired {
                connections[token] = None;
                door.retire();
            }
        }
    }
}

/// Run one request against `store` and queue its reply on `conn`.
fn execute<S: SyncStore>(
    store: &S,
    conn: &mut Connection,
    request: ServerOp,
    value_buf: &mut Vec<u8>,
    metrics: &ServerMetrics,
) {
    let wants_response = request.wants_response;
    let cphash_kvproto::OpFrame { kind, key, value } = request.frame;
    match kind {
        OpKind::Lookup => {
            // Byte keys store §8.2 envelopes: verify the stored key and
            // read collisions as misses.  Hit values encode straight from
            // the lookup buffer.
            let verified = if store.lookup(key.hash(), value_buf) {
                envelope::verify_stored(&key, value_buf)
            } else {
                None
            };
            metrics.note_lookup(verified.is_some());
            match verified {
                Some(v) => conn.queue_reply_parts(Status::Ok, ErrCode::None, v),
                None => conn.queue_reply(&Reply::miss()),
            }
        }
        OpKind::Insert => {
            let (hash, stored) = envelope::stored_form(&key, &value);
            // The envelope may push a near-limit value past MAX_VALUE_BYTES;
            // storing it would later produce replies no client decoder
            // accepts.
            let ok = stored.len() <= cphash_kvproto::MAX_VALUE_BYTES && store.insert(hash, &stored);
            metrics.note_insert();
            if wants_response {
                conn.queue_reply(&if ok {
                    Reply::ok()
                } else {
                    Reply::err(ErrCode::Capacity, b"ERR table out of capacity".to_vec())
                });
            }
        }
        OpKind::Delete => {
            let found = store.delete(key.hash());
            metrics.note_delete();
            if wants_response {
                conn.queue_reply(&if found { Reply::ok() } else { Reply::miss() });
            }
        }
        OpKind::Resize => {
            // The partition count is fixed; report the unsupported admin
            // command instead of hanging the client's ordered reply stream.
            let message = format!("ERR resize unsupported on {}", S::NAME);
            conn.queue_reply_parts(Status::Err, ErrCode::Unsupported, message.as_bytes());
        }
        OpKind::Stats => {
            // v2-only admin op: the reply value is the full metrics
            // snapshot in Prometheus text format.  Store methods hold their
            // lock for one operation only, so rendering (which samples
            // every store's counters) never runs under one.
            metrics.note_stats();
            let text = metrics.render_prometheus();
            conn.queue_reply_parts(Status::Ok, ErrCode::None, text.as_bytes());
        }
    }
}
