//! Connection acceptance: every worker's front door.
//!
//! "The CPSERVER also has an additional thread that accepts new connections.
//! When a connection is made, it is assigned to a client thread with the
//! smallest number of current active connections." (§4.1)
//!
//! That single acceptor serializes every accept: under a connection-churn
//! storm one thread (and one listen queue) throttles the whole server.  On
//! Linux with an IPv4 bind, every worker therefore binds its own
//! `SO_REUSEPORT` listener on the same address and the kernel load-balances
//! incoming connections across them — no hand-off thread, no cross-thread
//! wake-up, and with the io_uring front-end the accept itself happens
//! in-kernel (multishot accept).  Where that listener set cannot be built
//! (non-Linux hosts, non-IPv4 binds), `open_front_doors` falls back to the
//! paper's least-loaded acceptor thread on its own; nothing selects it.
//!
//! The acceptor's hand-off is event-aware: each worker slot carries a
//! [`Waker`], so a worker sleeping in its reactor's `epoll_wait` is woken
//! the moment a connection is assigned to it instead of discovering it on a
//! poll tick.
//!
//! Either way a worker sees one `FrontDoor`: it registers the worker's
//! listener or waker, and adopts whatever arrived into the worker's
//! connection slab.

use cphash_sync::atomic::plain::{AtomicBool, AtomicUsize, Ordering};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::connection::{adopt, Connection};
use crate::metrics::{FrontendStats, ServerMetrics};
use crate::reactor::{raw_fd_of, FrontendKind, Reactor, Waker, LISTENER_TOKEN, WAKER_TOKEN};

/// Build one non-blocking `SO_REUSEPORT` listener per shard, all bound to
/// `bind` (port 0 picks a port on the first listener; the rest join it).
/// Returns the resolved address plus the listener set, or an error where
/// reuseport sharding is unavailable (non-Linux, non-IPv4 bind) —
/// `open_front_doors` then falls back to [`spawn_acceptor`].
pub fn shard_listeners(
    bind: SocketAddr,
    shards: usize,
) -> io::Result<(SocketAddr, Vec<TcpListener>)> {
    assert!(shards > 0, "need at least one shard");
    #[cfg(target_os = "linux")]
    {
        let SocketAddr::V4(v4) = bind else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "reuseport sharding requires an IPv4 bind address",
            ));
        };
        let first = reuseport_listener(*v4.ip(), v4.port())?;
        let addr = first.local_addr()?;
        let SocketAddr::V4(resolved) = addr else {
            unreachable!("IPv4 socket reports an IPv4 local address");
        };
        let mut listeners = Vec::with_capacity(shards);
        listeners.push(first);
        for _ in 1..shards {
            listeners.push(reuseport_listener(*resolved.ip(), resolved.port())?);
        }
        for listener in &listeners {
            listener.set_nonblocking(true)?;
        }
        Ok((addr, listeners))
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = bind;
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "reuseport sharding is Linux-only",
        ))
    }
}

/// One `SO_REUSEPORT` (+`SO_REUSEADDR`) listener, built below std because
/// the option must be set *before* `bind`.
#[cfg(target_os = "linux")]
fn reuseport_listener(ip: std::net::Ipv4Addr, port: u16) -> io::Result<TcpListener> {
    use std::os::fd::FromRawFd;

    // SAFETY: raw socket-setup calls on a freshly created, owned fd; the
    // sockaddr_in is a valid 16-byte POD and every failure path closes the
    // fd before returning.
    unsafe {
        let fd = libc::socket(libc::AF_INET, libc::SOCK_STREAM | libc::SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let close_on = |fd: i32, err: io::Error| {
            libc::close(fd);
            Err(err)
        };
        let one: libc::c_int = 1;
        for opt in [libc::SO_REUSEADDR, libc::SO_REUSEPORT] {
            let rc = libc::setsockopt(
                fd,
                libc::SOL_SOCKET,
                opt,
                (&one as *const libc::c_int).cast(),
                core::mem::size_of::<libc::c_int>() as libc::socklen_t,
            );
            if rc != 0 {
                return close_on(fd, io::Error::last_os_error());
            }
        }
        let addr = libc::sockaddr_in {
            sin_family: libc::AF_INET as u16,
            sin_port: port.to_be(),
            sin_addr: u32::from(ip).to_be(),
            sin_zero: [0; 8],
        };
        if libc::bind(
            fd,
            (&addr as *const libc::sockaddr_in).cast(),
            core::mem::size_of::<libc::sockaddr_in>() as libc::socklen_t,
        ) != 0
        {
            return close_on(fd, io::Error::last_os_error());
        }
        if libc::listen(fd, 1024) != 0 {
            return close_on(fd, io::Error::last_os_error());
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

/// Collect every connection currently acceptable on a worker-owned
/// listener: from the reactor's in-kernel accept queue when the backend
/// owns accepting (io_uring multishot accept), otherwise via non-blocking
/// `accept(2)` until `WouldBlock`.
fn drain_accepts(listener: &TcpListener, reactor: &mut Reactor, out: &mut Vec<TcpStream>) {
    #[cfg(unix)]
    {
        let mut fds: Vec<crate::reactor::RawFd> = Vec::new();
        if reactor.take_accepted(LISTENER_TOKEN, &mut fds) {
            for fd in fds {
                // SAFETY: the backend accepted this fd in-kernel and hands
                // ownership over exactly once, here.
                out.push(unsafe {
                    use std::os::fd::FromRawFd;
                    TcpStream::from_raw_fd(fd)
                });
            }
            return;
        }
    }
    #[cfg(not(unix))]
    let _ = reactor;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => out.push(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => {
                // Persistent accept errors (EMFILE under a connection
                // storm) keep the listener level-ready; back off briefly
                // so the worker does not hot-spin accept→fail.
                std::thread::sleep(Duration::from_millis(1));
                break;
            }
        }
    }
}

/// The acceptor's handle to one worker: where to send new connections and
/// how loaded that worker currently is.
pub struct WorkerSlot {
    /// Channel delivering accepted streams to the worker.
    pub sender: Sender<TcpStream>,
    /// Number of connections the worker currently services; the worker
    /// decrements it when a connection closes.
    pub active: Arc<AtomicUsize>,
    /// Wakes the worker's reactor after a hand-off.
    pub waker: Waker,
}

/// Receiving side handed to each worker thread.
pub struct WorkerInbox {
    /// New connections assigned to this worker.
    pub receiver: Receiver<TcpStream>,
    /// Shared active-connection counter (decrement on close).
    pub active: Arc<AtomicUsize>,
    /// The worker's waker; register its fd under
    /// [`crate::reactor::WAKER_TOKEN`] and drain it on wake-up.
    pub waker: Waker,
}

/// Create `workers` connected slot/inbox pairs whose wakers match the
/// chosen front-end.
pub fn worker_channels(
    workers: usize,
    frontend: FrontendKind,
) -> (Vec<WorkerSlot>, Vec<WorkerInbox>) {
    let mut slots = Vec::with_capacity(workers);
    let mut inboxes = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (sender, receiver) = std::sync::mpsc::channel();
        let active = Arc::new(AtomicUsize::new(0));
        let waker = Waker::new(frontend);
        slots.push(WorkerSlot {
            sender,
            active: Arc::clone(&active),
            waker: waker.clone(),
        });
        inboxes.push(WorkerInbox {
            receiver,
            active,
            waker,
        });
    }
    (slots, inboxes)
}

/// Pick the least-loaded worker.
pub fn least_loaded(slots: &[WorkerSlot]) -> usize {
    slots
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| s.active.load(Ordering::Relaxed)) // relaxed: load-balance gauge; staleness is benign
        .map(|(i, _)| i)
        .expect("at least one worker")
}

/// Spawn the acceptor thread.  Returns the bound address and the thread's
/// join handle; the thread exits when `stop` is raised.
pub fn spawn_acceptor(
    listener: TcpListener,
    slots: Vec<WorkerSlot>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let handle = std::thread::Builder::new()
        .name("kv-acceptor".to_string())
        .spawn(move || {
            // relaxed: stop flag; shutdown needs no ordering
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let target = least_loaded(&slots);
                        slots[target].active.fetch_add(1, Ordering::Relaxed); // relaxed: load-balance gauge; staleness is benign
                                                                              // If the worker is gone the server is shutting down;
                                                                              // dropping the stream closes the connection.
                        if slots[target].sender.send(stream).is_ok() {
                            slots[target].waker.wake();
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        })
        .expect("spawning the acceptor thread");
    Ok((addr, handle))
}

/// Where one worker's new connections come from.
enum Source {
    /// The worker's own listener (sharded `SO_REUSEPORT`, or a memcached
    /// instance's port).
    Listener(TcpListener),
    /// Hand-offs from the acceptor thread.
    Inbox(WorkerInbox),
}

/// A worker's front door: what it accepts from, plus the buffer accepted
/// streams pass through on their way into the worker's connection slab.
pub(crate) struct FrontDoor {
    source: Source,
    accepted: Vec<TcpStream>,
}

impl FrontDoor {
    fn new(source: Source) -> FrontDoor {
        FrontDoor {
            source,
            accepted: Vec::new(),
        }
    }

    /// A door onto the worker's own listener.
    pub(crate) fn listener(listener: TcpListener) -> FrontDoor {
        FrontDoor::new(Source::Listener(listener))
    }

    /// Build the worker's reactor with this door watched on it: the
    /// listener under [`LISTENER_TOKEN`] (the io_uring backend then accepts
    /// in-kernel), or the inbox's waker under [`WAKER_TOKEN`].  An
    /// unwatched listener would still get its share of connections from
    /// the kernel and leave them hanging, so a failed registration is the
    /// caller's start-up error.
    pub(crate) fn reactor(
        &self,
        frontend: FrontendKind,
        stats: Arc<FrontendStats>,
    ) -> io::Result<Reactor> {
        let mut reactor = Reactor::new(frontend, stats);
        match &self.source {
            Source::Listener(l) => reactor.register_listener(raw_fd_of(l), LISTENER_TOKEN)?,
            Source::Inbox(inbox) => {
                if let Some(fd) = inbox.waker.fd() {
                    reactor.register(fd, WAKER_TOKEN, false)?;
                }
            }
        }
        Ok(reactor)
    }

    /// Adopt every connection waiting at the door into `slab` (see
    /// [`adopt`]), pushing the new tokens onto `ready` so bytes that
    /// arrived before registration are served this pass.  `open` wraps an
    /// accepted stream in the slab's element type, `conn_of` projects it
    /// back to its [`Connection`].  Returns whether anything was adopted.
    pub(crate) fn admit<T>(
        &mut self,
        reactor: &mut Reactor,
        ready: &mut Vec<usize>,
        slab: &mut Vec<Option<T>>,
        metrics: &ServerMetrics,
        open: impl Fn(TcpStream) -> io::Result<T>,
        conn_of: impl Fn(&T) -> &Connection,
    ) -> bool {
        let mut accepted = std::mem::take(&mut self.accepted);
        match &self.source {
            Source::Listener(l) => {
                if ready.contains(&LISTENER_TOKEN) {
                    drain_accepts(l, reactor, &mut accepted);
                }
            }
            Source::Inbox(inbox) => {
                // The waker must be drained *before* the channel is polled:
                // drained after, a hand-off landing between the two steps
                // would have its wake-up consumed and sit unadopted through
                // the next sleep.  The channel itself is checked every pass.
                if ready.contains(&WAKER_TOKEN) {
                    inbox.waker.drain();
                }
                accepted.extend(inbox.receiver.try_iter());
            }
        }
        let mut adopted_any = false;
        for stream in accepted.drain(..) {
            if open(stream).is_ok_and(|item| adopt(slab, reactor, ready, item, &conn_of)) {
                metrics.note_connection();
                adopted_any = true;
            } else {
                self.retire();
            }
        }
        self.accepted = accepted;
        adopted_any
    }

    /// A connection that came through this door is gone: give its share of
    /// the acceptor's load-balance gauge back.
    pub(crate) fn retire(&self) {
        if let Source::Inbox(inbox) = &self.source {
            inbox.active.fetch_sub(1, Ordering::Relaxed); // relaxed: load-balance gauge; staleness is benign
        }
    }
}

/// A worker's front door and the reactor already watching it.
pub(crate) type WatchedDoor = (FrontDoor, Reactor);

/// Open one front door per worker on `bind`, each with the worker's
/// reactor already watching it: a sharded `SO_REUSEPORT` listener per
/// worker, or — only where [`shard_listeners`] cannot build that set
/// (non-Linux, non-IPv4 bind) — inboxes fed by the paper's least-loaded
/// acceptor thread, which exits once `stop` is raised.  Returns the bound
/// address, the doors in worker order and the acceptor's join handle when
/// one runs.  Every fallible step happens before the acceptor spawns, so an
/// error leaves no thread behind.
pub(crate) fn open_front_doors(
    bind: SocketAddr,
    workers: usize,
    frontend: FrontendKind,
    stats: &Arc<FrontendStats>,
    stop: &Arc<AtomicBool>,
) -> io::Result<(SocketAddr, Vec<WatchedDoor>, Option<JoinHandle<()>>)> {
    let watched = |source| {
        let door = FrontDoor::new(source);
        let reactor = door.reactor(frontend, Arc::clone(stats))?;
        Ok((door, reactor))
    };
    if let Ok((addr, listeners)) = shard_listeners(bind, workers) {
        let doors = listeners.into_iter().map(Source::Listener).map(watched);
        return Ok((addr, doors.collect::<io::Result<_>>()?, None));
    }
    let listener = TcpListener::bind(bind)?;
    let (slots, inboxes) = worker_channels(workers, frontend);
    let doors = inboxes.into_iter().map(Source::Inbox).map(watched);
    let doors = doors.collect::<io::Result<_>>()?;
    let (addr, acceptor) = spawn_acceptor(listener, slots, Arc::clone(stop))?;
    Ok((addr, doors, Some(acceptor)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    #[test]
    fn least_loaded_picks_the_emptiest_worker() {
        let (slots, _inboxes) = worker_channels(3, FrontendKind::Poll);
        slots[0].active.store(5, Ordering::Relaxed);
        slots[1].active.store(2, Ordering::Relaxed);
        slots[2].active.store(9, Ordering::Relaxed);
        assert_eq!(least_loaded(&slots), 1);
    }

    #[test]
    fn acceptor_balances_connections_across_workers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (slots, inboxes) = worker_channels(2, FrontendKind::from_env());
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, handle) = spawn_acceptor(listener, slots, Arc::clone(&stop)).unwrap();

        // Open four connections; with least-connections balancing and no
        // closes, each worker ends up with two.
        let _conns: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3);
        let mut received = [0usize; 2];
        while received.iter().sum::<usize>() < 4 && std::time::Instant::now() < deadline {
            for (i, inbox) in inboxes.iter().enumerate() {
                while inbox.receiver.try_recv().is_ok() {
                    received[i] += 1;
                }
            }
        }
        assert_eq!(received.iter().sum::<usize>(), 4);
        assert_eq!(received[0], 2);
        assert_eq!(received[1], 2);

        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn hand_off_signals_the_worker_waker() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (slots, inboxes) = worker_channels(1, FrontendKind::Epoll);
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, handle) = spawn_acceptor(listener, slots, Arc::clone(&stop)).unwrap();

        let _conn = TcpStream::connect(addr).unwrap();
        let inbox = &inboxes[0];
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3);
        let mut got = false;
        while !got && std::time::Instant::now() < deadline {
            got = inbox.receiver.try_recv().is_ok();
        }
        assert!(got, "the stream reached the worker inbox");
        // On Linux/epoll the waker is an eventfd and must now be readable;
        // registering it on a reactor and waiting proves the signal arrived.
        if let Some(fd) = inbox.waker.fd() {
            use crate::reactor::{Reactor, WAKER_TOKEN};
            let mut reactor = Reactor::new(
                FrontendKind::Epoll,
                Arc::new(crate::metrics::FrontendStats::default()),
            );
            reactor.register(fd, WAKER_TOKEN, false).unwrap();
            let mut ready = Vec::new();
            reactor
                .wait(&mut ready, Some(Duration::from_secs(2)))
                .unwrap();
            assert!(ready.contains(&WAKER_TOKEN));
            inbox.waker.drain();
        }

        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }
}
