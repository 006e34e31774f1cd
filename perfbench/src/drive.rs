//! The targets and the load generator that drives them.
//!
//! One generator thread (the caller's) drives every connection.  No
//! connection ever has more than the workload's window of operations in
//! flight, in any phase, prefill included.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::{Duration, Instant};

use cphash::{
    ClientHandle, Completion, CpHash, CpHashConfig, KeyRef, KvClient, KvOp, RemoteClient,
};
use cphash_kvserver::{CpServer, CpServerConfig};
use cphash_perfmon::cycles_now;

use crate::check::{ratio, Checker};
use crate::procfs;
use crate::spans::{Call, Spans};
use crate::workload::{KeyKind, Keyspace, Op, OpGen, OpKind, Spec, Transport};

/// The system under test, started in this process.
pub enum Target {
    Tcp {
        server: CpServer,
        conns: Vec<RemoteClient>,
    },
    InProc {
        table: CpHash,
        conns: Vec<ClientHandle>,
    },
}

/// Run `$body` with `$conns` bound to the target's connection slice,
/// whatever its client type.
#[macro_export]
macro_rules! with_conns {
    ($target:expr, |$conns:ident| $body:expr) => {
        match $target {
            $crate::drive::Target::Tcp { conns: $conns, .. } => $body,
            $crate::drive::Target::InProc { conns: $conns, .. } => $body,
        }
    };
}

impl Target {
    /// Start the workload's target, configured from durable fields only:
    /// partitions, client threads, capacity, value size and bind address
    /// (the client-side window is the generator's).  Everything else is the
    /// shipped default.
    pub fn start(spec: &Spec) -> std::io::Result<Target> {
        let target = Target::spawn(spec)?;
        if !procfs::place_threads("cphash-server", 1) {
            eprintln!("perfbench: could not give the table server a CPU of its own");
        }
        Ok(target)
    }

    fn spawn(spec: &Spec) -> std::io::Result<Target> {
        match spec.transport {
            Transport::Tcp => {
                let server = CpServer::start(CpServerConfig {
                    bind: "127.0.0.1:0".parse().expect("literal address"),
                    client_threads: 1,
                    partitions: 1,
                    capacity_bytes: Some(spec.capacity_bytes),
                    typical_value_bytes: spec.typical_value_bytes,
                    ..CpServerConfig::default()
                })?;
                let conns = (0..spec.connections)
                    .map(|_| {
                        let mut c = RemoteClient::connect(server.addr())?;
                        c.set_window(spec.window);
                        Ok(c)
                    })
                    .collect::<std::io::Result<Vec<_>>>()?;
                Ok(Target::Tcp { server, conns })
            }
            Transport::InProc => {
                let config = CpHashConfig::new(1, spec.connections)
                    .with_capacity(spec.capacity_bytes, spec.typical_value_bytes);
                let (table, conns) = CpHash::new(config);
                Ok(Target::InProc { table, conns })
            }
        }
    }

    /// Close the connections, then stop the server or table.
    pub fn shutdown(self) {
        match self {
            Target::Tcp { mut server, conns } => {
                drop(conns);
                server.shutdown();
            }
            Target::InProc { mut table, conns } => {
                drop(conns);
                table.shutdown();
            }
        }
    }
}

/// Tokens are small sequential integers: one multiply spreads them.
#[derive(Default)]
struct TokenHasher(u64);

impl Hasher for TokenHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8 | b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// An operation in flight: what it was and, in the paced phase, when it
/// was due to be sent.
#[derive(Debug, Clone, Copy)]
struct Pending {
    op: Op,
    due: Option<Instant>,
}

#[derive(Default)]
struct Lane {
    inflight: HashMap<u64, Pending, BuildHasherDefault<TokenHasher>>,
    dead: bool,
}

/// Phases are cut into slices of this length.  A phase's figure is the
/// median over the calmer half of its full slices: those in which the
/// hypervisor stole the least CPU time from this VM (see [`StealMeter`]).
/// Steal comes from other tenants of the host, not from the program, and
/// a slice it hits measures the host.
pub const SLICE: Duration = Duration::from_millis(250);

/// Host steal share per slice.
#[derive(Debug, Clone)]
pub struct StealMeter {
    last: (u64, u64),
    pub per_slice: Vec<f64>,
}

impl StealMeter {
    fn new() -> StealMeter {
        StealMeter {
            last: procfs::host_cpu_ticks(),
            per_slice: Vec::new(),
        }
    }

    /// Close every slice up to (not including) slice `upto`.
    fn close_until(&mut self, upto: usize) {
        if self.per_slice.len() >= upto {
            return;
        }
        let now = procfs::host_cpu_ticks();
        let share = ratio(
            now.0.saturating_sub(self.last.0),
            now.1.saturating_sub(self.last.1),
        );
        self.last = now;
        self.per_slice.resize(upto, share);
    }

    /// Indices of the calmer half of the first `full` slices.
    fn calm(&self, full: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..full.min(self.per_slice.len())).collect();
        idx.sort_by(|&a, &b| self.per_slice[a].total_cmp(&self.per_slice[b]));
        idx.truncate(idx.len().div_ceil(2));
        idx
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Result of a closed-loop phase.
#[derive(Debug, Clone)]
pub struct Closed {
    pub completed: u64,
    pub elapsed: Duration,
    /// Completions per [`SLICE`] of the phase.
    pub per_slice: Vec<u64>,
    pub steal: StealMeter,
}

impl Closed {
    /// Completed operations per second over the whole phase.
    pub fn mean_ops_per_sec(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64()
    }

    /// Median throughput over the calm half of the phase's full slices.
    pub fn ops_per_sec(&self) -> f64 {
        let full = (self.elapsed.as_nanos() / SLICE.as_nanos()) as usize;
        if full == 0 {
            return self.mean_ops_per_sec();
        }
        let mut rates: Vec<f64> = self
            .steal
            .calm(full)
            .into_iter()
            .map(|i| self.per_slice[i] as f64 / SLICE.as_secs_f64())
            .collect();
        median(&mut rates)
    }
}

/// Latencies of paced operations, grouped by the [`SLICE`] they were due
/// in, in ns.
#[derive(Debug)]
pub struct Latencies {
    start: Instant,
    per_slice_capacity: usize,
    pub slices: Vec<Vec<u32>>,
}

impl Latencies {
    fn record(&mut self, due: Instant, done: Instant) {
        let slice =
            (due.saturating_duration_since(self.start).as_nanos() / SLICE.as_nanos()) as usize;
        if self.slices.len() <= slice {
            let capacity = self.per_slice_capacity;
            self.slices
                .resize_with(slice + 1, || Vec::with_capacity(capacity));
        }
        self.slices[slice].push(saturating_ns(done.saturating_duration_since(due)));
    }

    pub fn samples(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }
}

/// Result of an open-loop phase: per-operation latency from the moment
/// it was due, and how late the generator sent each operation, in ns.
#[derive(Debug)]
pub struct Paced {
    pub latency: Latencies,
    /// Full slices of the phase (a shorter last one is not reported).
    pub full_slices: usize,
    pub steal: StealMeter,
    pub late_ns: Vec<u32>,
    /// Operations due before the phase ended that were never sent.
    pub unsent: u64,
}

impl Paced {
    /// The median over the calm half of the full slices of each slice's
    /// `pct` percentile, in microseconds.
    pub fn percentile_us(&mut self, pct: f64) -> f64 {
        let slices = &mut self.latency.slices;
        let mut per_slice: Vec<f64> = self
            .steal
            .calm(self.full_slices.min(slices.len()))
            .into_iter()
            .map(|i| percentile_us(&mut slices[i], pct))
            .collect();
        median(&mut per_slice)
    }
}

/// Nearest-rank percentile of `samples` (ns), in microseconds.
pub fn percentile_us(samples: &mut [u32], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
    let (_, v, _) = samples.select_nth_unstable(rank.clamp(1, samples.len()) - 1);
    *v as f64 / 1000.0
}

fn saturating_ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Empty polls in a row before the generator gives up its core.  While it
/// times paced operations it only yields, to see completions promptly;
/// otherwise it naps, so that with full windows it does not take CPU time
/// from the program's threads (2 vCPUs run three busy threads here).
const SPIN_POLLS: u32 = 64;
const IDLE_NAP: Duration = Duration::from_micros(50);

/// How long the end-of-phase drain may wait for outstanding operations.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// The generator: issues operations, checks every completion, keeps the
/// windows.
pub struct LoadGen {
    keyspace: Keyspace,
    window: usize,
    lanes: Vec<Lane>,
    pub checker: Checker,
    completions: Vec<Completion>,
    value: Vec<u8>,
    idle_polls: u32,
}

impl LoadGen {
    pub fn new(spec: &Spec, seed: u64) -> LoadGen {
        let keyspace = Keyspace::new(spec, seed);
        LoadGen {
            checker: Checker::new(keyspace.clone(), spec.miss_is_failure),
            keyspace,
            window: spec.window,
            lanes: (0..spec.connections).map(|_| Lane::default()).collect(),
            completions: Vec::with_capacity(4096),
            value: Vec::with_capacity(1024),
            idle_polls: 0,
        }
    }

    /// Submit `op` on connection `lane` and remember it until it completes.
    fn submit<C: KvClient>(
        &mut self,
        lane: usize,
        client: &mut C,
        op: Op,
        due: Option<Instant>,
        trace: &mut Option<&mut Spans>,
    ) {
        let ks = &self.keyspace;
        if op.kind == OpKind::Insert {
            ks.value(op.key, &mut self.value);
        }
        let byte_key;
        let key = match ks.kind() {
            KeyKind::U64 => KeyRef::Hash(ks.u64_key(op.key)),
            KeyKind::Bytes => {
                byte_key = ks.byte_key(op.key);
                KeyRef::Bytes(&byte_key)
            }
        };
        let kv = match op.kind {
            OpKind::Lookup => KvOp::Get(key),
            OpKind::Insert => KvOp::Insert(key, &self.value),
            OpKind::Delete => KvOp::Delete(key),
        };
        let start = cycles_now();
        let token = client.submit(kv);
        if let Some(spans) = trace {
            spans.call(Call::Submit, start, cycles_now(), 0);
        }
        self.lanes[lane].inflight.insert(token, Pending { op, due });
    }

    /// Poll every live connection once and check what completed.  Paced
    /// operations add their latency to `latency`.  Returns the number of
    /// completions.
    fn poll<C: KvClient>(
        &mut self,
        conns: &mut [C],
        trace: &mut Option<&mut Spans>,
        mut latency: Option<&mut Latencies>,
    ) -> u64 {
        let mut total = 0u64;
        for (lane, client) in conns.iter_mut().enumerate() {
            if self.lanes[lane].dead {
                continue;
            }
            let start = cycles_now();
            let n = client.poll_completions(&mut self.completions);
            if n == 0 {
                self.idle_polls += 1;
                if self.idle_polls >= SPIN_POLLS {
                    if latency.is_some() {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(IDLE_NAP);
                    }
                }
            } else {
                self.idle_polls = 0;
            }
            if let Some(spans) = trace {
                let call = if n == 0 { Call::PollIdle } else { Call::Poll };
                spans.call(call, start, cycles_now(), n);
            }
            let now = (n > 0 && latency.is_some()).then(Instant::now);
            for c in self.completions.drain(..) {
                let Some(p) = self.lanes[lane].inflight.remove(&c.token) else {
                    self.checker.tally.record_stray();
                    continue;
                };
                self.checker.check(p.op, &c.kind);
                if let (Some(lat), Some(due), Some(now)) = (latency.as_deref_mut(), p.due, now) {
                    lat.record(due, now);
                }
                total += 1;
            }
            if !client.is_alive() {
                let lane = &mut self.lanes[lane];
                self.checker.tally.record_lost(lane.inflight.len() as u64);
                lane.inflight.clear();
                lane.dead = true;
            }
        }
        total
    }

    /// Can connection `lane` take another operation?
    fn has_room(&self, lane: usize) -> bool {
        !self.lanes[lane].dead && self.lanes[lane].inflight.len() < self.window
    }

    fn all_dead(&self) -> bool {
        self.lanes.iter().all(|l| l.dead)
    }

    /// Insert keys `0..spec.prefill_keys`, highest index first.
    pub fn prefill<C: KvClient>(&mut self, conns: &mut [C], keys: u64) {
        let mut next = keys;
        while next > 0 && !self.all_dead() {
            for (lane, client) in conns.iter_mut().enumerate() {
                while next > 0 && self.has_room(lane) {
                    next -= 1;
                    let op = Op {
                        kind: OpKind::Insert,
                        key: next,
                    };
                    self.submit(lane, client, op, None, &mut None);
                }
            }
            self.poll(conns, &mut None, None);
        }
        self.drain(conns, &mut None, None);
    }

    /// Wait until nothing is in flight (see [`LoadGen::drain`]).
    pub fn drain_all<C: KvClient>(&mut self, conns: &mut [C]) {
        self.drain(conns, &mut None, None);
    }

    /// Keep every window full for `duration`; count completions.  The
    /// operations still in flight at the end are left for [`LoadGen::drain`].
    pub fn closed_loop<C: KvClient>(
        &mut self,
        conns: &mut [C],
        gen: &mut OpGen,
        duration: Duration,
        mut trace: Option<&mut Spans>,
    ) -> Closed {
        let start = Instant::now();
        let mut per_slice = vec![0u64; (duration.as_nanos() / SLICE.as_nanos()) as usize + 1];
        let mut steal = StealMeter::new();
        loop {
            let elapsed = start.elapsed();
            if elapsed >= duration || self.all_dead() {
                break;
            }
            let slice = (elapsed.as_nanos() / SLICE.as_nanos()) as usize;
            steal.close_until(slice);
            for (lane, client) in conns.iter_mut().enumerate() {
                while self.has_room(lane) {
                    let op = gen.next_op();
                    self.submit(lane, client, op, None, &mut trace);
                }
            }
            per_slice[slice] += self.poll(conns, &mut trace, None);
        }
        let elapsed = start.elapsed();
        steal.close_until(per_slice.len());
        Closed {
            completed: per_slice.iter().sum(),
            elapsed,
            per_slice,
            steal,
        }
    }

    /// Offer `rate` operations per second for `duration`, open loop: the
    /// schedule never waits for the system, and each operation's latency
    /// runs from when it was due.  A due operation whose connections are
    /// all at their window waits (and its latency grows) until one frees.
    pub fn paced<C: KvClient>(
        &mut self,
        conns: &mut [C],
        gen: &mut OpGen,
        rate: f64,
        duration: Duration,
        mut trace: Option<&mut Spans>,
    ) -> Paced {
        let expected = (rate * duration.as_secs_f64() * 1.05) as usize + 16;
        let start = Instant::now();
        let mut out = Paced {
            latency: Latencies {
                start,
                per_slice_capacity: (rate * SLICE.as_secs_f64() * 1.1) as usize,
                slices: Vec::new(),
            },
            full_slices: (duration.as_nanos() / SLICE.as_nanos()) as usize,
            steal: StealMeter::new(),
            late_ns: Vec::with_capacity(expected),
            unsent: 0,
        };
        let interval_ns = 1e9 / rate;
        let due_at = |k: u64| Duration::from_nanos((k as f64 * interval_ns) as u64);
        let mut k = 0u64;
        let mut op = gen.next_op();
        loop {
            let now = Instant::now();
            let elapsed = now - start;
            if elapsed >= duration || self.all_dead() {
                break;
            }
            out.steal
                .close_until((elapsed.as_nanos() / SLICE.as_nanos()) as usize);
            while due_at(k) <= elapsed {
                let Some(lane) = self.least_loaded_open_lane() else {
                    break;
                };
                let due = start + due_at(k);
                out.late_ns.push(saturating_ns(now - due));
                self.submit(lane, &mut conns[lane], op, Some(due), &mut trace);
                k += 1;
                op = gen.next_op();
            }
            self.poll(conns, &mut trace, Some(&mut out.latency));
        }
        out.steal.close_until(out.full_slices + 1);
        out.unsent = ((duration.as_nanos() as f64 / interval_ns) as u64).saturating_sub(k);
        self.drain(conns, &mut trace, Some(&mut out.latency));
        out
    }

    fn least_loaded_open_lane(&self) -> Option<usize> {
        (0..self.lanes.len())
            .filter(|&lane| self.has_room(lane))
            .min_by_key(|&lane| self.lanes[lane].inflight.len())
    }

    /// Wait until nothing is in flight; whatever is still pending after
    /// [`DRAIN_TIMEOUT`] counts as lost.
    fn drain<C: KvClient>(
        &mut self,
        conns: &mut [C],
        trace: &mut Option<&mut Spans>,
        mut latency: Option<&mut Latencies>,
    ) {
        let start = Instant::now();
        while self.lanes.iter().any(|l| !l.inflight.is_empty()) {
            if start.elapsed() > DRAIN_TIMEOUT {
                for lane in &mut self.lanes {
                    self.checker.tally.record_lost(lane.inflight.len() as u64);
                    lane.inflight.clear();
                    lane.dead = true;
                }
                return;
            }
            self.poll(conns, trace, latency.as_deref_mut());
        }
    }
}
