//! The traced run's per-layer metrics and the cost ledger.
//!
//! After a warm-up, one untraced closed-loop phase sets the reference
//! throughput.  Tracing then goes on (the generator's spans and the
//! table's stage trace, `cphash_perfmon::trace`) for a closed-loop phase,
//! which all per-operation costs come from, and an open-loop phase, which
//! gives the generator's lateness.  Counters are read around the traced
//! closed-loop phase: the generator's own spans, `/proc` thread counters,
//! the server's and the table's statistics.

use std::time::{Duration, Instant};

use cphash::PartitionStats;
use cphash_kvserver::StatsSnapshot;
use cphash_perfmon::trace::{self, TraceStage, ALL_STAGES};
use cphash_perfmon::{cycles_now, BatchStats};

use crate::check::ratio;
use crate::drive::percentile_us;
use crate::drive::{LoadGen, Target};
use crate::procfs::{self, Sched};
use crate::spans::Spans;
use crate::workload::{OpGen, Spec};
use crate::{metric, phase, replay, Args, Metric};
use crate::{CLOSED_STREAM, PACED_STREAM, WARMUP_STREAM};

/// Operations each replay runs.
const PROTO_REPLAY_OPS: usize = 200_000;
const HASHCORE_REPLAY_OPS: usize = 1_000_000;

/// Long enough for the table's server threads to republish their
/// partition statistics (they do so every 4096 loop iterations).
const SETTLE: Duration = Duration::from_millis(20);

/// Counters read at the edges of the traced phase.
struct Counters {
    at: Instant,
    cycles: u64,
    generator: Sched,
    generator_syscalls: u64,
    generator_kernel_ns: u64,
    workers: (Sched, usize),
    servers: (Sched, usize),
    server: Option<StatsSnapshot>,
    batch: BatchStats,
    client_retries: u64,
    client_deferrals: Option<u64>,
}

fn read_counters(target: &Target) -> Counters {
    let (server, batch, client_retries, client_deferrals) = match target {
        Target::Tcp { server, conns } => {
            let snap = server.metrics().snapshot();
            let batch = snap.batch;
            let retries = conns.iter().map(|c| c.retries()).sum();
            (Some(snap), batch, retries, None)
        }
        Target::InProc { table, conns } => {
            let retries = conns.iter().map(|c| c.migration_retries()).sum();
            let deferrals = conns.iter().map(|c| c.write_deferrals()).sum();
            (None, table.snapshot().batch, retries, Some(deferrals))
        }
    };
    Counters {
        at: Instant::now(),
        cycles: cycles_now(),
        generator: procfs::own_sched(),
        generator_syscalls: procfs::own_syscalls(),
        generator_kernel_ns: procfs::own_kernel_ns(),
        workers: procfs::threads_sched("cpserver-client"),
        servers: procfs::threads_sched("cphash-server"),
        server,
        batch,
        client_retries,
        client_deferrals,
    }
}

fn partition_stats(target: &Target) -> PartitionStats {
    std::thread::sleep(SETTLE);
    match target {
        Target::Tcp { server, .. } => server.table_stats(),
        Target::InProc { table, .. } => table.partition_stats(),
    }
}

/// Cycles each table stage recorded since the last `trace::reset`.
fn stage_cycles() -> [u64; 6] {
    ALL_STAGES.map(|s| trace::stage_histogram(s).sum() as u64)
}

/// Run the traced phases on a set-up target and compute every live
/// per-layer metric.  Returns the metrics and the recorded spans.
pub fn measure(
    spec: &Spec,
    args: &Args,
    target: &mut Target,
    load: &mut LoadGen,
) -> (Vec<Metric>, Spans) {
    let mut warm = OpGen::new(spec, args.seed, WARMUP_STREAM);
    let mut closed_gen = OpGen::new(spec, args.seed, CLOSED_STREAM);
    let mut paced_gen = OpGen::new(spec, args.seed, PACED_STREAM);
    let mut spans = Spans::new();

    let untraced = crate::with_conns!(&mut *target, |conns| {
        load.closed_loop(conns, &mut warm, phase(args, 0.1), None);
        load.drain_all(conns);
        let untraced = load.closed_loop(conns, &mut closed_gen, phase(args, 0.3), None);
        load.drain_all(conns);
        untraced
    });

    trace::set_trace_enabled(true);
    let p0 = partition_stats(target);
    trace::reset();
    let c0 = read_counters(target);
    spans.begin_phase("closed_loop");
    let traced = crate::with_conns!(&mut *target, |conns| {
        load.closed_loop(conns, &mut closed_gen, phase(args, 0.3), Some(&mut spans))
    });
    let totals = spans.end_phase();
    let c1 = read_counters(target);
    let stages = stage_cycles();
    crate::with_conns!(&mut *target, |conns| load.drain_all(conns));
    let p1 = partition_stats(target);

    spans.begin_phase("paced");
    let mut paced = crate::with_conns!(&mut *target, |conns| {
        load.paced(
            conns,
            &mut paced_gen,
            spec.paced_rate,
            phase(args, 0.3),
            Some(&mut spans),
        )
    });
    spans.end_phase();
    trace::set_trace_enabled(false);

    // Per-operation denominators: operations the generator completed in
    // the traced closed-loop phase, and the wall time and cycles it took.
    let ops = traced.completed.max(1) as f64;
    let wall_ns = (c1.at - c0.at).as_nanos().max(1) as f64;
    let wall_cycles = c1.cycles.wrapping_sub(c0.cycles).max(1) as f64;
    let cycles_per_ns = wall_cycles / wall_ns;
    let ns_per_op = |cycles: u64| cycles as f64 / cycles_per_ns / ops;
    let generator = c1.generator.since(c0.generator);
    let (workers, worker_threads) = (c1.workers.0.since(c0.workers.0), c1.workers.1);
    let (servers, server_threads) = (c1.servers.0.since(c0.servers.0), c1.servers.1);
    let thread_share = |ns: u64, threads: usize| ns as f64 / (wall_ns * threads.max(1) as f64);
    let table_ops = c1.batch.ops.saturating_sub(c0.batch.ops).max(1) as f64;
    let polls = totals.calls[1] + totals.calls[2];

    let untraced_ns = 1e9 / untraced.mean_ops_per_sec();
    let parts = [
        ns_per_op(totals.call_cycles[0]),
        ns_per_op(totals.call_cycles[1]),
        ns_per_op(totals.call_cycles[2]),
        ns_per_op(totals.self_cycles()),
    ];
    let sum: f64 = parts.iter().sum();
    println!(
        "ledger {}: generator submit {:.1} + poll {:.1} + poll_idle {:.1} + self {:.1} = {:.1} ns/op \
         (traced) | 1/throughput_ops_s {:.1} ns/op (untraced) | residual {:.1} ns/op ({:+.1}%) | \
         per-op CPU: worker {:.1} ns, table server {:.1} ns",
        spec.name,
        parts[0],
        parts[1],
        parts[2],
        parts[3],
        sum,
        untraced_ns,
        untraced_ns - sum,
        100.0 * (untraced_ns - sum) / untraced_ns,
        workers.run_ns as f64 / ops,
        servers.run_ns as f64 / ops,
    );

    let mut m = vec![
        metric(
            "loadgen.late_p99_us",
            percentile_us(&mut paced.late_ns, 99.0),
            "us",
        )
        .note(format!(
            "open loop at {} ops/s, n={}",
            spec.paced_rate,
            paced.late_ns.len()
        )),
        metric("loadgen.self_ns_per_op", parts[3], "ns"),
        metric(
            "loadgen.cpu_util",
            thread_share(generator.run_ns, 1),
            "ratio",
        ),
        metric(
            "loadgen.runq_frac",
            thread_share(generator.wait_ns, 1),
            "ratio",
        ),
        metric("client.submit_ns_per_op", parts[0], "ns"),
        metric("client.poll_ns_per_op", parts[1], "ns"),
        metric("client.poll_idle_ns_per_op", parts[2], "ns"),
        metric(
            "client.poll_empty_ratio",
            ratio(totals.calls[2], polls),
            "ratio",
        ),
        metric(
            "client.completions_per_poll",
            ratio(totals.completions, polls),
            "count",
        ),
        metric(
            "client.syscalls_per_op",
            c1.generator_syscalls.saturating_sub(c0.generator_syscalls) as f64 / ops,
            "count",
        )
        .note("read/write-class only: socket send/recv are not counted by /proc/<tid>/io"),
        metric(
            "client.kernel_ns_per_op",
            c1.generator_kernel_ns
                .saturating_sub(c0.generator_kernel_ns) as f64
                / ops,
            "ns",
        )
        .note("generator thread's kernel time (stime, 10 ms ticks)"),
        metric(
            "client.retries_per_kop",
            1e3 * c1.client_retries.saturating_sub(c0.client_retries) as f64 / ops,
            "count",
        ),
        optional(
            "client.write_deferrals_per_kop",
            c1.client_deferrals
                .zip(c0.client_deferrals)
                .map(|(b, a)| 1e3 * b.saturating_sub(a) as f64 / ops),
            "count",
        ),
    ];
    m.extend(kvserver_metrics(
        c0.server.as_ref().zip(c1.server.as_ref()),
        thread_share(workers.run_ns, worker_threads),
        thread_share(workers.wait_ns, worker_threads),
    ));

    let server_stage_cycles: u64 = stages[TraceStage::Drain as usize..].iter().sum();
    let batch = |f: fn(&BatchStats) -> u64| f(&c1.batch).saturating_sub(f(&c0.batch));
    m.extend([
        metric(
            "core.server_busy_ratio",
            server_stage_cycles as f64 / (wall_cycles * server_threads.max(1) as f64),
            "ratio",
        )
        .note("stage-traced cycles / wall cycles"),
        metric(
            "core.batch_occupancy",
            ratio(batch(|b| b.ops), batch(|b| b.batches)),
            "count",
        ),
        metric(
            "core.prefetches_per_op",
            ratio(batch(|b| b.prefetches), batch(|b| b.ops)),
            "count",
        ),
        metric(
            "core.server_cpu_util",
            thread_share(servers.run_ns, server_threads),
            "ratio",
        ),
        metric(
            "core.server_runq_frac",
            thread_share(servers.wait_ns, server_threads),
            "ratio",
        ),
    ]);
    const STAGE_METRICS: [&str; 6] = [
        "core.stage.ring_enqueue_cyc_per_op",
        "core.stage.drain_cyc_per_op",
        "core.stage.prepare_cyc_per_op",
        "core.stage.prefetch_cyc_per_op",
        "core.stage.execute_cyc_per_op",
        "core.stage.reply_publish_cyc_per_op",
    ];
    for (name, cycles) in STAGE_METRICS.into_iter().zip(stages) {
        m.push(metric(name, cycles as f64 / table_ops, "cycles"));
    }

    let d = |f: fn(&PartitionStats) -> u64| f(&p1).saturating_sub(f(&p0));
    let found = d(|p| p.hits) + d(|p| p.replacements) + d(|p| p.deletes);
    m.extend([
        metric(
            "hashcore.evictions_per_kop",
            1e3 * d(|p| p.evictions) as f64 / ops,
            "count",
        ),
        metric(
            "hashcore.failed_inserts_per_kop",
            1e3 * d(|p| p.failed_inserts) as f64 / ops,
            "count",
        ),
        metric(
            "hashcore.deferred_frees_per_kop",
            1e3 * d(|p| p.deferred_frees) as f64 / ops,
            "count",
        ),
        metric(
            "hashcore.inline_hit_ratio",
            ratio(d(|p| p.inline_hits), found),
            "ratio",
        )
        .note("inline-slot finds / keys found"),
        metric(
            "hashcore.overflow_probes_per_lookup",
            ratio(d(|p| p.overflow_probes), d(|p| p.lookups)),
            "count",
        ),
        metric(
            "hashcore.tag_false_pos_per_lookup",
            ratio(d(|p| p.tag_false_positives), d(|p| p.lookups)),
            "count",
        ),
        metric(
            "trace.overhead_frac",
            1.0 - traced.mean_ops_per_sec() / untraced.mean_ops_per_sec(),
            "ratio",
        )
        .note(format!(
            "untraced {:.0} ops/s, traced {:.0} ops/s",
            untraced.mean_ops_per_sec(),
            traced.mean_ops_per_sec()
        )),
    ]);
    (m, spans)
}

fn optional(name: &'static str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric {
        value,
        ..metric(name, 0.0, unit)
    }
}

/// The front-end's counters per request; n/a without a TCP server.
fn kvserver_metrics(
    snaps: Option<(&StatsSnapshot, &StatsSnapshot)>,
    cpu_util: f64,
    runq_frac: f64,
) -> Vec<Metric> {
    type Field = fn(&StatsSnapshot) -> u64;
    let per = |f: Field, g: Field, scale: f64| {
        snaps.map(|(a, b)| scale * ratio(f(b).saturating_sub(f(a)), g(b).saturating_sub(g(a))))
    };
    let requests: Field = |s| s.requests;
    vec![
        optional(
            "kvserver.syscalls_per_req",
            per(|s| s.frontend_syscalls, requests, 1.0),
            "count",
        ),
        optional(
            "kvserver.wakeups_per_req",
            per(|s| s.frontend_wakeups, requests, 1.0),
            "count",
        ),
        optional(
            "kvserver.events_per_wakeup",
            per(|s| s.frontend_events, |s| s.frontend_wakeups, 1.0),
            "count",
        ),
        optional(
            "kvserver.bytes_in_per_req",
            per(|s| s.bytes_in, requests, 1.0),
            "B",
        ),
        optional(
            "kvserver.bytes_out_per_req",
            per(|s| s.bytes_out, requests, 1.0),
            "B",
        ),
        optional(
            "kvserver.retries_emitted_per_kreq",
            per(|s| s.retries_emitted, requests, 1e3),
            "count",
        ),
        optional("kvserver.worker_cpu_util", snaps.map(|_| cpu_util), "ratio"),
        optional(
            "kvserver.worker_runq_frac",
            snaps.map(|_| runq_frac),
            "ratio",
        ),
    ]
}

/// The single-thread replays of the workload's operation stream.
pub fn replays(spec: &Spec, seed: u64, stream: u64) -> Vec<Metric> {
    let proto = replay::kvproto(spec, seed, stream, PROTO_REPLAY_OPS);
    let replay_note = format!("replay of {PROTO_REPLAY_OPS} ops, lookups answered as hits");
    vec![
        metric("kvproto.req_bytes_per_op", proto.req_bytes_per_op, "B").note(replay_note),
        metric("kvproto.reply_bytes_per_op", proto.reply_bytes_per_op, "B"),
        metric("kvproto.encode_ns_per_req", proto.encode_ns_per_req, "ns"),
        metric("kvproto.decode_ns_per_req", proto.decode_ns_per_req, "ns"),
        metric(
            "kvproto.reply_decode_ns_per_op",
            proto.reply_decode_ns_per_op,
            "ns",
        ),
        metric(
            "hashcore.replay_ns_per_op",
            replay::hashcore(spec, seed, stream, HASHCORE_REPLAY_OPS),
            "ns",
        )
        .note(format!(
            "one Partition, {HASHCORE_REPLAY_OPS} ops after prefill"
        )),
    ]
}
