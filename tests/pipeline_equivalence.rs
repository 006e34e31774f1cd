//! Equivalence of the server pipeline with a scalar reference: the staged
//! batch + prefetch hot loop must produce *byte-identical* completions to
//! executing the same operations one at a time, in script order, directly
//! on `Partition`s, for any operation stream, at any pipeline depth.
//!
//! Determinism argument: each table runs one client, so every partition
//! sees its operations in submission order (one FIFO lane per partition,
//! drained in order), and the harness keeps **at most one operation per
//! key in flight** — so no completion can depend on how an insert's
//! two-phase `Ready` races a concurrent lookup of the same key.  Without
//! eviction every completion is then a pure function of the operation
//! stream, which the reference computes.
//!
//! Under eviction pressure that no longer holds against a one-at-a-time
//! reference: a lookup hit pins its element and an insert holds its
//! reservation until the client's `Decref`/`Ready` reaches the server,
//! and other operations of the same window run in between.  An element
//! evicted while pinned frees its bytes only at the last `Decref`, so how
//! many victims a later insert takes depends on when the client polled.
//! The eviction case therefore compares the depths with each other.
//!
//! The rings are deliberately tiny (the minimum 64 slots) so batches
//! straddle ring-wrap boundaries constantly, and the depth sweep includes
//! the degenerate `batch_size = 1`.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use cphash_suite::hashcore::{partition_for_key, Partition, PartitionConfig};
use cphash_suite::{ClientHandle, Completion, CompletionKind, CpHash, CpHashConfig, ValueBytes};

/// One scripted operation.
#[derive(Debug, Clone, Copy)]
enum ScriptOp {
    Insert { key: u64, len: usize },
    Lookup { key: u64 },
    Delete { key: u64 },
}

impl ScriptOp {
    fn key(&self) -> u64 {
        match *self {
            ScriptOp::Insert { key, .. } | ScriptOp::Lookup { key } | ScriptOp::Delete { key } => {
                key
            }
        }
    }
}

fn script_op() -> impl Strategy<Value = ScriptOp> {
    prop_oneof![
        (0u64..96, 1usize..48).prop_map(|(key, len)| ScriptOp::Insert { key, len }),
        (0u64..96).prop_map(|key| ScriptOp::Lookup { key }),
        (0u64..96).prop_map(|key| ScriptOp::Delete { key }),
    ]
}

/// A deterministic value for (key, op index): both tables must read back
/// exactly these bytes.
fn value_for(key: u64, index: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (key as u8) ^ (index as u8).wrapping_mul(31) ^ (i as u8))
        .collect()
}

/// Run the script against one table, keeping the pipeline full across
/// *distinct* keys but never more than one in-flight operation per key.
/// Returns the completion kind of every operation, in script order.
fn run_script(client: &mut ClientHandle, script: &[ScriptOp]) -> Vec<(u64, CompletionKind)> {
    let mut results: Vec<Option<(u64, CompletionKind)>> = vec![None; script.len()];
    // token -> script index, for matching completions back.
    let mut token_of: HashMap<u64, usize> = HashMap::new();
    let mut busy_keys: HashSet<u64> = HashSet::new();
    let mut completions: Vec<Completion> = Vec::new();
    let mut next = 0usize;

    let drain_into = |completions: &mut Vec<Completion>,
                      token_of: &mut HashMap<u64, usize>,
                      busy_keys: &mut HashSet<u64>,
                      results: &mut Vec<Option<(u64, CompletionKind)>>,
                      script: &[ScriptOp]| {
        for completion in completions.drain(..) {
            let index = token_of
                .remove(&completion.token)
                .expect("completion for an unknown token");
            busy_keys.remove(&script[index].key());
            results[index] = Some((script[index].key(), completion.kind));
        }
    };

    while next < script.len() || !token_of.is_empty() {
        // Submit as long as the next op's key is free (bounded window).
        while next < script.len() && token_of.len() < 64 {
            let op = script[next];
            if busy_keys.contains(&op.key()) {
                break;
            }
            let token = match op {
                ScriptOp::Insert { key, len } => {
                    client.submit_insert(key, &value_for(key, next, len))
                }
                ScriptOp::Lookup { key } => client.submit_lookup(key),
                ScriptOp::Delete { key } => client.submit_delete(key),
            };
            busy_keys.insert(op.key());
            token_of.insert(token, next);
            next += 1;
        }
        completions.clear();
        if client.poll(&mut completions) == 0 {
            client.flush();
            std::hint::spin_loop();
        }
        drain_into(
            &mut completions,
            &mut token_of,
            &mut busy_keys,
            &mut results,
            script,
        );
    }
    results
        .into_iter()
        .map(|r| r.expect("every op completed"))
        .collect()
}

/// The table configuration every run uses, at the given depth and budget.
fn table_config(batch_size: usize, capacity: Option<usize>) -> CpHashConfig {
    CpHashConfig {
        // The minimum ring: batches constantly wrap the ring boundary.
        ring_capacity: 64,
        batch_size,
        capacity_bytes: capacity,
        ..CpHashConfig::new(2, 1)
    }
}

/// Build a table at the given depth and run the script.
fn outcomes(
    script: &[ScriptOp],
    batch_size: usize,
    capacity: Option<usize>,
) -> Vec<(u64, CompletionKind)> {
    let (mut table, mut clients) = CpHash::new(table_config(batch_size, capacity));
    let outcomes = run_script(&mut clients[0], script);
    drop(clients);
    table.shutdown();
    outcomes
}

/// The scalar reference: the script executed one operation at a time, in
/// order, on `Partition`s routed and sized exactly as `CpHash::new` routes
/// and sizes the table's.
fn scalar_reference(script: &[ScriptOp], capacity: Option<usize>) -> Vec<(u64, CompletionKind)> {
    let config = table_config(1, capacity);
    let mut partitions: Vec<Partition> = (0..config.partitions)
        .map(|index| {
            Partition::new(PartitionConfig {
                buckets: config.buckets_per_partition,
                capacity_bytes: config.partition_capacity(),
                eviction: config.eviction,
                seed: config.seed ^ (index as u64).wrapping_mul(0x9E37_79B9),
                migration_chunks: config.migration_chunks,
            })
        })
        .collect();
    let mut buf = Vec::new();
    script
        .iter()
        .enumerate()
        .map(|(index, op)| {
            let partition = &mut partitions[partition_for_key(op.key(), config.partitions)];
            let kind = match *op {
                ScriptOp::Insert { key, len } => {
                    match partition.insert_copy(key, &value_for(key, index, len)) {
                        Ok(()) => CompletionKind::Inserted,
                        Err(_) => CompletionKind::InsertFailed,
                    }
                }
                ScriptOp::Lookup { key } => {
                    if partition.lookup_copy(key, &mut buf) {
                        CompletionKind::LookupHit(ValueBytes::from_slice(&buf))
                    } else {
                        CompletionKind::LookupMiss
                    }
                }
                ScriptOp::Delete { key } => CompletionKind::Deleted(partition.delete(key)),
            };
            (op.key(), kind)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn staged_pipeline_matches_scalar_at_every_depth(
        ops in prop::collection::vec(script_op(), 1..250),
    ) {
        let reference = scalar_reference(&ops, None);
        for batch_size in [1usize, 8, 64] {
            let staged = outcomes(&ops, batch_size, None);
            prop_assert_eq!(
                &reference,
                &staged,
                "depth {} diverged from the scalar reference",
                batch_size
            );
        }
    }

    #[test]
    fn equivalence_holds_under_eviction_pressure(
        ops in prop::collection::vec(script_op(), 1..200),
    ) {
        // A tight byte budget makes inserts evict (LRU order is part of
        // the observable behaviour: a diverging pipeline would surface as
        // different lookup hits/misses).  Depths are compared with each
        // other, not with the scalar reference (see the module docs).
        let capacity = Some(2 * 1024);
        let reference = outcomes(&ops, 1, capacity);
        for batch_size in [8usize, 64] {
            let staged = outcomes(&ops, batch_size, capacity);
            prop_assert_eq!(
                &reference,
                &staged,
                "depth {} diverged from depth 1 under eviction",
                batch_size
            );
        }
    }
}

/// Values read back through the staged pipeline are bit-exact (not just
/// hit/miss-equivalent): a hand-built mixed workload with verification of
/// every byte, at a non-default depth.
#[test]
fn staged_pipeline_round_trips_values_exactly() {
    let config = CpHashConfig {
        ring_capacity: 64,
        batch_size: 7, // deliberately odd, not a power of two
        ..CpHashConfig::new(2, 1)
    };
    let (mut table, mut clients) = CpHash::new(config);
    let client = &mut clients[0];
    for key in 0..500u64 {
        assert!(client.insert(key, &value_for(key, 0, 24)).unwrap());
    }
    for key in 0..500u64 {
        let got = client.get(key).unwrap().expect("key present");
        assert_eq!(got.as_slice(), value_for(key, 0, 24), "key {key}");
    }
    for key in (0..500u64).step_by(2) {
        assert!(client.delete(key).unwrap());
    }
    for key in 0..500u64 {
        assert_eq!(client.get(key).unwrap().is_some(), key % 2 == 1);
    }
    let snapshot = table.snapshot();
    assert!(
        snapshot.batch.batches > 0 && snapshot.batch.prefetches > 0,
        "the staged pipeline actually ran: {:?}",
        snapshot.batch
    );
    drop(clients);
    table.shutdown();
}
