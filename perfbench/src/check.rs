//! Output checking and failure accounting.
//!
//! Every completion is checked against the operation that produced it.
//! A failed operation is any of: `Failed(_)`, `InsertFailed`, a hit whose
//! bytes differ from the key's value, a miss where the workload forbids
//! misses, a completion of the wrong kind, and every operation still
//! pending on a connection that died.  Mismatched hits and wrong kinds are
//! also output-check failures, which make the whole run incorrect.

use cphash::CompletionKind;

use crate::workload::{Keyspace, Op, OpKind};

/// Counts of everything the run attempted and how it ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub lookups: u64,
    pub hits: u64,
    /// Hits whose bytes differed from the key's value.
    pub mismatched: u64,
    /// Misses where the workload forbids them.
    pub forbidden_misses: u64,
    pub insert_failed: u64,
    /// `Failed(_)` completions.
    pub op_errors: u64,
    /// Completions of a kind the operation cannot produce, or for no
    /// operation in flight.
    pub wrong_kind: u64,
    /// Operations lost with a dead connection.
    pub lost: u64,
}

impl Tally {
    /// Count one completion of an operation of `kind`; `expected` yields
    /// the key's value (called only for lookup hits).  Returns whether the
    /// operation succeeded.
    pub fn record<'a>(
        &mut self,
        kind: OpKind,
        outcome: &CompletionKind,
        miss_is_failure: bool,
        expected: impl FnOnce() -> &'a [u8],
    ) -> bool {
        self.attempted += 1;
        let ok = match (kind, outcome) {
            (_, CompletionKind::Failed(_)) => {
                self.op_errors += 1;
                false
            }
            (OpKind::Lookup, CompletionKind::LookupHit(value)) => {
                self.lookups += 1;
                self.hits += 1;
                let matches = value.as_slice() == expected();
                self.mismatched += u64::from(!matches);
                matches
            }
            (OpKind::Lookup, CompletionKind::LookupMiss) => {
                self.lookups += 1;
                self.forbidden_misses += u64::from(miss_is_failure);
                !miss_is_failure
            }
            (OpKind::Insert, CompletionKind::Inserted) => true,
            (OpKind::Insert, CompletionKind::InsertFailed) => {
                self.insert_failed += 1;
                false
            }
            (OpKind::Delete, CompletionKind::Deleted(_)) => true,
            _ => {
                self.wrong_kind += 1;
                false
            }
        };
        self.failed += u64::from(!ok);
        ok
    }

    /// Count `n` operations lost with a dead connection.
    pub fn record_lost(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
        self.lost += n;
    }

    /// Count a completion whose token matches no operation in flight.
    pub fn record_stray(&mut self) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong_kind += 1;
    }

    /// Did every output check pass?  (Failed operations of the other
    /// kinds are counted, not treated as wrong output.)
    pub fn outputs_correct(&self) -> bool {
        self.mismatched == 0 && self.wrong_kind == 0
    }

    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.lookups += o.lookups;
        self.hits += o.hits;
        self.mismatched += o.mismatched;
        self.forbidden_misses += o.forbidden_misses;
        self.insert_failed += o.insert_failed;
        self.op_errors += o.op_errors;
        self.wrong_kind += o.wrong_kind;
        self.lost += o.lost;
    }

    pub fn fail_ratio(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }

    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.lookups)
    }

    /// One-line summary of the failure causes.
    pub fn describe(&self) -> String {
        format!(
            "attempted={} failed={} (mismatched={} forbidden_misses={} insert_failed={} \
             op_errors={} wrong_kind={} lost={})",
            self.attempted,
            self.failed,
            self.mismatched,
            self.forbidden_misses,
            self.insert_failed,
            self.op_errors,
            self.wrong_kind,
            self.lost
        )
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Checks completions against the keyspace's values, into a [`Tally`].
#[derive(Debug, Clone)]
pub struct Checker {
    keyspace: Keyspace,
    miss_is_failure: bool,
    scratch: Vec<u8>,
    pub tally: Tally,
}

impl Checker {
    pub fn new(keyspace: Keyspace, miss_is_failure: bool) -> Checker {
        Checker {
            keyspace,
            miss_is_failure,
            scratch: Vec::with_capacity(1024),
            tally: Tally::default(),
        }
    }

    /// Check the completion of `op`; returns whether the op succeeded.
    pub fn check(&mut self, op: Op, outcome: &CompletionKind) -> bool {
        let (keyspace, scratch) = (&self.keyspace, &mut self.scratch);
        self.tally
            .record(op.kind, outcome, self.miss_is_failure, move || {
                keyspace.value(op.key, scratch);
                scratch.as_slice()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cphash::{OpError, ValueBytes};

    fn value() -> &'static [u8] {
        b"expected"
    }

    fn hit(bytes: &[u8]) -> CompletionKind {
        CompletionKind::LookupHit(ValueBytes::from_slice(bytes))
    }

    #[test]
    fn good_completions_pass() {
        let mut t = Tally::default();
        assert!(t.record(OpKind::Lookup, &hit(b"expected"), true, value));
        assert!(t.record(OpKind::Insert, &CompletionKind::Inserted, true, value));
        assert!(t.record(OpKind::Delete, &CompletionKind::Deleted(false), true, value));
        assert!(t.record(OpKind::Lookup, &CompletionKind::LookupMiss, false, value));
        assert_eq!((t.attempted, t.failed, t.lookups, t.hits), (4, 0, 2, 1));
        assert!(t.outputs_correct());
    }

    #[test]
    fn insert_failed_counts_as_a_failed_op() {
        let mut t = Tally::default();
        assert!(!t.record(OpKind::Insert, &CompletionKind::InsertFailed, false, value));
        assert_eq!((t.failed, t.insert_failed), (1, 1));
        assert!(t.outputs_correct(), "a refused insert is not wrong output");
        assert_eq!(t.fail_ratio(), 1.0);
    }

    #[test]
    fn corrupted_hit_fails_the_output_check() {
        let mut t = Tally::default();
        assert!(!t.record(OpKind::Lookup, &hit(b"expectex"), false, value));
        assert!(!t.record(OpKind::Lookup, &hit(b"expect"), false, value));
        assert_eq!((t.failed, t.mismatched), (2, 2));
        assert!(!t.outputs_correct());
    }

    #[test]
    fn errors_misses_wrong_kinds_and_lost_ops_fail() {
        let mut t = Tally::default();
        let err = CompletionKind::Failed(OpError::Internal);
        assert!(!t.record(OpKind::Lookup, &err, false, value));
        assert!(!t.record(OpKind::Lookup, &CompletionKind::LookupMiss, true, value));
        assert!(!t.record(OpKind::Lookup, &CompletionKind::Inserted, false, value));
        t.record_lost(3);
        t.record_stray();
        assert_eq!((t.attempted, t.failed), (7, 7));
        assert_eq!(
            (t.op_errors, t.forbidden_misses, t.wrong_kind, t.lost),
            (1, 1, 2, 3)
        );
        assert!(!t.outputs_correct());
    }

    #[test]
    fn checker_compares_against_the_keyspace_value() {
        let spec = crate::workload::spec("tcp-write").unwrap();
        let keyspace = Keyspace::new(&spec, 3);
        let mut good = Vec::new();
        keyspace.value(9, &mut good);
        let mut bad = good.clone();
        bad[100] ^= 1;
        let mut checker = Checker::new(keyspace, false);
        let op = Op {
            kind: OpKind::Lookup,
            key: 9,
        };
        assert!(checker.check(op, &hit(&good)));
        assert!(!checker.check(op, &hit(&bad)));
        assert_eq!((checker.tally.hits, checker.tally.mismatched), (2, 1));
    }
}
