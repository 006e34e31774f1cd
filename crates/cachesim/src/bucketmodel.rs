//! Per-probe cache-line cost of the two bucket layouts.
//!
//! The tagged inline bucket layout (`cphash_hashcore::Partition`'s only
//! layout) exists for one reason: under a chained layout (bare head array,
//! kept as a comparator in `cphash_bench::chain_probe`) the staged pipeline's
//! prefetch pass must *read* the bucket head to learn the first element's
//! address — a demand DRAM miss that serializes the staging loop — and a
//! lookup then walks one element-header line per chain position.  Packing
//! the first [`BucketProbeModel::inline_slots`] entries as 8-bit key tags
//! plus element refs into the bucket's own 64-byte line makes staging pure
//! address arithmetic (the hint needs no table read), lets tag mismatches
//! reject without touching the element arena at all, and resolves tag hits
//! with exactly one further element line.
//!
//! This module quantifies that difference analytically, the same way
//! [`crate::costmodel`] turns miss counts into cycles: given a load factor
//! (expected elements per bucket, Poisson-distributed occupancy), a lookup
//! hit rate, and the line geometry, it reports the expected number of
//! table cache lines a probe touches under each layout — split into lines
//! whose address is known during staging (prefetchable, so their latency
//! overlaps across the batch) and lines that remain *exposed* (demand
//! reads the pipeline cannot hide).  The ratio of exposed lines is the
//! model's prediction for the inline layout's speedup on DRAM-resident
//! working sets, and `ablate_prefetch` prints it next to the measured
//! numbers so the claim is falsifiable.

use serde::{Deserialize, Serialize};

/// Analytic model of one lookup probe's cache-line traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BucketProbeModel {
    /// Expected elements per bucket (the table's load factor); bucket
    /// occupancy is modelled as Poisson with this mean.
    pub load_factor: f64,
    /// Fraction of lookups that find their key.
    pub hit_rate: f64,
    /// Tagged entries packed into the bucket's own cache line
    /// (`cphash_hashcore::INLINE_SLOTS`; 7 for 64-byte lines).
    pub inline_slots: usize,
    /// Width of the per-entry key tag in bits (8: one byte per slot).
    pub tag_bits: u32,
}

impl Default for BucketProbeModel {
    fn default() -> Self {
        // The fig05/ablation regime: ~1 element per bucket, 95% lookup
        // hits, the 64-byte line geometry.
        BucketProbeModel {
            load_factor: 1.0,
            hit_rate: 0.95,
            inline_slots: 7,
            tag_bits: 8,
        }
    }
}

/// Expected cache-line traffic of one probe under one layout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeCost {
    /// Table lines the *staging* pass must demand-read before it can issue
    /// its prefetch (serialized: each read stalls the staging loop).
    pub staged_lines: f64,
    /// Expected table lines the probe touches at execute time (bucket
    /// metadata plus element headers; value lines excluded).
    pub probe_lines: f64,
    /// Of `probe_lines`, how many have addresses known during staging and
    /// are therefore covered by the batch prefetch (latency overlapped).
    pub prefetched_lines: f64,
    /// Lines whose latency the pipeline cannot hide: staging demand reads
    /// plus execute-time reads that were not prefetchable.
    pub exposed_lines: f64,
}

impl BucketProbeModel {
    /// Poisson tail: expected number of elements *beyond* the first
    /// `inline_slots` in a bucket, i.e. the mean overflow-chain length.
    fn expected_overflow(&self) -> f64 {
        let a = self.load_factor.max(0.0);
        let n = self.inline_slots;
        // E[(X - n)^+] for X ~ Poisson(a), summed until the pmf vanishes.
        let mut pmf = (-a).exp(); // P(X = 0)
        let mut sum = 0.0;
        for k in 1..(n + 64) {
            pmf *= a / k as f64;
            if k > n {
                sum += (k - n) as f64 * pmf;
            }
        }
        sum
    }

    /// Probability a bucket holds at least one element.
    fn occupied(&self) -> f64 {
        1.0 - (-self.load_factor.max(0.0)).exp()
    }

    /// Probe cost under the chained layout (the bench-local
    /// `cphash_bench::chain_probe::ChainProbe`): a bare head array, every
    /// element reached through its header line.
    pub fn chain(&self) -> ProbeCost {
        let a = self.load_factor.max(0.0);
        let h = self.hit_rate.clamp(0.0, 1.0);
        // Staging must read the head line to learn the first element's
        // address (and to skip empty buckets) — one serialized demand read
        // per operation, which is the layout's hidden cost.
        let staged_lines = 1.0;
        // A hit walks to the key's chain position (uniform ⇒ half the
        // chain on average, at least one header); a miss walks the whole
        // chain.
        let hit_walk = ((a + 1.0) / 2.0).max(1.0);
        let probe_lines = h * hit_walk + (1.0 - h) * a;
        // The staging pass prefetches the head element's line whenever the
        // chain is non-empty; deeper elements are discovered too late.
        let prefetched_lines = self.occupied().min(probe_lines);
        ProbeCost {
            staged_lines,
            probe_lines,
            prefetched_lines,
            exposed_lines: staged_lines + probe_lines - prefetched_lines,
        }
    }

    /// Probe cost under the tagged inline layout (`cphash_hashcore::Partition`).
    pub fn inline(&self) -> ProbeCost {
        let a = self.load_factor.max(0.0);
        let h = self.hit_rate.clamp(0.0, 1.0);
        // Staging is pure address arithmetic: bucket index → line address.
        let staged_lines = 0.0;
        // Every probe reads the bucket line.  A hit confirms the tag match
        // with one element line.  A miss touches an element line only on a
        // tag false positive (each of the ~a occupied slots matches a
        // random tag with probability 2^-tag_bits), and walks the overflow
        // chain only past the inline capacity (Poisson tail).
        let false_positives = a / (1u64 << self.tag_bits) as f64;
        let overflow = self.expected_overflow();
        let probe_lines = 1.0 + h * 1.0 + (1.0 - h) * false_positives + overflow;
        // The bucket line itself is always prefetchable; the element line
        // behind a tag hit is discovered only after the line is read.
        let prefetched_lines = 1.0;
        ProbeCost {
            staged_lines,
            probe_lines,
            prefetched_lines,
            exposed_lines: staged_lines + probe_lines - prefetched_lines,
        }
    }

    /// Predicted speedup of the inline layout over the chained layout on a
    /// DRAM-resident working set: the ratio of exposed (unhidden) lines
    /// per probe.  > 1 means the inline layout wins.
    pub fn exposed_miss_reduction(&self) -> f64 {
        let chain = self.chain().exposed_lines;
        let inline = self.inline().exposed_lines;
        if inline <= 0.0 {
            return f64::INFINITY;
        }
        chain / inline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_regime_predicts_the_ablation_gate() {
        // α = 1, 95% hits, N = 7: the model must predict at least the
        // 1.1× exposed-miss reduction `ablate_prefetch --strict` gates on.
        let m = BucketProbeModel::default();
        let chain = m.chain();
        let inline = m.inline();
        assert!(chain.exposed_lines > inline.exposed_lines);
        assert!(
            m.exposed_miss_reduction() > 1.1,
            "predicted reduction {:.2} too small (chain {:.3} vs inline {:.3})",
            m.exposed_miss_reduction(),
            chain.exposed_lines,
            inline.exposed_lines
        );
    }

    #[test]
    fn inline_staging_reads_nothing() {
        let m = BucketProbeModel::default();
        assert_eq!(m.inline().staged_lines, 0.0);
        assert_eq!(m.chain().staged_lines, 1.0);
    }

    #[test]
    fn overflow_tail_is_negligible_at_paper_load_factors() {
        // With ~1 element per bucket and 7 inline slots, overflowing a
        // bucket needs 8+ keys to collide: essentially never.
        let m = BucketProbeModel::default();
        assert!(m.expected_overflow() < 1e-3);
        // Past the inline capacity the tail grows quickly.
        let crowded = BucketProbeModel {
            load_factor: 12.0,
            ..m
        };
        assert!(crowded.expected_overflow() > 4.0);
    }

    #[test]
    fn tag_misses_reject_without_element_reads() {
        // An all-miss workload under the inline layout touches almost only
        // the bucket line: false positives are ~α/256 per probe.
        let m = BucketProbeModel {
            hit_rate: 0.0,
            ..BucketProbeModel::default()
        };
        let cost = m.inline();
        assert!(cost.probe_lines < 1.01, "probe lines {}", cost.probe_lines);
        // The chained layout still walks the whole chain on a miss.
        assert!(m.chain().probe_lines > 0.9);
    }

    #[test]
    fn reduction_grows_with_chain_length() {
        let short = BucketProbeModel {
            load_factor: 0.5,
            ..BucketProbeModel::default()
        };
        let long = BucketProbeModel {
            load_factor: 4.0,
            ..BucketProbeModel::default()
        };
        assert!(long.exposed_miss_reduction() > short.exposed_miss_reduction());
    }

    #[test]
    fn degenerate_inputs_stay_finite() {
        let m = BucketProbeModel {
            load_factor: 0.0,
            hit_rate: 0.0,
            ..BucketProbeModel::default()
        };
        assert!(m.chain().exposed_lines.is_finite());
        assert!(m.inline().exposed_lines.is_finite());
        assert!(m.exposed_miss_reduction().is_finite() || m.inline().exposed_lines <= 0.0);
    }
}
