//! In-memory spans for the traced run.
//!
//! The generator records one span around every `submit` and
//! `poll_completions` call it makes, parented to the span of the phase it
//! runs in.  Per-phase totals cover every call; the individual spans are
//! kept up to a fixed count and written out as JSON lines when the run
//! ends.  Stamps are TSC cycles (`cphash_perfmon::cycles_now`), converted
//! to nanoseconds with a rate measured over the run.

use std::io::Write;
use std::time::Instant;

use cphash_perfmon::cycles_now;

/// What a client call span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Submit = 0,
    /// A poll that returned at least one completion.
    Poll = 1,
    /// A poll that returned nothing: time spent waiting on the server.
    PollIdle = 2,
}

const CALL_NAMES: [&str; 3] = ["submit", "poll", "poll_idle"];

/// Spans kept for the output file; later spans only feed the totals.
const KEEP_SPANS: usize = 1 << 16;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<u32>,
    start: u64,
    end: u64,
}

/// Totals of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTotals {
    pub phase_cycles: u64,
    pub call_cycles: [u64; 3],
    pub calls: [u64; 3],
    /// Completions the productive polls returned.
    pub completions: u64,
}

impl PhaseTotals {
    /// The phase's own time: its span minus the client calls inside it.
    pub fn self_cycles(&self) -> u64 {
        self.phase_cycles
            .saturating_sub(self.call_cycles.iter().sum::<u64>())
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    kept: Vec<Span>,
    dropped: u64,
    phase: Option<u32>,
    totals: PhaseTotals,
    /// Clock pairs for converting cycles to nanoseconds.
    epoch: (Instant, u64),
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            kept: Vec::with_capacity(KEEP_SPANS),
            dropped: 0,
            phase: None,
            totals: PhaseTotals::default(),
            epoch: (Instant::now(), cycles_now()),
        }
    }

    /// TSC cycles per nanosecond, measured since the recorder was made.
    pub fn cycles_per_ns(&self) -> f64 {
        let ns = self.epoch.0.elapsed().as_nanos() as f64;
        let cycles = cycles_now().wrapping_sub(self.epoch.1) as f64;
        if ns > 0.0 && cycles > 0.0 {
            cycles / ns
        } else {
            1.0
        }
    }

    /// Open a phase span; calls recorded until [`Spans::end_phase`] are
    /// its children.
    pub fn begin_phase(&mut self, name: &'static str) {
        self.totals = PhaseTotals::default();
        let id = self.kept.len() as u32;
        let now = cycles_now();
        self.kept.push(Span {
            name,
            parent: None,
            start: now,
            end: now,
        });
        self.phase = Some(id);
    }

    pub fn end_phase(&mut self) -> PhaseTotals {
        if let Some(id) = self.phase.take() {
            let span = &mut self.kept[id as usize];
            span.end = cycles_now();
            self.totals.phase_cycles = span.end.wrapping_sub(span.start);
        }
        self.totals
    }

    /// Record one client call that ran from `start` to `end` (cycles).
    #[inline]
    pub fn call(&mut self, call: Call, start: u64, end: u64, completions: usize) {
        let i = call as usize;
        self.totals.call_cycles[i] += end.wrapping_sub(start);
        self.totals.calls[i] += 1;
        self.totals.completions += completions as u64;
        if self.kept.len() < KEEP_SPANS {
            self.kept.push(Span {
                name: CALL_NAMES[i],
                parent: self.phase,
                start,
                end,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Write the kept spans as JSON lines (times in ns since the first
    /// span), followed by a line counting the spans not kept.
    pub fn write_jsonl(&self, out: impl Write) -> std::io::Result<()> {
        let per_ns = self.cycles_per_ns();
        let origin = self.kept.first().map_or(0, |s| s.start);
        let ns = |c: u64| (c.wrapping_sub(origin) as f64 / per_ns) as u64;
        let mut out = std::io::BufWriter::new(out);
        for (id, s) in self.kept.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                ns(s.start),
                ns(s.end)
            )?;
        }
        writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_phase_minus_calls_and_spans_are_parented() {
        let mut s = Spans::new();
        s.begin_phase("closed");
        let t = cycles_now();
        s.call(Call::Submit, t, t + 10, 0);
        s.call(Call::PollIdle, t + 10, t + 15, 0);
        s.call(Call::Poll, t + 15, t + 35, 4);
        let totals = s.end_phase();
        assert_eq!(totals.call_cycles, [10, 20, 5]);
        assert_eq!(totals.calls, [1, 1, 1]);
        assert_eq!(totals.completions, 4);
        assert_eq!(totals.self_cycles(), totals.phase_cycles.saturating_sub(35));
        assert!(s.kept[1..].iter().all(|c| c.parent == Some(0)));

        let mut bytes = Vec::new();
        s.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("\"name\":\"poll_idle\",\"parent\":0"));
    }
}
