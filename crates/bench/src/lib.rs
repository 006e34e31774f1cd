//! Shared harness code for the figure-regenerating benchmark binaries.
//!
//! Every table and figure in the paper's evaluation (§6 and §7) has a
//! corresponding binary in `src/bin/` (`fig05_working_set`, …,
//! `fig14_memcached`, plus `ablate_*` binaries for design-choice ablations).
//! They all share the same plumbing, which lives here:
//!
//! * [`args::HarnessArgs`] — a tiny `--quick` / `--ops` / `--csv` argument
//!   parser so every binary behaves the same way.
//! * [`scale::MachineScale`] — maps the paper's 80-core machine onto
//!   whatever this host offers (thread counts, partition counts, scaled
//!   working-set sweeps), and records the mapping so EXPERIMENTS.md can
//!   show both.
//! * [`figures`] — the sweep implementations used by the binaries.
//! * [`paper`] — the paper's own headline numbers, printed next to measured
//!   results for easy comparison.
//! * [`chain_probe`] — a chained-bucket table, the comparator
//!   `ablate_prefetch` gates the shipped inline bucket layout against.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod args;
pub mod chain_probe;
pub mod figures;
pub mod live;
pub mod paper;
pub mod scale;

pub use args::HarnessArgs;
pub use scale::MachineScale;

use cphash_perfmon::FigureReport;

/// The xorshift64* step shared by harness binaries that need a cheap
/// deterministic stream (e.g. `ablate_prefetch`'s key mix).
pub fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Print a finished figure to stdout (human table plus CSV block) and, if
/// requested, write the CSV to a file.
pub fn emit_report(report: &FigureReport, args: &HarnessArgs) {
    println!("{}", report.to_table());
    println!("--- CSV ---\n{}", report.to_csv());
    if let Some(path) = &args.csv_path {
        if let Err(e) = std::fs::write(path, report.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("(CSV written to {})", path.display());
        }
    }
}
