//! Figures 6 and 7: per-operation cycle counts and per-function cache-miss
//! breakdowns for CPHash (client and server threads) and LockHash, at the
//! 1 MB working-set configuration.
//!
//! Hardware performance counters are replaced by the software cache model in
//! `cphash-cachesim` (see that crate's docs); the harness prints the model's
//! numbers next to the paper's.

use cphash_bench::{figures, HarnessArgs, MachineScale};

fn main() {
    let args = HarnessArgs::from_env();
    let scale = MachineScale::detect(args.threads);
    println!("{}\n", scale.describe());
    let ops = args.ops_or(200_000);
    let text = figures::breakdown_tables(&scale, ops);
    println!("{text}");
    if let Some(path) = &args.csv_path {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}
