//! Readers for the `/proc` counters the benchmark samples: peak RSS,
//! per-thread CPU time and run-queue wait, and the calling thread's
//! read/write syscall counts.

use std::fs;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host-wide CPU time and the part of it stolen by the hypervisor (time
/// a vCPU wanted to run while the host ran something else), in clock
/// ticks, from the first line of `/proc/stat`.
pub fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// CPU time on a core and time spent runnable but waiting for one, in ns
/// (`schedstat` fields 1 and 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sched {
    pub run_ns: u64,
    pub wait_ns: u64,
}

impl Sched {
    fn parse(text: &str) -> Sched {
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        Sched {
            run_ns: fields.next().unwrap_or(0),
            wait_ns: fields.next().unwrap_or(0),
        }
    }

    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// The calling thread's scheduler counters.
pub fn own_sched() -> Sched {
    Sched::parse(&fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default())
}

/// Scheduler counters summed over this process's threads whose name
/// starts with `prefix`, with the number of such threads.
pub fn threads_sched(prefix: &str) -> (Sched, usize) {
    let mut total = Sched::default();
    let mut count = 0;
    for (tid, comm) in threads() {
        if !comm.starts_with(prefix) {
            continue;
        }
        let path = format!("/proc/self/task/{tid}/schedstat");
        let s = Sched::parse(&fs::read_to_string(path).unwrap_or_default());
        total.run_ns += s.run_ns;
        total.wait_ns += s.wait_ns;
        count += 1;
    }
    (total, count)
}

/// Place this process's threads: the `servers` threads named
/// `server_prefix` (the table's partition servers) share the last CPU,
/// every other thread (the generator, front-end workers) the rest, as the
/// paper gives server threads cores of their own.  With three busy threads
/// on two CPUs and no placement, the scheduler moves them between pairings
/// that differ twofold in throughput.  A new thread takes its name a moment
/// after it starts, so this waits (up to a second) until all `servers` are
/// named.  Returns whether every server was placed.
pub fn place_threads(server_prefix: &str, servers: usize) -> bool {
    // Counted once, before the first placement narrows this thread's mask.
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let cpus = *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    if cpus < 2 {
        return false;
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    loop {
        let tasks = threads();
        let named = tasks
            .iter()
            .filter(|(_, comm)| comm.starts_with(server_prefix))
            .count();
        if named >= servers || std::time::Instant::now() > deadline {
            let mut placed = 0;
            for (tid, comm) in &tasks {
                let server = comm.starts_with(server_prefix);
                let cpu_range = if server { cpus - 1..cpus } else { 0..cpus - 1 };
                placed += usize::from(server && set_affinity(*tid, cpu_range));
                if !server {
                    set_affinity(*tid, 0..cpus - 1);
                }
            }
            return placed >= servers;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// This process's threads: (tid, name).
fn threads() -> Vec<(libc::pid_t, String)> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|task| {
            let tid = task.file_name().to_string_lossy().parse().ok()?;
            let comm = fs::read_to_string(task.path().join("comm")).ok()?;
            Some((tid, comm.trim_end().to_string()))
        })
        .collect()
}

/// Restrict thread `tid` to `cpus`; false if the kernel refused.
fn set_affinity(tid: libc::pid_t, cpus: std::ops::Range<usize>) -> bool {
    // SAFETY: an all-zero `cpu_set_t` is a valid empty mask.
    let mut mask: libc::cpu_set_t = unsafe { std::mem::zeroed() };
    for cpu in cpus {
        // SAFETY: `mask` is a valid, exclusively borrowed `cpu_set_t`.
        unsafe { libc::CPU_SET(cpu, &mut mask) };
    }
    // SAFETY: `mask` outlives the call and its size is passed; a tid that
    // has exited makes the call fail, which is reported, not acted on.
    unsafe { libc::sched_setaffinity(tid, std::mem::size_of_val(&mask), &mask) == 0 }
}

/// Kernel-mode CPU time of the calling thread, in ns (`stime` of
/// `/proc/thread-self/stat`, in USER_HZ = 100 ticks per second).
pub fn own_kernel_ns() -> u64 {
    let stat = fs::read_to_string("/proc/thread-self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; stime is field 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace()
        .nth(12)
        .and_then(|f| f.parse::<u64>().ok())
        .map_or(0, |ticks| ticks * 10_000_000)
}

/// Read- plus write-class syscalls the calling thread has made
/// (`syscr + syscw` of `/proc/thread-self/io`).
pub fn own_syscalls() -> u64 {
    let io = fs::read_to_string("/proc/thread-self/io").unwrap_or_default();
    io.lines()
        .filter_map(|l| {
            let (name, value) = l.split_once(':')?;
            matches!(name, "syscr" | "syscw").then(|| value.trim().parse::<u64>().ok())?
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable() {
        assert!(peak_rss_mib() > 0.0);
        let (steal, total) = host_cpu_ticks();
        assert!(total > 0 && steal <= total);
        let kernel = own_kernel_ns();
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            let _ = fs::metadata("/proc/self");
        }
        assert!(
            own_kernel_ns() > kernel,
            "50 ms of syscalls shows as kernel time"
        );
        let before = own_syscalls();
        let _ = fs::read_to_string("/proc/self/stat");
        assert!(own_syscalls() > before);
        let spinner = std::thread::Builder::new()
            .name("probe-spin".into())
            .spawn(|| {
                let t = std::time::Instant::now();
                while t.elapsed().as_millis() < 30 {
                    std::hint::spin_loop();
                }
                threads_sched("probe-spin")
            })
            .unwrap();
        let (sched, n) = spinner.join().unwrap();
        assert_eq!(n, 1);
        assert!(sched.run_ns > 0);
        assert_eq!(
            Sched::parse("5 7 9").since(Sched::parse("2 3 1")).wait_ns,
            4
        );
    }
}
