//! Linux process plumbing the benchmark needs and `std` does not offer:
//! CPU affinity, per-process and per-thread CPU clocks, and the few
//! `/proc` files behind the memory, system-time and thread-id figures.
//!
//! The libc symbols are declared directly, the same idiom as
//! `crates/util/src/poll.rs`: `std` already links libc, so the package
//! stays free of registry dependencies.

use std::io;
use std::os::raw::{c_int, c_long};

/// Room for 1024 CPUs, the kernel's default `CPU_SETSIZE`.
const CPU_WORDS: usize = 16;

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    // SAFETY (of the declarations): these match the glibc/musl prototypes
    // on every Linux target (`pid_t` and `clockid_t` are `int`, `cpu_set_t`
    // is an array of unsigned longs).
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

fn affinity_mask() -> io::Result<[u64; CPU_WORDS]> {
    let mut mask = [0u64; CPU_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(mask)
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mask = affinity_mask()?;
    Ok((0..CPU_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect())
}

/// Pins the calling thread to `cpu` and reads the mask back, so a kernel
/// that accepts the call but keeps a wider mask is reported as a failure.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    let mut mask = [0u64; CPU_WORDS];
    *mask.get_mut(cpu / 64).ok_or_else(|| io::Error::other(format!("cpu {cpu} out of range")))? =
        1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed, only read
    // by the kernel; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    if affinity_mask()? != mask {
        return Err(io::Error::other(format!("affinity mask did not narrow to cpu {cpu}")));
    }
    Ok(())
}

fn cpu_clock_ns(clock: c_int) -> Option<u64> {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// CPU time consumed by the whole process so far, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID).expect("CLOCK_PROCESS_CPUTIME_ID is always readable")
}

/// CPU time consumed by the calling thread so far, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID).expect("CLOCK_THREAD_CPUTIME_ID is always readable")
}

/// CPU time consumed so far by thread `tid` of this process, or `None` once
/// the thread has exited. The clock id is the kernel's per-thread encoding
/// (`MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)`), the one
/// `pthread_getcpuclockid` hands out.
pub fn thread_cpu_ns_of(tid: i32) -> Option<u64> {
    cpu_clock_ns((!tid << 3) | 6)
}

/// Summed CPU time of the threads in `tids` that are still alive.
pub fn threads_cpu_ns(tids: &[i32]) -> u64 {
    tids.iter().filter_map(|&t| thread_cpu_ns_of(t)).sum()
}

/// Thread ids of this process, from `/proc/self/task`. Listing it before
/// and after a library call that spawns threads names the threads the call
/// started, which is how the server's reactors get their own CPU clocks
/// without a line changed inside the server.
pub fn task_ids() -> Vec<i32> {
    let mut ids: Vec<i32> = std::fs::read_dir("/proc/self/task")
        .map(|dir| dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok()).collect())
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

/// The thread ids in `after` that `before` lacks.
pub fn new_tasks(before: &[i32], after: &[i32]) -> Vec<i32> {
    after.iter().copied().filter(|t| before.binary_search(t).is_err()).collect()
}

/// The calling thread's id.
pub fn current_tid() -> Option<i32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(utime, stime)` of this process in clock ticks, from `/proc/self/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields count from the
    // closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// What the numbers were measured on. Printed with every result, because a
/// rate without its core count and pinning is not reproducible.
#[derive(Clone, Debug)]
pub struct Host {
    /// CPUs this process may run on.
    pub cpus: Vec<usize>,
    /// `model name` from `/proc/cpuinfo`.
    pub model: String,
    /// Kernel release.
    pub kernel: String,
    /// Commit of the checkout the benchmark runs in, when it is a git one.
    pub commit: String,
}

impl Host {
    /// Reads the fingerprint of the current host and working directory.
    pub fn read() -> io::Result<Host> {
        let model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Ok(Host { cpus: allowed_cpus()?, model, kernel, commit: git_commit() })
    }
}

/// The checked-out commit, read from `.git` directly (no `git` process);
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let resolved = read(".git/HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            let packed = read(".git/packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(r))?;
            Some(line.split_whitespace().next()?.to_string())
        }),
    });
    match resolved {
        Some(hash) if hash.len() >= 12 => hash[..12].to_string(),
        _ => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clock_by_tid_tracks_the_threads_own_clock() {
        let tid = current_tid().expect("/proc/thread-self");
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let own = thread_cpu_ns();
        let by_tid = thread_cpu_ns_of(tid).expect("live thread");
        assert!(by_tid >= own && by_tid - own < 50_000_000, "own {own} by_tid {by_tid}");
        assert!(thread_cpu_ns_of(i32::MAX - 7).is_none());
    }

    #[test]
    fn task_diff_names_a_spawned_thread() {
        let before = task_ids();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || rx.recv().ok());
        let fresh = new_tasks(&before, &task_ids());
        tx.send(()).unwrap();
        handle.join().unwrap();
        assert!(!fresh.is_empty());
    }

    #[test]
    fn proc_readers_parse() {
        assert!(vm_hwm_mb().unwrap() > 0.0);
        assert!(cpu_ticks().is_some());
        assert!(!allowed_cpus().unwrap().is_empty());
    }
}
