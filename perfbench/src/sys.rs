//! Host measurements the simulator crates do not expose: process CPU
//! time and voluntary context switches (`getrusage`), peak resident set
//! (`VmHWM`), CPU pinning of the measuring processes, and the host
//! description recorded as provenance.

use std::path::Path;

/// Process-wide resource usage at one instant, summed over every thread
/// the process has run (live and exited).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary context switches.
    pub vcsw: u64,
}

impl Usage {
    /// The usage accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vcsw: self.vcsw.saturating_sub(earlier.vcsw),
        }
    }

    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod ffi {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen
    /// `long` counters (`ru_maxrss` … `ru_nivcsw`).
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub counters: [i64; 14],
    }

    /// Index of `ru_nvcsw` in [`Rusage::counters`].
    pub const NVCSW: usize = 12;

    /// `RUSAGE_SELF`.
    pub const SELF: i32 = 0;

    /// `cpu_set_t`: a 1024-bit CPU mask.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
}

/// The calling process's resource usage so far.
///
/// # Panics
///
/// If `getrusage` fails, which it cannot for `RUSAGE_SELF` and a valid
/// buffer.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    let mut raw = ffi::Rusage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the 64-bit
    // Linux layout declared above, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { ffi::getrusage(ffi::SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &ffi::Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&raw.utime),
        sys_s: secs(&raw.stime),
        vcsw: raw.counters[ffi::NVCSW].max(0) as u64,
    }
}

/// Fallback for hosts without the Linux `rusage` layout: no CPU data.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn usage() -> Usage {
    Usage::default()
}

/// The CPU a measuring process runs on: the highest-numbered CPU the
/// calling thread may use, or `None` when its mask cannot be read.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn measuring_cpu() -> Option<usize> {
    let size = std::mem::size_of::<ffi::CpuSet>();
    let mut mask: ffi::CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable `cpu_set_t` of `size` bytes;
    // pid 0 names the calling thread.
    if unsafe { ffi::sched_getaffinity(0, size, &mut mask) } != 0 {
        return None;
    }
    (0..size * 8).rev().find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to [`measuring_cpu`]. Returns that CPU, or `None` when the mask
/// cannot be read or set (the process then runs wherever the scheduler
/// puts it).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = measuring_cpu()?;
    let mut one: ffi::CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t` of the size passed; pid 0
    // names the calling thread.
    (unsafe { ffi::sched_setaffinity(0, std::mem::size_of::<ffi::CpuSet>(), &one) } == 0)
        .then_some(cpu)
}

/// Fallback for hosts without Linux affinity calls: no CPU is chosen.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn measuring_cpu() -> Option<usize> {
    None
}

/// Fallback for hosts without Linux affinity calls: no pinning.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Reads one `Key:   value kB` line of `/proc/self/status`, in kB.
fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// The process's peak resident set size (`VmHWM`) in MB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The git revision of the checkout at `root`, read straight from
/// `.git` (no `git` process), or `"unknown"` outside a repository.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over every file under `dirs` (relative paths and contents, in
/// sorted path order; `target` build directories skipped): identifies
/// the source that was measured even where the checkout carries no git
/// metadata.
pub fn source_digest(root: &Path, dirs: &[&str]) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.file_type() {
                Ok(t) if t.is_dir() && entry.file_name() != "target" => walk(&path, out),
                Ok(t) if t.is_file() => out.push(path),
                _ => {}
            }
        }
    }
    let mut files = Vec::new();
    for dir in dirs {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend_from_slice(
            file.strip_prefix(root).unwrap_or(file).to_string_lossy().as_bytes(),
        );
        bytes.push(0);
        if let Ok(data) = std::fs::read(file) {
            bytes.extend_from_slice(&data);
        }
    }
    format!("{:016x}", regwin_sweep::fnv1a(&bytes))
}
