//! What the kernel knows about this process and its host: CPU clocks,
//! peak resident memory and hypervisor steal, plus the one allocator
//! setting the benchmark makes. Linux with glibc only.

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!(
    "perfbench reads Linux CPU clocks and /proc and sets glibc malloc; \
     it supports 64-bit Linux with glibc only"
);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

const M_ARENA_MAX: i32 = -8;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_secs(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, checked by the compile_error above) for the whole
    // call, and both clock ids are defined by Linux for every process.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User+system CPU seconds consumed by every thread of this process.
pub fn process_cpu_s() -> f64 {
    clock_secs(CLOCK_PROCESS_CPUTIME_ID)
}

/// User+system CPU seconds consumed by the calling thread.
pub fn thread_cpu_s() -> f64 {
    clock_secs(CLOCK_THREAD_CPUTIME_ID)
}

/// Makes every thread allocate from the main malloc arena. glibc gives a
/// new thread whichever arena is free, and the engine starts short-lived
/// pool threads for every batch, so with the default of many arenas the
/// peak resident memory depended on thread timing (35 to 49 MiB on
/// `fleet_backfill` at one seed). Call it before any thread starts.
pub fn single_malloc_arena() {
    // SAFETY: mallopt only sets an allocator parameter; M_ARENA_MAX is one
    // glibc defines, and no other thread is allocating yet.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert_eq!(ok, 1, "mallopt(M_ARENA_MAX, 1) failed");
}

/// Thread CPU seconds [`speed_probe_s`] takes on the reference host: the
/// median over 20 s of probes on the 2-vCPU VM the benchmark was tuned on.
/// It only sets the scale of the figures scaled by it; changing it (or the
/// probe) moves them all.
pub const PROBE_REF_S: f64 = 190e-6;

/// Runs a fixed piece of CPU work that calls no code of the repository,
/// sorting 4096 pseudo-random floats, and returns the thread CPU seconds
/// it took. The VM's vCPUs share their cores with other tenants, and the
/// same work took anywhere from 1x to 1.5x as long from one second to the
/// next; the probe tells how fast the host ran around a measurement.
pub fn speed_probe_s() -> f64 {
    let start = thread_cpu_s();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut v: Vec<f64> = (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 100_000) as f64
        })
        .collect();
    v.sort_unstable_by(f64::total_cmp);
    std::hint::black_box(&v);
    thread_cpu_s() - start
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Seconds the hypervisor ran something else while this host's vCPUs
/// wanted to run, summed over vCPUs (the `steal` column of `/proc/stat`).
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat");
    let cpu = stat.lines().next().expect("aggregate cpu line");
    let steal: u64 = cpu
        .split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .expect("steal column in /proc/stat");
    // USER_HZ is 100 on every Linux ABI.
    steal as f64 / 100.0
}

/// CPU seconds of the whole process and of the calling thread, taken
/// together so the difference is the other threads' share.
#[derive(Debug, Clone, Copy)]
pub struct CpuMark {
    process: f64,
    thread: f64,
}

impl CpuMark {
    pub fn now() -> Self {
        CpuMark { process: process_cpu_s(), thread: thread_cpu_s() }
    }

    /// `(all threads, calling thread)` CPU seconds since `self`.
    pub fn since(&self) -> (f64, f64) {
        let now = CpuMark::now();
        (now.process - self.process, now.thread - self.thread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_and_proc_files_read() {
        let mark = CpuMark::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let (all, own) = mark.since();
        assert!(own > 0.0 && all >= own * 0.5, "all {all} own {own}");
        assert!(peak_rss_mib() > 0.0);
        let probe = speed_probe_s();
        assert!(probe > 0.0 && probe < 1.0, "probe {probe}");
        assert!(host_steal_s() >= 0.0);
    }
}
