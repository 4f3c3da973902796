//! The host: fingerprint, peak memory, and the raw copy and combine
//! rates that bound the threaded workloads' bandwidth.

use intercom::ReduceOp;
use std::time::Instant;

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2: String,
    pub l3: String,
    pub rustc: String,
    pub commit: String,
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn cache_size(level: &str) -> String {
    (0..8)
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let lvl = read(&format!("{dir}/level"))?;
            (lvl.trim() == level).then(|| read(&format!("{dir}/size")))?
        })
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, read from `.git` when the checkout is a
/// repository.
fn commit() -> String {
    let head = read(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).map(|s| s.trim().to_string()),
        None => (!head.is_empty()).then(|| head.to_string()),
    }
    .unwrap_or_else(|| "none".into())
}

pub fn fingerprint() -> Fingerprint {
    let cpu_model = read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Fingerprint {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
        l2: cache_size("2"),
        l3: cache_size("3"),
        rustc,
        commit: commit(),
    }
}

fn status_field(name: &str) -> Option<f64> {
    read("/proc/self/status")?
        .lines()
        .find(|l| l.starts_with(name))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Jiffies of all CPUs so far: `(total, stolen by the hypervisor)`.
pub fn cpu_ticks() -> (u64, u64) {
    let fields: Vec<u64> = read("/proc/stat")
        .and_then(|s| s.lines().next().map(str::to_string))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|x| x.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// CPU time every thread of this process (exited ones included) has
/// consumed so far. Unlike wall time it excludes time the hypervisor
/// gave to other guests.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux); `clock_gettime` only writes through it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Threads of this process right now.
pub fn threads_now() -> usize {
    status_field("Threads:").map_or(0, |t| t as usize)
}

/// Block sizes the copy and combine rates are measured at: the
/// `threads-large` message sizes.
const BLOCKS: [usize; 4] = [256 << 10, 1 << 20, 4 << 20, 16 << 20];

/// Median over block sizes of the median rate in GB/s of `f` moving
/// `bytes` bytes, over `reps` repetitions each.
fn rate(reps: usize, mut f: impl FnMut(usize) -> usize) -> f64 {
    let per_block: Vec<f64> = BLOCKS
        .iter()
        .map(|&b| {
            let samples: Vec<f64> = (0..reps)
                .map(|_| {
                    let t = Instant::now();
                    let bytes = f(b);
                    bytes as f64 / t.elapsed().as_secs_f64() / 1e9
                })
                .collect();
            crate::stats::median(&samples)
        })
        .collect();
    crate::stats::median(&per_block)
}

/// `memcpy` bandwidth at the large block sizes: the ceiling for a
/// rendezvous hop's single copy.
pub fn memcpy_gbps() -> f64 {
    let src = vec![1u8; *BLOCKS.last().unwrap()];
    let mut dst = vec![0u8; src.len()];
    rate(7, |b| {
        dst[..b].copy_from_slice(&src[..b]);
        std::hint::black_box(&dst);
        b
    })
}

/// `ReduceOp::fold_into` rate on f64 Sum at the large block sizes, in
/// bytes of the accumulator per second.
pub fn combine_gbps() -> f64 {
    let elems = *BLOCKS.last().unwrap() / 8;
    let other = vec![1.0f64; elems];
    let mut acc = vec![0.0f64; elems];
    rate(7, |b| {
        let n = b / 8;
        ReduceOp::Sum.fold_into(&mut acc[..n], &other[..n]);
        std::hint::black_box(&acc);
        b
    })
}
