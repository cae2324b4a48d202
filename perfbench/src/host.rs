//! Host-side measurements: per-thread CPU in nanoseconds, peak memory,
//! a fixed calibration kernel, and order statistics.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// First field of a `schedstat` file: nanoseconds spent on a CPU.
fn schedstat_ns(path: &str) -> Option<u64> {
    fs::read_to_string(path).ok()?.split_whitespace().next()?.parse().ok()
}

/// The calling thread's id, from `/proc/thread-self`.
pub fn my_tid() -> Result<u64, String> {
    let link = fs::read_link("/proc/thread-self").map_err(|e| format!("/proc/thread-self: {e}"))?;
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("unexpected /proc/thread-self target {}", link.display()))
}

/// CPU nanoseconds of every live thread of this process, by thread id.
pub fn cpu_by_thread() -> Result<BTreeMap<u64, u64>, String> {
    let mut out = BTreeMap::new();
    let dir = fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|n| n.parse::<u64>().ok()) else {
            continue;
        };
        // A thread may exit between the listing and the read.
        if let Some(ns) = schedstat_ns(&format!("/proc/self/task/{tid}/schedstat")) {
            out.insert(tid, ns);
        }
    }
    if out.is_empty() {
        return Err("no readable /proc/self/task/*/schedstat".to_owned());
    }
    Ok(out)
}

/// CPU nanoseconds the threads other than `exclude` spent between two
/// [`cpu_by_thread`] snapshots. Threads born in between count from 0.
pub fn cpu_delta_excluding(
    before: &BTreeMap<u64, u64>,
    after: &BTreeMap<u64, u64>,
    exclude: u64,
) -> u64 {
    after
        .iter()
        .filter(|(tid, _)| **tid != exclude)
        .map(|(tid, ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum()
}

/// Peak resident set size of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("{e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// How often a run reads the calibration kernel between operations.
const CALIB_EVERY: Duration = Duration::from_secs(2);

/// The calibration kernel's table: fixed hash keys, so every run and
/// every commit hashes the same way.
type CalibTable = HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>;

/// Time a fixed kernel shaped like the client's hot loop: 2^18
/// pseudo-random keys inserted into a `HashMap` whose memory is already
/// allocated. It runs the same instructions on every host and every
/// commit, so a change in it is drift of the host (CPU speed, cache and
/// memory contention), not of the program.
fn calib_kernel_ms(table: &mut CalibTable) -> f64 {
    table.clear();
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..1u32 << 18 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *table.entry(x >> 40).or_insert(0) += i;
    }
    black_box(&mut *table);
    start.elapsed().as_secs_f64() * 1e3
}

/// Calibration readings taken through a run: at its start and end, and
/// between operations at most every `CALIB_EVERY`, so they sample the
/// same stretch of host time as the syncs do.
pub struct Calib {
    readings: Vec<f64>,
    last: Instant,
    table: CalibTable,
}

impl Calib {
    pub fn start() -> Calib {
        let mut table = CalibTable::default();
        // Grow the table once, untimed, so no reading pays for allocation.
        calib_kernel_ms(&mut table);
        let mut c = Calib { readings: Vec::new(), last: Instant::now(), table };
        c.take();
        c
    }

    pub fn take(&mut self) {
        self.readings.push(calib_kernel_ms(&mut self.table));
        self.last = Instant::now();
    }

    /// Take a reading if `CALIB_EVERY` has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= CALIB_EVERY {
            self.take();
        }
    }

    pub fn median(&self) -> f64 {
        quantile(&self.readings, 0.5)
    }

    pub fn summary(&self) -> String {
        format!(
            "calib_ms: median={:.3} min={:.3} max={:.3} n={}",
            self.median(),
            quantile(&self.readings, 0.0),
            quantile(&self.readings, 1.0),
            self.readings.len()
        )
    }
}

/// Linear-interpolated quantile of `values` (`q` in 0..=1); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn this_thread_is_counted_and_excludable() {
        let tid = my_tid().unwrap();
        let before = cpu_by_thread().unwrap();
        black_box(Calib::start());
        let after = cpu_by_thread().unwrap();
        assert!(after[&tid] > before[&tid]);
        assert_eq!(cpu_delta_excluding(&after, &after, tid), 0);
    }
}
