//! Sample statistics, output digests, process memory and the host
//! calibration probe.

use crate::report::Metric;
use ldc_sim::telemetry::nearest_rank;
use std::time::Instant;

/// Raw samples, summarised with the workspace's nearest-rank convention
/// (`ldc_sim::telemetry::nearest_rank`) on the sorted values — never a
/// bucketed histogram, whose log₂ resolution cannot see a 10% change.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Nearest-rank percentile `q` in `[0, 100]`; 0 when empty.
    pub fn pct(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        self.values[nearest_rank(self.values.len() as u64, q) as usize]
    }

    pub fn median(&mut self) -> f64 {
        self.pct(50.0)
    }

    /// Share of samples strictly above `limit`; 0 when empty.
    pub fn frac_above(&self, limit: f64) -> f64 {
        let over = self.values.iter().filter(|&&v| v > limit).count();
        over as f64 / self.values.len().max(1) as f64
    }

    /// `"q1 .., q3 .."`: the spread printed next to every median.
    pub fn spread(&mut self) -> String {
        format!("q1 {:.4}, q3 {:.4}", self.pct(25.0), self.pct(75.0))
    }
}

/// The three load metrics, each with a note on how it was taken, printed
/// next to its value.
pub fn load_metrics(
    jobs_per_s: (f64, String),
    p50_ms: (f64, String),
    p95_ms: (f64, String),
) -> Vec<Metric> {
    vec![
        Metric::new("jobs_per_s", "1/s", jobs_per_s.0).with(jobs_per_s.1),
        Metric::new("job_p50_ms", "ms", p50_ms.0).with(p50_ms.1),
        Metric::new("job_p95_ms", "ms", p95_ms.0).with(p95_ms.1),
    ]
}

/// FNV-1a, 64-bit: the digest every output stream is compared by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One digest of a sequence of digests, in order.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a(&bytes)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// A few-millisecond host probe, so results from different hosts compare
/// by ratio: a streaming read over 32 MiB (GB/s) and a dependent-load
/// chain over a 16 MiB random cycle (ns per load).
pub fn calibration() -> (f64, f64) {
    const WORDS: usize = 4 << 20; // 32 MiB of u64
    let buf: Vec<u64> = (0..WORDS as u64).collect();
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..2 {
        acc = acc.wrapping_add(buf.iter().fold(0u64, |a, &x| a.wrapping_add(x)));
    }
    std::hint::black_box(acc);
    let stream_gbps = (2 * WORDS * 8) as f64 / t.elapsed().as_secs_f64() / 1e9;

    // Sattolo's shuffle gives one cycle through every slot.
    const SLOTS: usize = 2 << 20; // 16 MiB of u64
    let mut next: Vec<u64> = (0..SLOTS as u64).collect();
    let mut rng = ldc_rand::Rng::seed_from_u64(0xCA11B);
    for i in (1..SLOTS).rev() {
        let j = rng.gen_range(0..i);
        next.swap(i, j);
    }
    const LOADS: usize = 200_000;
    let t = Instant::now();
    let mut at = 0u64;
    for _ in 0..LOADS {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    let chain_ns = t.elapsed().as_nanos() as f64 / LOADS as f64;
    (stream_gbps, chain_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_on_sorted_samples() {
        let mut s = Samples::new();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.pct(0.0), 1.0);
        assert_eq!(s.pct(100.0), 5.0);
        assert_eq!(s.pct(25.0), 2.0);
        assert_eq!(Samples::new().median(), 0.0);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
