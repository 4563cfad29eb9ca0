//! Small measurement helpers: percentiles, quartile spread, the process's
//! CPU time and peak memory from `/proc`, and an output fingerprint.

/// A percentile is reported only when at least this many samples lie
/// beyond it; a tail estimated from fewer is noise.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the value at rank
/// `ceil(p * n)`. `None` when fewer than [`MIN_SAMPLES_BEYOND`] samples lie
/// beyond that rank (so a median needs 20 samples and a p90 needs 100).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts a sample ascending (timings are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The plain median (mean of the middle two for an even count), for
/// combining whole runs rather than latency samples.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them. `None` for fewer than two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Run-to-run spread: the distance between the quartiles as a share of the
/// median. `None` for fewer than two values or a zero median.
pub fn spread(v: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(v)?;
    let m = median(v)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI Rust targets;
/// reading it properly needs `sysconf`, which needs libc.
const CLK_TCK: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/self/stat`. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_ticks(&stat).expect("/proc/self/stat has utime and stime") as f64 / CLK_TCK
}

/// Peak resident set of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kb(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

/// Incremental FNV-1a (64-bit) over output bytes: equal fingerprints mean
/// byte-equal outputs in the same order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds one output in, with a separator so `"ab","c"` ≠ `"a","bc"`.
    pub fn push(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The fingerprint as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// `splitmix64`: the seed-to-stream spread every seeded choice in the
/// benchmark goes through.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(100.0));
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        // p99 of 200 leaves two samples beyond rank 198: refused.
        assert_eq!(percentile(&v, 0.99), None);
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), None, "rank 190 leaves 9 beyond");
        assert_eq!(percentile(&v[..19], 0.50), None, "rank 10 leaves 9 beyond");
        assert_eq!(percentile(&v[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&[], 0.50), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (bench) mark (x)) R 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    731 29 0 0 20 0 3 0 100 1000000 2500 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(760));
        assert_eq!(parse_stat_ticks("no parenthesis"), None);
        assert_eq!(parse_stat_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_parser() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  20000 kB\nVmHWM:\t   10080 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(10080));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn proc_readers_work_on_this_machine() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn fingerprint_separates_outputs() {
        let mut a = Fingerprint::default();
        a.push("ab");
        a.push("c");
        let mut b = Fingerprint::default();
        b.push("a");
        b.push("bc");
        assert_ne!(a, b);
        assert_eq!(a.hex().len(), 16);
    }
}
