//! Order statistics, the `/proc` readers, and the seeded generator.

/// Nearest-rank percentile of `values` (`p` in `(0, 1]`): the smallest
/// sample with at least `p · n` samples at or below it.  Sorts a copy.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile rank out of range: {p}");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the two middle samples averaged on an even count — the
/// "median over the rounds" every end-to-end metric reports.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The stationarity check: when `rounds` rises or falls strictly from each
/// round to the next, the change from first to last as a share of the
/// median; `None` when the rounds are not monotone (or fewer than three).
pub fn monotone_trend(rounds: &[f64]) -> Option<f64> {
    if rounds.len() < 3 {
        return None;
    }
    let rising = rounds.windows(2).all(|w| w[1] > w[0]);
    let falling = rounds.windows(2).all(|w| w[1] < w[0]);
    (rising || falling).then(|| (rounds[rounds.len() - 1] - rounds[0]).abs() / median(rounds))
}

/// Kernel clock ticks per second in `/proc/<pid>/stat`: `USER_HZ`, which
/// Linux fixes at 100 for every architecture's user-space ABI.
const USER_HZ: f64 = 100.0;

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`.  The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_status_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The highest-numbered CPU in `Cpus_allowed_list` of `/proc/<pid>/status`
/// (a comma-separated list of CPUs and `a-b` ranges).
pub fn parse_status_last_cpu(status: &str) -> Option<u32> {
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    let list = line.split_once(':')?.1.trim();
    list.split(',')
        .filter_map(|part| part.rsplit('-').next()?.trim().parse().ok())
        .max()
}

/// Process CPU seconds so far (all threads, user + system).
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mib(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

/// SplitMix64: the harness's own generator, so workload inputs depend on
/// `--seed` alone and not on the repository's vendored `rand`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// `stream` separates the independent sequences one seed feeds
    /// (catalog, request users, verify users, ...).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Standard normal (Box–Muller; one of the pair is discarded).
    pub fn gaussian(&mut self) -> f32 {
        let u1 = (1.0 - self.unit()).max(f32::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        // Order of the input does not matter, and a single sample is every
        // percentile of itself.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.75), 9.0);
        assert_eq!(percentile(&[9.0, 1.0, 5.0, 7.0], 0.75), 7.0);
        assert_eq!(percentile(&[4.0], 0.5), 4.0);
    }

    #[test]
    fn median_of_rounds_ignores_a_disturbed_minority() {
        // Two of five rounds disturbed: the reported value does not move.
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 100.2]), 100.2);
        assert_eq!(median(&[100.0, 55.0, 99.0, 100.5, 40.0]), 99.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn monotone_trend_needs_every_step_to_agree() {
        assert_eq!(
            monotone_trend(&[10.0, 11.0, 12.0, 13.0, 14.0]),
            Some(4.0 / 12.0)
        );
        assert_eq!(
            monotone_trend(&[14.0, 13.0, 12.0, 11.0, 10.0]),
            Some(4.0 / 12.0)
        );
        assert_eq!(monotone_trend(&[10.0, 11.0, 10.5, 13.0, 14.0]), None);
        assert_eq!(monotone_trend(&[10.0, 10.0, 10.0]), None);
        assert_eq!(monotone_trend(&[1.0, 2.0]), None);
    }

    #[test]
    fn stat_parser_survives_a_hostile_command_name() {
        let stat = "4242 (perf (a) b) R 1 4242 4242 0 -1 4194304 512 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000000 300 18446744073709551615 0 0 0";
        assert_eq!(parse_stat_cpu_s(stat), Some(13.0));
        assert_eq!(parse_stat_cpu_s("4242 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_s("no parenthesis"), None);
    }

    #[test]
    fn status_parser_reads_vmhwm_in_mib() {
        let status = "Name:\tperf\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_hwm_mib(status), Some(20.0));
        assert_eq!(parse_status_hwm_mib("Name:\tperf\n"), None);
    }

    #[test]
    fn status_parser_reads_the_last_allowed_cpu() {
        assert_eq!(
            parse_status_last_cpu("Cpus_allowed:\t3\nCpus_allowed_list:\t0-1\n"),
            Some(1)
        );
        assert_eq!(
            parse_status_last_cpu("Cpus_allowed_list:\t0,2-5,9\n"),
            Some(9)
        );
        assert_eq!(parse_status_last_cpu("Cpus_allowed_list:\t4\n"), Some(4));
        assert_eq!(parse_status_last_cpu("Name:\tperf\n"), None);
    }

    #[test]
    fn proc_readers_work_on_this_process() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mib() > 0.5);
    }

    #[test]
    fn generator_repeats_per_seed_and_differs_per_stream() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut rng = Rng::new(3, 0);
        let mut sum = 0.0f64;
        for _ in 0..20_000 {
            assert!(rng.below(10) < 10);
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            sum += rng.gaussian() as f64;
        }
        assert!((sum / 20_000.0).abs() < 0.05);
    }
}
