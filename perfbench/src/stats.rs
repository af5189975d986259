//! Sample statistics, seeding and process probes shared by every workload.

/// Percentiles the tail statistic may report, in per mille, highest first.
/// The ladder stops at p99: p99.9 would qualify from 10,010 samples on,
/// about what a daemon run completes, and a run-to-run flip between the
/// two would read as a regression.
const TAIL_LADDER_PERMILLE: [u64; 8] = [990, 980, 950, 900, 800, 750, 667, 500];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile of the ladder that still has at
/// least [`TAIL_BEYOND`] samples beyond it (nearest-rank definition).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The reported percentile, 0–100.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the statistic was taken over.
    pub samples: usize,
    /// How many samples lie beyond the reported one.
    pub beyond: usize,
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample is not NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail statistic of `xs`. Below `2 * TAIL_BEYOND` samples no
/// percentile qualifies, and the median is reported with however many
/// samples lie beyond it.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample is not NaN"));
    let n = v.len();
    let at = |permille: u64| {
        // Nearest rank: the smallest rank covering `permille` of the sample.
        let rank = ((permille * n as u64).div_ceil(1000) as usize).max(1);
        let idx = rank - 1;
        Tail {
            percentile: permille as f64 / 10.0,
            value: v[idx],
            samples: n,
            beyond: n - 1 - idx,
        }
    };
    TAIL_LADDER_PERMILLE
        .iter()
        .map(|&p| at(p))
        .find(|t| t.beyond >= TAIL_BEYOND)
        .unwrap_or_else(|| at(500))
}

/// Events per second in each whole `width`-second window of a phase
/// that lasted `elapsed` seconds, given each event's time since the
/// phase began; one sample over the whole phase when it was shorter than
/// a window.
pub fn window_rates(times: &[f64], elapsed: f64, width: f64) -> Vec<f64> {
    let windows = (elapsed / width) as usize;
    if windows == 0 {
        return vec![times.len() as f64 / elapsed];
    }
    let mut counts = vec![0u64; windows];
    for &t in times {
        if let Some(c) = counts.get_mut((t / width) as usize) {
            *c += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// Seconds a [`calibration_slice`] takes on the reference host, a 2-vCPU
/// virtual machine in its fast state. A timed step's host-scaled time is
/// its wall time times this over the slice run right after it: the wall
/// time it would have taken on the reference host.
pub const CALIBRATION_REF_S: f64 = 250e-6;

/// Host-scales `seconds` of a step that has just ended, by a calibration
/// slice run now. Returns the scaled seconds and the slice's seconds.
pub fn host_scaled(seconds: f64) -> (f64, f64) {
    let slice = calibration_slice();
    (seconds * CALIBRATION_REF_S / slice, slice)
}

/// Times one calibration slice and returns its seconds: a fixed integer
/// workload (sorting and re-mixing 4096 words, 32 KiB) that shares no
/// code with the program, so its time follows the host's speed and
/// nothing a change to the program does.
pub fn calibration_slice() -> f64 {
    let started = std::time::Instant::now();
    let mut words = [0u64; 4096];
    for (i, w) in words.iter_mut().enumerate() {
        *w = mix(0xca11b, 0, i as u64);
    }
    for round in 0..4 {
        words.sort_unstable();
        for w in &mut words {
            *w = w.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(round) ^ (*w >> 17);
        }
    }
    std::hint::black_box(&words);
    started.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
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

/// One step of the splitmix64 generator: a well-mixed 64-bit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic value derived from a seed and a position in a stream.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ stream) ^ index)
}

/// A deterministic draw in `[0, 1)`.
pub fn unit(seed: u64, stream: u64, index: u64) -> f64 {
    (mix(seed, stream, index) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond_its_percentile() {
        // From 2 * TAIL_BEYOND samples on, even the median qualifies.
        for n in (2 * TAIL_BEYOND)..3000 {
            let xs: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let t = tail(&xs);
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: {t:?} has {beyond} beyond");
            assert_eq!(beyond, t.beyond, "n={n}: distinct samples");
            // No higher ladder percentile would also have qualified.
            if let Some(&higher) = TAIL_LADDER_PERMILLE
                .iter()
                .rev()
                .find(|&&p| p as f64 / 10.0 > t.percentile)
            {
                let rank = (higher * n as u64).div_ceil(1000) as usize;
                assert!(n - rank < TAIL_BEYOND, "n={n}: {higher}‰ also qualifies");
            }
        }
    }

    #[test]
    fn tail_of_a_small_sample_falls_back_to_the_median() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 2.0, 1));
    }

    #[test]
    fn window_rates_count_whole_windows_only() {
        let times = [0.1, 0.5, 1.2, 1.9, 1.95, 2.5];
        assert_eq!(window_rates(&times, 2.6, 1.0), vec![2.0, 3.0]);
        assert_eq!(window_rates(&times, 0.5, 1.0), vec![12.0]);
    }

    #[test]
    fn host_scaling_is_against_the_slice_just_run() {
        let (scaled, slice) = host_scaled(0.5);
        assert!(slice > 0.0);
        assert_eq!(scaled, 0.5 * CALIBRATION_REF_S / slice);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn unit_draws_are_in_range_and_seeded() {
        let a: Vec<f64> = (0..100).map(|i| unit(7, 1, i)).collect();
        assert!(a.iter().all(|&x| (0.0..1.0).contains(&x)));
        assert_eq!(a, (0..100).map(|i| unit(7, 1, i)).collect::<Vec<_>>());
        assert_ne!(a[0], unit(8, 1, 0));
    }
}
