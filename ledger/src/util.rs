//! The shared monotonic clock, the seeded generator and the order
//! statistics every other module uses.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds on the process-wide monotonic clock. Every site of a
/// workload lives in this process, so stamps taken on different sites
/// are directly comparable.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// SplitMix64 finalizer: a stateless hash of one word.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded value for coordinates `(a, b)`: the only source of
/// workload inputs (token bytes, object choice, op mix, leaf durations).
pub fn seeded(seed: u64, a: u64, b: u64) -> u64 {
    mix(mix(seed ^ mix(a)).wrapping_add(b))
}

/// Fill `out` with the seeded byte stream for `(a, b)`.
pub fn seeded_fill(seed: u64, a: u64, b: u64, out: &mut [u8]) {
    let mut word = seeded(seed, a, b);
    for chunk in out.chunks_mut(8) {
        chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
        word = mix(word);
    }
}

/// Quantile `q` in `[0, 1]` of an already sorted slice, by linear
/// interpolation between closest ranks.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sort a copy and return it.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Mean of the values (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), so `--repeat` and `--compare` judge
/// spread exactly as the acceptance check does.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn seeded_is_stable_and_seed_dependent() {
        assert_eq!(seeded(1, 2, 3), seeded(1, 2, 3));
        assert_ne!(seeded(1, 2, 3), seeded(2, 2, 3));
        let mut a = [0u8; 28];
        let mut b = [0u8; 28];
        seeded_fill(7, 1, 1, &mut a);
        seeded_fill(7, 1, 2, &mut b);
        assert_ne!(a, b);
    }
}
