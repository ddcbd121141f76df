//! Seeded input generators. Every reading is a pure function of
//! `(seed, house, day, slot)`, so a workload can regenerate any batch on
//! demand instead of holding the fleet in memory, and one seed always
//! gives the same inputs.

use sms_core::shard::splitmix64;
use sms_core::timeseries::TimeSeries;

/// Quarter-hour readings.
pub const INTERVAL_SECS: i64 = 900;
pub const SAMPLES_PER_DAY: usize = 96;
pub const DAY_SECS: i64 = 86_400;

/// Always-on load added from the shift day on in `daily_drift`, as in the
/// generator's `cer_drifted` scenario.
pub const DRIFT_SHIFT_W: f64 = 450.0;

fn mix(parts: &[u64]) -> u64 {
    parts.iter().fold(0x5EED_5EED_5EED_u64, |h, &p| splitmix64(h ^ p))
}

/// One house-day of quarter-hour power readings in watts: standby plus a
/// fridge duty cycle at night, a triangular daytime peak with appliance
/// steps quantized to 50 W, plus `shift_w` of extra base load. The base
/// load and fridge phase depend on the house only and the steps on the
/// day too, so a house's distribution is stationary from day to day until
/// `shift_w` changes. Values are multiples of 0.1 W.
pub fn day_values(seed: u64, house: u64, day: u64, shift_w: f64) -> Vec<f64> {
    let base = 50.0 + (mix(&[seed, house, 1]) % 2000) as f64 / 10.0 + shift_w;
    let fridge_phase = mix(&[seed, house, 2]) % 8;
    (0..SAMPLES_PER_DAY)
        .map(|i| {
            if !(24..80).contains(&i) {
                let on = (i as u64 / 4 + fridge_phase).is_multiple_of(2);
                base + if on { 80.0 } else { 0.0 }
            } else {
                let pos = i as f64 / SAMPLES_PER_DAY as f64;
                let tri = 1.0 - (2.0 * pos - 1.0).abs();
                let step = (mix(&[seed, house, day, i as u64]) % 8) as f64 * 50.0;
                ((base + 400.0 * tri + step) * 10.0).round() / 10.0
            }
        })
        .collect()
}

/// `days` consecutive days of `house` from `first_day`, with the drift
/// shift applied to days at or after `shift_day`.
pub fn house_series(
    seed: u64,
    house: u64,
    first_day: u64,
    days: u64,
    shift_day: Option<u64>,
) -> TimeSeries {
    let mut values = Vec::with_capacity(days as usize * SAMPLES_PER_DAY);
    for day in first_day..first_day + days {
        let shifted = shift_day.is_some_and(|s| day >= s);
        values.extend(day_values(seed, house, day, if shifted { DRIFT_SHIFT_W } else { 0.0 }));
    }
    TimeSeries::from_regular(first_day as i64 * DAY_SECS, INTERVAL_SECS, &values)
        .expect("generated readings are finite and regular")
}

/// Folds values into a running digest (FNV-1a over their bits).
pub fn digest(h: u64, values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(h, |h, v| (h ^ v).wrapping_mul(0x0100_0000_01B3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(day_values(7, 3, 5, 0.0), day_values(7, 3, 5, 0.0));
        assert_ne!(day_values(7, 3, 5, 0.0), day_values(8, 3, 5, 0.0));
        assert_ne!(day_values(7, 3, 5, 0.0), day_values(7, 4, 5, 0.0));
        assert_ne!(day_values(7, 3, 5, 0.0), day_values(7, 3, 6, 0.0));
        let s = house_series(7, 3, 2, 3, Some(3));
        assert_eq!(s.len(), 3 * SAMPLES_PER_DAY);
        assert_eq!(s.start(), Some(2 * DAY_SECS));
        let v = s.values();
        assert_eq!(v[..SAMPLES_PER_DAY], day_values(7, 3, 2, 0.0)[..]);
        assert_eq!(v[SAMPLES_PER_DAY..2 * SAMPLES_PER_DAY], day_values(7, 3, 3, DRIFT_SHIFT_W)[..]);
    }
}
