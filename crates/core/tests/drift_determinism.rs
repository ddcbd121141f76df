//! Drift-path guarantees: the streaming quantile sketch stays within its
//! provable rank-error bound on adversarial streams (constant runs,
//! ±∞-adjacent values, heavy duplicates), its sorted view and the KS drift
//! statistic built on it answer bit-identically to the original
//! sort-per-query code, and epoch-versioned encodings survive a store round
//! trip — segments written under different epochs decode independently from
//! one persisted image, byte-identically at every worker count.

use proptest::prelude::*;
use sms_core::adaptive::{DriftDetector, DRIFT_SKETCH_K};
use sms_core::pipeline::CodecBuilder;
use sms_core::segstore::SegmentStore;
use sms_core::separators::SeparatorMethod;
use sms_core::shard::{splitmix64, DriftConfig, ShardedEngineConfig, ShardedFleetEngine};
use sms_core::stats::{ExactQuantiles, QuantileSketch};
use sms_core::timeseries::TimeSeries;

/// Stream values `<= v` under the same total order the sketch uses.
fn true_rank_le(values: &[f64], v: f64) -> u64 {
    values.iter().filter(|x| x.total_cmp(&v).is_le()).count() as u64
}

/// Stream values strictly `< v`.
fn true_rank_lt(values: &[f64], v: f64) -> u64 {
    values.iter().filter(|x| x.total_cmp(&v).is_lt()).count() as u64
}

/// Adversarial streams: constant runs, heavy duplicates, values adjacent to
/// ±∞, and ±∞ themselves (the sketch accepts infinities as data — only NaN
/// errors, per the PR 6 policy).
fn adversarial_stream() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        (0u8..13, -1e9f64..1e9).prop_map(|(tag, r)| match tag {
            0..=2 => 42.0,
            3 | 4 => -7.5,
            5 => f64::MAX,
            6 => f64::MIN,
            7 => f64::INFINITY,
            8 => f64::NEG_INFINITY,
            _ => r,
        }),
        1..500,
    )
}

/// [`adversarial_stream`] with runs spliced in: constant `+0.0`, constant
/// `-0.0`, alternating signed zeros, and repeats of a value already in the
/// stream.
fn drift_stream() -> impl Strategy<Value = Vec<f64>> {
    (adversarial_stream(), prop::collection::vec((0u8..4, 0usize..500, 1usize..150), 0..4))
        .prop_map(|(mut values, runs)| {
            for (tag, at, len) in runs {
                let repeated = values[at % values.len()];
                let run: Vec<f64> = (0..len)
                    .map(|i| match tag {
                        0 => 0.0,
                        1 => -0.0,
                        2 if i % 2 == 0 => 0.0,
                        2 => -0.0,
                        _ => repeated,
                    })
                    .collect();
                let at = at.min(values.len());
                values.splice(at..at, run);
            }
            values
        })
}

fn sketch_of(values: &[f64], k: usize) -> QuantileSketch {
    let mut sk = QuantileSketch::new(k).unwrap();
    for &v in values {
        sk.update(v).unwrap();
    }
    sk
}

/// The quantile walk `QuantileSketch::quantile` ran before sorted views,
/// kept as the reference: sort every retained item, then walk the
/// cumulative weights up to the type-1 target.
fn walk_quantile(sk: &QuantileSketch, q: f64) -> Option<f64> {
    if sk.count() == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let mut pairs: Vec<(f64, u64)> = sk.retained().collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = ((q * sk.count() as f64).ceil() as u64).max(1);
    let mut cum = 0u64;
    for (v, w) in &pairs {
        cum += w;
        if cum >= target {
            return Some(*v);
        }
    }
    pairs.last().map(|(v, _)| *v)
}

/// The KS statistic as `DriftDetector::statistic` computed it before sorted
/// views, kept as the reference: 65 grid points per side, each a quantile
/// walk followed by two rank scans.
fn grid_statistic(reference: &QuantileSketch, win: &QuantileSketch) -> f64 {
    let n_ref = reference.count() as f64;
    let n_win = win.count() as f64;
    let mut d: f64 = 0.0;
    for i in 0..=64 {
        let q = i as f64 / 64.0;
        for x in [walk_quantile(reference, q), walk_quantile(win, q)] {
            let x = x.expect("both sketches are non-empty");
            let f_ref = reference.rank(x) as f64 / n_ref;
            let f_win = win.rank(x) as f64 / n_win;
            d = d.max((f_ref - f_win).abs());
        }
    }
    d.min(1.0)
}

/// The next draw below `m` from a splitmix64 chain.
fn draw(state: &mut u64, m: u64) -> u64 {
    *state = splitmix64(*state);
    *state % m
}

/// `len` values spread uniformly over a random interval within `[0, 2000)`.
fn uniform_block(state: &mut u64, len: usize) -> Vec<f64> {
    let lo = draw(state, 1000) as f64;
    let width = 1.0 + draw(state, 1000) as f64;
    (0..len).map(|_| lo + draw(state, 1000) as f64 / 1000.0 * width).collect()
}

/// Smooth streams, unlike the adversarial ones: a uniform reference block
/// against a shifted, rescaled uniform window of 65 to 264 samples. Here the
/// largest CDF gap often sits at a window's first or last retained item,
/// which only the grid's `q = 0` and `q = 1` probes see.
#[test]
fn statistic_matches_the_grid_on_shifted_uniform_blocks() {
    for seed in 0..300u64 {
        let mut state = seed;
        let training_len = 64 + draw(&mut state, 400) as usize;
        let training = uniform_block(&mut state, training_len);
        let window_len = 65 + draw(&mut state, 200) as usize;
        let window = uniform_block(&mut state, window_len);
        let reference = sketch_of(&training, DRIFT_SKETCH_K);
        let mut det = DriftDetector::from_sketch(reference.clone(), window_len).unwrap();
        for &v in &window {
            det.push(v);
        }
        let want = grid_statistic(&reference, &det.window_sketch());
        assert_eq!(det.statistic().map(f64::to_bits), Some(want.to_bits()), "seed {seed}");
    }
}

/// The closest values below and above `v` in `total_cmp` order, NaN
/// excluded.
fn total_order_neighbours(v: f64) -> impl Iterator<Item = f64> {
    // The order-preserving map from `total_cmp` order to u64 order.
    let key = |x: f64| {
        let b = x.to_bits();
        if b >> 63 == 1 {
            !b
        } else {
            b | (1 << 63)
        }
    };
    let unkey = |k: u64| f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k });
    let k = key(v);
    [k.checked_sub(1), k.checked_add(1)].into_iter().flatten().map(unkey).filter(|x| !x.is_nan())
}

proptest! {
    // Each case compares a few hundred statistics against the slow
    // reference grid; debug builds run fewer cases.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 16 } else { 256 }))]

    /// `DriftDetector::statistic` equals, bit for bit, the 130-query grid it
    /// replaced, after every push, at window sizes from 2 upward, before
    /// and after a rebase.
    #[test]
    fn statistic_matches_the_sort_per_query_grid(
        training in drift_stream(),
        pushed in drift_stream(),
        window in 2usize..300,
        rebase_at in 0usize..600,
    ) {
        let mut reference = sketch_of(&training, DRIFT_SKETCH_K);
        let mut det = DriftDetector::from_sketch(reference.clone(), window).unwrap();
        let mut rebased = false;
        for (i, &v) in pushed.iter().enumerate() {
            det.push(v);
            let want = det.window_full().then(|| grid_statistic(&reference, &det.window_sketch()));
            prop_assert_eq!(
                det.statistic().map(f64::to_bits),
                want.map(f64::to_bits),
                "push {} of {}, window {}, rebased {}", i, pushed.len(), window, rebased
            );
            if !rebased && i >= rebase_at && det.window_full() {
                reference = det.window_sketch();
                det.rebase();
                rebased = true;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sorted view answers every rank and quantile query exactly as the
    /// sketch's rank scan and the original quantile walk do: at every
    /// retained value, between retained values, at every cumulative-weight
    /// boundary and outside `[0, 1]`.
    #[test]
    fn sorted_view_matches_rank_scan_and_quantile_walk(
        values in drift_stream(),
        k in prop::sample::select(vec![2usize, 3, 8, DRIFT_SKETCH_K]),
    ) {
        let sk = sketch_of(&values, k);
        let view = sk.sorted_view();
        prop_assert_eq!(view.count(), sk.count());

        let mut retained: Vec<f64> = sk.retained().map(|(v, _)| v).collect();
        retained.sort_by(|a, b| a.total_cmp(b));
        let mut probes = retained.clone();
        probes.extend(retained.iter().flat_map(|&v| total_order_neighbours(v)));
        probes.extend(retained.windows(2).map(|w| w[0] / 2.0 + w[1] / 2.0));
        for &v in &probes {
            prop_assert_eq!(view.rank(v), sk.rank(v), "rank({:?})", v);
        }

        let n = sk.count() as f64;
        let mut qs: Vec<f64> = (0..=64).map(|i| i as f64 / 64.0).collect();
        for r in retained.iter().map(|&v| sk.rank(v) as f64 / n) {
            qs.push(r);
            qs.extend(total_order_neighbours(r));
        }
        qs.extend([-1.0, 2.0, f64::NAN, f64::NEG_INFINITY, f64::INFINITY]);
        for &q in &qs {
            let want = walk_quantile(&sk, q).map(f64::to_bits);
            prop_assert_eq!(view.quantile(q).map(f64::to_bits), want, "view quantile({})", q);
            prop_assert_eq!(sk.quantile(q).map(f64::to_bits), want, "sketch quantile({})", q);
        }
    }

    /// Every rank estimate is within the sketch's own advertised bound.
    #[test]
    fn sketch_rank_error_stays_within_advertised_bound(values in adversarial_stream()) {
        // k = 8 forces compactions even on short streams, so the bound is
        // exercised, not just the exact regime.
        let mut sk = QuantileSketch::new(8).unwrap();
        for &v in &values {
            sk.update(v).unwrap();
        }
        let bound = sk.rank_error_bound();
        for &v in &values {
            let approx = sk.rank(v) as i128;
            let exact = true_rank_le(&values, v) as i128;
            prop_assert!(
                (approx - exact).abs() <= bound as i128,
                "rank({v}) = {approx}, exact {exact}, bound {bound}"
            );
        }
    }

    /// Sketch quantiles agree with [`ExactQuantiles`] to within the rank
    /// bound: the value returned for `q` sits within `rank_error_bound`
    /// stream positions of the exact type-1 quantile.
    #[test]
    fn sketch_quantiles_match_exact_quantiles_in_rank_space(
        finite in prop::collection::vec(
            (0u8..12, -1e6f64..1e6).prop_map(|(tag, r)| match tag {
                0..=2 => 42.0,
                3 | 4 => 1e308,
                5 | 6 => -1e308,
                _ => r,
            }),
            1..400,
        ),
        qnum in 0usize..11,
    ) {
        let q = qnum as f64 / 10.0;
        let mut sk = QuantileSketch::new(8).unwrap();
        for &v in &finite {
            sk.update(v).unwrap();
        }
        let eq = ExactQuantiles::new(&finite).unwrap();
        let n = finite.len() as u64;
        // Type-1 target rank (the sketch's quantile semantics). The exact
        // estimator interpolates at position q·(n−1), so anchor it only to
        // its own lower index: the interpolated value dominates sorted[lo].
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let exact_v = eq.quantile(q);
        let lo_idx = (q * (n - 1) as f64).floor() as u64;
        prop_assert!(true_rank_le(&finite, exact_v) > lo_idx);

        let approx_v = sk.quantile(q).unwrap();
        let bound = sk.rank_error_bound();
        // The approximate quantile's true rank interval must overlap
        // [target - bound, target + bound].
        prop_assert!(
            true_rank_le(&finite, approx_v) + bound >= target,
            "quantile({q}) = {approx_v} ranks too low: le-rank {} < target {target} - bound {bound}",
            true_rank_le(&finite, approx_v)
        );
        prop_assert!(
            true_rank_lt(&finite, approx_v) <= target + bound,
            "quantile({q}) = {approx_v} ranks too high: lt-rank {} > target {target} + bound {bound}",
            true_rank_lt(&finite, approx_v)
        );
    }

    /// Splitting a stream at any point and merging the two sketches keeps
    /// the merged bound honest.
    #[test]
    fn merged_sketches_keep_the_bound(values in adversarial_stream(), split_at in 0usize..500) {
        let cut = split_at.min(values.len());
        let mut a = QuantileSketch::new(8).unwrap();
        let mut b = QuantileSketch::new(8).unwrap();
        for &v in &values[..cut] {
            a.update(v).unwrap();
        }
        for &v in &values[cut..] {
            b.update(v).unwrap();
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), values.len() as u64);
        let bound = a.rank_error_bound();
        for &v in values.iter().take(50) {
            let approx = a.rank(v) as i128;
            let exact = true_rank_le(&values, v) as i128;
            prop_assert!((approx - exact).abs() <= bound as i128);
        }
    }
}

/// A house stream: `n` samples at 900 s, values derived from splitmix64 and
/// shifted by `offset` (the drift injection).
fn house_chunk(house: u64, start_index: usize, n: usize, offset: f64) -> TimeSeries {
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let x = splitmix64(
                house.wrapping_mul(0x9E37_79B9).wrapping_add((start_index + i) as u64 + 7919),
            );
            offset + 100.0 + (x % 4000) as f64 / 10.0
        })
        .collect();
    TimeSeries::from_regular(start_index as i64 * 900, 900, &values).expect("regular series")
}

/// Encode a fleet under epoch 0, drift it across a cutover to epoch 1, store
/// both epochs' segments in ONE image, and decode each epoch independently
/// after a byte round trip — at every worker count, with identical bytes.
#[test]
fn epoch_segments_roundtrip_through_one_image_at_every_worker_count() {
    const HOUSES: u64 = 6;
    const PRE: usize = 256;
    const POST: usize = 256;

    let mut reference: Option<Vec<u8>> = None;
    for workers in [1usize, 2, 8] {
        let builder = CodecBuilder::new()
            .method(SeparatorMethod::Median)
            .alphabet_size(16)
            .unwrap()
            .no_aggregation();
        let config = ShardedEngineConfig::with_shards(3)
            .workers(workers)
            .drift(DriftConfig { threshold: 0.3, window: 64 });
        let mut engine = ShardedFleetEngine::new(builder, config).unwrap();

        let fleet_pre: Vec<(u64, TimeSeries)> =
            (0..HOUSES).map(|h| (h, house_chunk(h, 0, PRE, 0.0))).collect();
        let fleet_post: Vec<(u64, TimeSeries)> =
            (0..HOUSES).map(|h| (h, house_chunk(h, PRE, POST, 800.0))).collect();

        let enc_pre = engine.encode_batch(&fleet_pre).unwrap();
        let enc_post = engine.encode_batch(&fleet_post).unwrap();
        assert!(enc_pre.epochs.iter().all(|&e| e == 0), "no cutover before the drift");
        assert!(enc_post.epochs.iter().all(|&e| e == 1), "every house cuts to epoch 1");

        let mut store = SegmentStore::new();
        for (i, (house, _)) in fleet_pre.iter().enumerate() {
            store.append_epoch(*house, enc_pre.epochs[i], &enc_pre.series[i]).unwrap();
            store.append_epoch(*house, enc_post.epochs[i], &enc_post.series[i]).unwrap();
        }
        let image = store.to_bytes();
        match &reference {
            None => reference = Some(image.clone()),
            Some(expected) => assert_eq!(
                *expected, image,
                "store image differs at {workers} workers — epochs leaked topology"
            ),
        }

        // Round trip: both epochs decode independently from the one image.
        let mut reloaded = SegmentStore::from_bytes(&image).unwrap();
        for (i, (house, _)) in fleet_pre.iter().enumerate() {
            assert_eq!(reloaded.house_epochs(*house), vec![0, 1]);
            let bits = enc_pre.series[i].resolution_bits();
            for to_bits in [1, bits] {
                let got0 =
                    reloaded.read_epoch_truncated(*house, 0, i64::MIN, i64::MAX, to_bits).unwrap();
                assert_eq!(got0, enc_pre.series[i].truncate_resolution(to_bits).unwrap());
                let got1 =
                    reloaded.read_epoch_truncated(*house, 1, i64::MIN, i64::MAX, to_bits).unwrap();
                assert_eq!(got1, enc_post.series[i].truncate_resolution(to_bits).unwrap());
            }
            // An epoch never written reads back empty, not garbage.
            let none = reloaded.read_epoch_truncated(*house, 7, i64::MIN, i64::MAX, 1).unwrap();
            assert_eq!(none.len(), 0);
        }
    }
}
