//! Utility-driven horizontal segmentation (paper §4: "we would like to look
//! into an utility-driven horizontal segmentation method that could optimize
//! the performances of a chosen analytics with predefined properties or
//! background knowledge from experts").
//!
//! Two learners beyond the paper's three unsupervised methods:
//!
//! * [`supervised_separators`] — given labelled values (e.g. house ids, or
//!   any downstream target), choose the `k - 1` boundaries that maximize the
//!   information the symbol carries about the label, via dynamic
//!   programming over candidate cut points (optimal 1-D supervised
//!   discretization, cf. Fayyad & Irani but with an exact bin budget);
//! * [`reconstruction_separators`] — choose boundaries minimizing the
//!   within-bin squared reconstruction error (a 1-D k-means / Lloyd–Max
//!   quantizer, again solved exactly by dynamic programming), for pipelines
//!   whose utility is signal fidelity rather than classification.

use crate::error::{Error, Result};
use crate::stats::FiniteF64;

fn validate_k(k: usize) -> Result<()> {
    if !(2..=1 << 16).contains(&k) || !k.is_power_of_two() {
        return Err(Error::InvalidAlphabetSize(k));
    }
    Ok(())
}

/// Collapses labelled values into sorted distinct values with per-label
/// counts: `(value, label_counts)`.
fn sorted_groups(values: &[f64], labels: &[usize]) -> Result<(Vec<f64>, Vec<Vec<f64>>, usize)> {
    if values.len() != labels.len() || values.is_empty() {
        return Err(Error::InvalidParameter {
            name: "values/labels",
            reason: "need equal non-zero lengths".to_string(),
        });
    }
    let n_labels = labels.iter().max().map(|m| m + 1).unwrap_or(1);
    let mut map: std::collections::BTreeMap<FiniteF64, Vec<f64>> =
        std::collections::BTreeMap::new();
    for (&v, &l) in values.iter().zip(labels) {
        let entry = map.entry(FiniteF64::new(v)?).or_insert_with(|| vec![0.0; n_labels]);
        entry[l] += 1.0;
    }
    let mut vals = Vec::with_capacity(map.len());
    let mut counts = Vec::with_capacity(map.len());
    for (v, c) in map {
        vals.push(v.get());
        counts.push(c);
    }
    Ok((vals, counts, n_labels))
}

fn entropy(counts: &[f64]) -> f64 {
    let total: f64 = counts.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&c| c > 0.0)
        .map(|&c| {
            let p = c / total;
            -p * p.log2()
        })
        .sum()
}

/// Supervised separators: split the value axis into exactly `k` bins
/// minimizing the label-entropy after the split (equivalently maximizing
/// information gain about the label). Exact via dynamic programming in
/// `O(d² k)` over `d` distinct values — ample for separator learning, which
/// the paper performs once on a two-day history.
pub fn supervised_separators(values: &[f64], labels: &[usize], k: usize) -> Result<Vec<f64>> {
    validate_k(k)?;
    let (vals, counts, _) = sorted_groups(values, labels)?;
    let d = vals.len();
    if d == 1 {
        // Degenerate: all separators at the single value.
        return Ok(vec![vals[0]; k - 1]);
    }
    let k_eff = k.min(d);

    // Prefix label counts for O(1) interval statistics.
    let n_labels = counts[0].len();
    let mut prefix = vec![vec![0.0f64; n_labels]; d + 1];
    for i in 0..d {
        for l in 0..n_labels {
            prefix[i + 1][l] = prefix[i][l] + counts[i][l];
        }
    }
    let interval = |a: usize, b: usize| -> (f64, f64) {
        // [a, b): returns (count, weighted entropy contribution).
        let c: Vec<f64> = (0..n_labels).map(|l| prefix[b][l] - prefix[a][l]).collect();
        let total: f64 = c.iter().sum();
        (total, total * entropy(&c))
    };

    // dp[j][i] = minimal Σ n_bin·H(bin) partitioning the first i distinct
    // values into j bins; cut[j][i] = argmin start of the last bin.
    let inf = f64::INFINITY;
    let mut dp = vec![vec![inf; d + 1]; k_eff + 1];
    let mut cut = vec![vec![0usize; d + 1]; k_eff + 1];
    dp[0][0] = 0.0;
    for j in 1..=k_eff {
        for i in j..=d {
            for a in (j - 1)..i {
                if dp[j - 1][a].is_finite() {
                    let (_, wh) = interval(a, i);
                    let cand = dp[j - 1][a] + wh;
                    if cand < dp[j][i] {
                        dp[j][i] = cand;
                        cut[j][i] = a;
                    }
                }
            }
        }
    }

    // Recover bin boundaries: separator = last value of each bin but the last.
    let mut bounds = Vec::with_capacity(k_eff - 1);
    let mut i = d;
    let mut j = k_eff;
    while j > 0 {
        let a = cut[j][i];
        if j > 1 {
            bounds.push(vals[a - 1]);
        }
        i = a;
        j -= 1;
    }
    bounds.reverse();
    // Pad (duplicate the last boundary) when fewer distinct values than k.
    while bounds.len() < k - 1 {
        let pad = bounds.last().copied().unwrap_or(vals[d - 1]);
        bounds.push(pad);
    }
    Ok(bounds)
}

/// Reconstruction-optimal separators: exactly `k` bins minimizing the total
/// within-bin squared deviation from the bin mean (the Lloyd–Max / 1-D
/// k-means objective), solved by dynamic programming.
pub fn reconstruction_separators(values: &[f64], k: usize) -> Result<Vec<f64>> {
    validate_k(k)?;
    if values.is_empty() {
        return Err(Error::EmptyInput("reconstruction_separators"));
    }
    // Distinct values with multiplicities.
    let mut map: std::collections::BTreeMap<FiniteF64, f64> = std::collections::BTreeMap::new();
    for &v in values {
        *map.entry(FiniteF64::new(v)?).or_insert(0.0) += 1.0;
    }
    let vals: Vec<f64> = map.keys().map(|v| v.get()).collect();
    let weights: Vec<f64> = map.values().copied().collect();
    let d = vals.len();
    if d == 1 {
        return Ok(vec![vals[0]; k - 1]);
    }
    let k_eff = k.min(d);

    // Prefix sums for interval SSE in O(1).
    let mut pw = vec![0.0f64; d + 1];
    let mut pwx = vec![0.0f64; d + 1];
    let mut pwx2 = vec![0.0f64; d + 1];
    for i in 0..d {
        pw[i + 1] = pw[i] + weights[i];
        pwx[i + 1] = pwx[i] + weights[i] * vals[i];
        pwx2[i + 1] = pwx2[i] + weights[i] * vals[i] * vals[i];
    }
    let sse = |a: usize, b: usize| -> f64 {
        let w = pw[b] - pw[a];
        if w <= 0.0 {
            return 0.0;
        }
        let s = pwx[b] - pwx[a];
        let s2 = pwx2[b] - pwx2[a];
        (s2 - s * s / w).max(0.0)
    };

    let inf = f64::INFINITY;
    let mut dp = vec![vec![inf; d + 1]; k_eff + 1];
    let mut cut = vec![vec![0usize; d + 1]; k_eff + 1];
    dp[0][0] = 0.0;
    for j in 1..=k_eff {
        for i in j..=d {
            for a in (j - 1)..i {
                if dp[j - 1][a].is_finite() {
                    let cand = dp[j - 1][a] + sse(a, i);
                    if cand < dp[j][i] {
                        dp[j][i] = cand;
                        cut[j][i] = a;
                    }
                }
            }
        }
    }
    let mut bounds = Vec::with_capacity(k_eff - 1);
    let mut i = d;
    let mut j = k_eff;
    while j > 0 {
        let a = cut[j][i];
        if j > 1 {
            bounds.push(vals[a - 1]);
        }
        i = a;
        j -= 1;
    }
    bounds.reverse();
    while bounds.len() < k - 1 {
        let pad = bounds.last().copied().unwrap_or(vals[d - 1]);
        bounds.push(pad);
    }
    Ok(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::lookup::LookupTable;
    use crate::separators::{learn_separators, SeparatorMethod};

    #[test]
    fn supervised_finds_class_boundaries() {
        // Labels switch at 100 and 200; k=4 must place cuts there.
        let mut values = Vec::new();
        let mut labels = Vec::new();
        for i in 0..300 {
            let v = i as f64;
            values.push(v);
            labels.push(if v < 100.0 {
                0
            } else if v < 200.0 {
                1
            } else {
                2
            });
        }
        let seps = supervised_separators(&values, &labels, 4).unwrap();
        assert_eq!(seps.len(), 3);
        assert!(seps.contains(&99.0), "{seps:?}");
        assert!(seps.contains(&199.0), "{seps:?}");
        // Resulting table classifies the label perfectly by symbol.
        let table = LookupTable::from_parts(
            SeparatorMethod::Uniform,
            Alphabet::with_size(4).unwrap(),
            seps,
            &values,
        )
        .unwrap();
        let mut seen = std::collections::HashMap::new();
        for (&v, &l) in values.iter().zip(&labels) {
            let sym = table.encode_value(v).unwrap().rank();
            let entry = seen.entry(sym).or_insert(l);
            assert_eq!(*entry, l, "symbol {sym} mixes labels");
        }
    }

    #[test]
    fn supervised_beats_median_on_skewed_class_structure() {
        // 90% of mass at low values all of class 0; classes 1..3 hide in the
        // top decile. Median quantiles waste bins on class 0; the supervised
        // learner should carve up the top decile.
        let mut values = Vec::new();
        let mut labels = Vec::new();
        for i in 0..900 {
            values.push(i as f64 % 90.0);
            labels.push(0);
        }
        for i in 0..300 {
            let v = 1000.0 + i as f64;
            values.push(v);
            labels.push(1 + (i / 100) as usize);
        }
        let mi = |seps: Vec<f64>| {
            let table = LookupTable::from_parts(
                SeparatorMethod::Uniform,
                Alphabet::with_size(4).unwrap(),
                seps,
                &values,
            )
            .unwrap();
            let symbols: Vec<crate::symbol::Symbol> =
                values.iter().map(|&v| table.encode_value(v).unwrap()).collect();
            crate::privacy::mutual_information_bits(&labels, &symbols).unwrap()
        };
        let supervised = mi(supervised_separators(&values, &labels, 4).unwrap());
        let median = mi(learn_separators(SeparatorMethod::Median, &values, 4).unwrap());
        assert!(
            supervised > median + 0.3,
            "supervised MI {supervised} should clearly beat median MI {median}"
        );
    }

    #[test]
    fn reconstruction_matches_known_1d_kmeans() {
        // Three tight clusters: optimal 4-bin split isolates them (one split
        // inside the widest cluster or an empty-ish 4th bin — SSE must be ~0
        // for k=4 since 3 clusters of width 1 fit in 4 bins).
        let mut values = Vec::new();
        for c in [0.0, 100.0, 200.0] {
            for i in 0..10 {
                values.push(c + i as f64 * 0.1);
            }
        }
        let seps = reconstruction_separators(&values, 4).unwrap();
        let table = LookupTable::from_parts(
            SeparatorMethod::Uniform,
            Alphabet::with_size(4).unwrap(),
            seps,
            &values,
        )
        .unwrap();
        // Reconstruction error: every value within 0.5 of its bin mean.
        for &v in &values {
            let sym = table.encode_value(v).unwrap();
            let r = table.decode_symbol(sym, crate::lookup::SymbolSemantics::RangeMean).unwrap();
            assert!((r - v).abs() < 0.5, "{v} -> {r}");
        }
    }

    #[test]
    fn reconstruction_beats_uniform_on_clustered_data() {
        let mut values = Vec::new();
        for c in [0.0, 10.0, 500.0, 1000.0] {
            for i in 0..25 {
                values.push(c + i as f64 * 0.01);
            }
        }
        let sse_of = |seps: Vec<f64>| {
            let table = LookupTable::from_parts(
                SeparatorMethod::Uniform,
                Alphabet::with_size(4).unwrap(),
                seps,
                &values,
            )
            .unwrap();
            values
                .iter()
                .map(|&v| {
                    let r = table
                        .decode_symbol(
                            table.encode_value(v).unwrap(),
                            crate::lookup::SymbolSemantics::RangeMean,
                        )
                        .unwrap();
                    (r - v) * (r - v)
                })
                .sum::<f64>()
        };
        let optimal = sse_of(reconstruction_separators(&values, 4).unwrap());
        let uniform = sse_of(crate::separators::uniform_separators(1001.0, 4).unwrap());
        assert!(optimal <= uniform + 1e-9, "optimal {optimal} vs uniform {uniform}");
        assert!(optimal < 1.0, "clusters should reconstruct nearly exactly: {optimal}");
    }

    #[test]
    fn separators_are_monotone_and_right_count() {
        let values: Vec<f64> = (0..200).map(|i| ((i * 37) % 100) as f64).collect();
        let labels: Vec<usize> = values.iter().map(|&v| (v / 25.0) as usize).collect();
        for k in [2usize, 4, 8, 16] {
            for seps in [
                supervised_separators(&values, &labels, k).unwrap(),
                reconstruction_separators(&values, k).unwrap(),
            ] {
                assert_eq!(seps.len(), k - 1);
                for w in seps.windows(2) {
                    assert!(w[0] <= w[1], "{seps:?}");
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(supervised_separators(&[], &[], 4).is_err());
        assert!(supervised_separators(&[1.0], &[0, 1], 4).is_err());
        assert!(supervised_separators(&[1.0], &[0], 3).is_err(), "k must be a power of two");
        // Constant input: separators collapse to that value.
        let s = supervised_separators(&[5.0; 10], &[0; 10], 4).unwrap();
        assert_eq!(s, vec![5.0, 5.0, 5.0]);
        let s = reconstruction_separators(&[5.0; 10], 4).unwrap();
        assert_eq!(s, vec![5.0, 5.0, 5.0]);
        // Fewer distinct values than bins: padded boundaries still valid.
        let s = reconstruction_separators(&[1.0, 2.0], 8).unwrap();
        assert_eq!(s.len(), 7);
        for w in s.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
