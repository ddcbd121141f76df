//! Ablation experiments for DESIGN.md's design-choice list:
//!
//! * **separator method extended**: the paper's three unsupervised methods
//!   versus the §4 utility-driven learners (supervised and
//!   reconstruction-optimal separators);
//! * **exact vs approximate (quantile sketch) streaming separator
//!   learning** — how much accuracy the bounded-memory sensor-side sketch
//!   gives up.

use crate::prep::{dataset, PAPER_MIN_COVERAGE};
use crate::scale::Scale;
use meterdata::dataset::MeterDataset;
use sms_core::alphabet::Alphabet;
use sms_core::error::{Error, Result};
use sms_core::lookup::{LookupTable, SymbolSemantics};
use sms_core::separators::{learn_separators, SeparatorMethod};
use sms_core::stats::QuantileSketch;
use sms_core::utility::{reconstruction_separators, supervised_separators};
use sms_core::vertical::{aggregate_by_window, Aggregation};

/// Reconstruction MAE of a table over hourly aggregates of every house.
fn reconstruction_mae(ds: &MeterDataset, table: &LookupTable) -> Result<f64> {
    let mut err = 0.0;
    let mut n = 0u64;
    for r in ds.records() {
        let hourly = aggregate_by_window(&r.series, 3600, Aggregation::Mean, 1)?;
        for (_, v) in hourly.iter() {
            let d = table.decode_symbol(table.encode_value(v)?, SymbolSemantics::RangeMean)?;
            err += (v - d).abs();
            n += 1;
        }
    }
    if n == 0 {
        return Err(Error::EmptyInput("reconstruction_mae"));
    }
    Ok(err / n as f64)
}

/// One separator-strategy row of the ablation.
#[derive(Debug, Clone)]
pub struct SeparatorAblationRow {
    /// Strategy name.
    pub label: String,
    /// Reconstruction MAE over hourly values (W).
    pub reconstruction_mae: f64,
    /// Mutual information between house and symbol (bits) — the
    /// classification-utility proxy.
    pub mi_bits: f64,
}

/// Compares all five separator strategies (three from §2.2, two from §4) on
/// a pooled global table at `k = 16`.
pub fn run_separator_ablation(scale: Scale) -> Result<Vec<SeparatorAblationRow>> {
    let ds = dataset(scale)?;
    let alphabet = Alphabet::with_resolution(4)?;

    // Pooled hourly training data with house labels.
    let head = ds.head_duration(scale.training_prefix_secs());
    let mut values = Vec::new();
    let mut labels = Vec::new();
    for (idx, r) in head.records().iter().enumerate() {
        let hourly = aggregate_by_window(&r.series, 3600, Aggregation::Mean, 1)?;
        for (_, v) in hourly.iter() {
            values.push(v);
            labels.push(idx);
        }
    }
    if values.is_empty() {
        return Err(Error::EmptyInput("run_separator_ablation"));
    }

    let mut rows = Vec::new();
    let mut eval = |label: String, seps: Vec<f64>| -> Result<()> {
        let table = LookupTable::from_parts(SeparatorMethod::Uniform, alphabet, seps, &values)?;
        let mae = reconstruction_mae(&ds, &table)?;
        // MI over the complete-day hourly symbols (house identity signal).
        let mut symbols = Vec::new();
        let mut sym_labels = Vec::new();
        for (idx, r) in ds.records().iter().enumerate() {
            for day in r.series.split_days() {
                if day.1.coverage_seconds(ds.interval_secs()) < PAPER_MIN_COVERAGE {
                    continue;
                }
                let hourly = aggregate_by_window(&day.1, 3600, Aggregation::Mean, 1)?;
                for (_, v) in hourly.iter() {
                    symbols.push(table.encode_value(v)?);
                    sym_labels.push(idx);
                }
            }
        }
        let mi = sms_core::privacy::mutual_information_bits(&sym_labels, &symbols)?;
        rows.push(SeparatorAblationRow { label, reconstruction_mae: mae, mi_bits: mi });
        Ok(())
    };

    for method in SeparatorMethod::ALL {
        eval(method.name().to_string(), learn_separators(method, &values, 16)?)?;
    }
    eval("supervised (§4)".to_string(), supervised_separators(&values, &labels, 16)?)?;
    eval("reconstruction-opt (§4)".to_string(), reconstruction_separators(&values, 16)?)?;
    Ok(rows)
}

/// Renders the separator ablation.
pub fn render_separator_ablation(rows: &[SeparatorAblationRow]) -> String {
    let mut s = format!(
        "Separator-strategy ablation (global table, k = 16, hourly)\n{:<26} {:>18} {:>16}\n",
        "strategy", "reconstruction MAE", "MI(house;sym) bit"
    );
    for r in rows {
        s += &format!("{:<26} {:>18.1} {:>16.3}\n", r.label, r.reconstruction_mae, r.mi_bits);
    }
    s
}

/// Exact vs approximate (quantile sketch) streaming separator learning: max
/// relative separator deviation and resulting symbol disagreement rate.
#[derive(Debug, Clone)]
pub struct StreamingAblation {
    /// Largest |approx − exact| / range over the k−1 separators.
    pub max_relative_deviation: f64,
    /// Fraction of training values encoded to a different symbol.
    pub symbol_disagreement: f64,
}

/// Runs the exact-vs-sketch comparison on one house's two-day history.
pub fn run_streaming_ablation(scale: Scale) -> Result<StreamingAblation> {
    let ds = dataset(scale)?;
    let head = ds
        .house(1)
        .ok_or(Error::EmptyInput("house 1"))?
        .head_duration(scale.training_prefix_secs());
    let values = head.values();
    if values.is_empty() {
        return Err(Error::EmptyInput("run_streaming_ablation"));
    }
    let alphabet = Alphabet::with_resolution(4)?;

    let exact = learn_separators(SeparatorMethod::Median, &values, 16)?;
    let mut sketch = QuantileSketch::with_default_capacity();
    for &v in &values {
        sketch.update(v)?;
    }
    let approx = LookupTable::learn_from_sketch(SeparatorMethod::Median, alphabet, &sketch)?
        .separators()
        .to_vec();

    let range = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_dev =
        exact.iter().zip(&approx).map(|(e, a)| (e - a).abs() / range.max(1e-9)).fold(0.0, f64::max);

    let t_exact = LookupTable::from_parts(SeparatorMethod::Median, alphabet, exact, &values)?;
    let t_approx = LookupTable::from_parts(SeparatorMethod::Median, alphabet, approx, &values)?;
    let disagreements = values
        .iter()
        .filter(|&&v| t_exact.encode_value(v).unwrap() != t_approx.encode_value(v).unwrap())
        .count();
    Ok(StreamingAblation {
        max_relative_deviation: max_dev,
        symbol_disagreement: disagreements as f64 / values.len() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> Scale {
        Scale {
            days: 6,
            interval_secs: 300,
            forest_trees: 4,
            cv_folds: 2,
            seed: 23,
            ..Scale::quick()
        }
    }

    #[test]
    fn separator_ablation_shapes() {
        let rows = run_separator_ablation(scale()).unwrap();
        assert_eq!(rows.len(), 5);
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.label.starts_with(label))
                .unwrap_or_else(|| panic!("{label} missing"))
        };
        // Reconstruction-optimal separators must reconstruct at least as
        // well as uniform on the training distribution.
        assert!(
            get("reconstruction-opt").reconstruction_mae
                <= get("uniform").reconstruction_mae * 1.05,
            "{rows:?}"
        );
        // Supervised separators must carry at least as much house
        // information as uniform.
        assert!(get("supervised").mi_bits >= get("uniform").mi_bits * 0.9, "{rows:?}");
        let txt = render_separator_ablation(&rows);
        assert!(txt.contains("supervised"));
    }

    #[test]
    fn streaming_ablation_small_error() {
        // A finer-sampled two-day history makes the sketch compact many
        // times. Quantized meter data concentrates mass on a few exact watt
        // values, so a quantile estimate landing on the wrong side of a
        // point mass can flip a whole bin — the bounds below leave room for
        // that on discrete distributions.
        let fine = Scale {
            days: 3,
            interval_secs: 30,
            forest_trees: 4,
            cv_folds: 2,
            seed: 23,
            ..Scale::quick()
        };
        let a = run_streaming_ablation(fine).unwrap();
        assert!(a.max_relative_deviation < 0.25, "sketch deviation {}", a.max_relative_deviation);
        assert!(a.symbol_disagreement < 0.5, "disagreement {}", a.symbol_disagreement);
    }
}
