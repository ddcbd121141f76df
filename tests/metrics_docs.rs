//! Keeps `OBSERVABILITY.md` in step with the metric declarations. Every
//! metric in `telemetry::CATALOG` must have exactly one table row whose
//! Name, Prometheus name, Type, Unit and JSON path match its declaration,
//! every span series the Prometheus exporter writes must have one row with
//! its type, and every backticked `sms_` name in the document must be one
//! of those.

use smart_meter_symbolics::core::telemetry::{MetricKind, Registry, CATALOG};

const DOC: &str = include_str!("../OBSERVABILITY.md");

/// The cells of every table row whose first cell is backticked (header
/// and separator rows are skipped), with the backticks stripped.
fn table_rows() -> Vec<Vec<&'static str>> {
    DOC.lines()
        .filter(|line| line.starts_with("| `"))
        .map(|line| line.trim_matches('|').split('|').map(|c| c.trim().trim_matches('`')).collect())
        .collect()
}

/// `(name, type)` of the span series, read from the `# TYPE` lines of a
/// registry that holds one span and no metric.
fn span_series() -> Vec<(String, String)> {
    let reg = Registry::new();
    reg.record_span("encode_fleet", 1, 0.5);
    reg.render_prometheus()
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|rest| {
            let (name, kind) = rest.split_once(' ').expect("# TYPE <name> <type>");
            (name.to_string(), kind.to_string())
        })
        .collect()
}

#[test]
fn every_declared_metric_has_one_matching_row() {
    let rows = table_rows();
    let mut problems = Vec::new();
    for spec in CATALOG {
        let json_path = match spec.kind {
            MetricKind::Histogram => format!("histograms.{}", spec.name),
            _ => format!("metrics.{}.{}", spec.block, spec.key),
        };
        let declared = [spec.key, spec.name, spec.kind.prometheus_type(), spec.unit, &json_path];
        let matching: Vec<&Vec<&str>> =
            rows.iter().filter(|row| row.get(1) == Some(&spec.name)).collect();
        match matching.as_slice() {
            [row] if row.len() >= 5 && row[..5] == declared => {}
            [row] => problems.push(format!("{}: row {:?}, declared {declared:?}", spec.name, row)),
            found => problems.push(format!("{}: {} rows, want 1", spec.name, found.len())),
        }
    }
    assert!(
        problems.is_empty(),
        "OBSERVABILITY.md disagrees with the metric declarations:\n{}",
        problems.join("\n")
    );
}

#[test]
fn every_documented_name_is_declared_or_a_span_series() {
    let spans = span_series();
    assert_eq!(spans.len(), 2, "the exporter writes two span series: {spans:?}");
    let rows = table_rows();
    for (name, kind) in &spans {
        let matching: Vec<&Vec<&str>> =
            rows.iter().filter(|row| row.first() == Some(&name.as_str())).collect();
        match matching.as_slice() {
            [row] => assert_eq!(row.get(1), Some(&kind.as_str()), "{name}: type in the span table"),
            found => panic!("{name}: {} rows in the span table, want 1", found.len()),
        }
    }

    let mut unknown = Vec::new();
    for (at, _) in DOC.match_indices("`sms_") {
        let rest = &DOC[at + 1..];
        let len =
            rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(rest.len());
        if !rest[len..].starts_with('`') {
            continue;
        }
        let name = &rest[..len];
        if !CATALOG.iter().any(|spec| spec.name == name) && !spans.iter().any(|(s, _)| s == name) {
            unknown.push(name);
        }
    }
    assert!(unknown.is_empty(), "OBSERVABILITY.md names undeclared metrics: {unknown:?}");
}
