//! The experiments of the paper's evaluation (§6), one function per table /
//! figure.  Each figure returns an [`ExperimentReport`] that can be
//! rendered as a plain-text table (for the console) or serialized to JSON
//! (for further analysis / plotting).  [`EXPERIMENTS`] lists them all
//! under the names `trajsimp experiments` runs them by:
//!
//! | name | function | paper artifact |
//! |---|---|---|
//! | `table1` | [`table1::run`] | Table 1 — dataset inventory |
//! | `fig12` | [`efficiency::fig12`] | Figure 12 — running time vs trajectory size |
//! | `fig13` | [`efficiency::fig13`] | Figure 13 — running time vs ζ |
//! | `fig14` | [`efficiency::fig14`] | Figure 14 — running time of the optimization ablation |
//! | `fig15` | [`effectiveness::fig15`] | Figure 15 — compression ratio vs ζ |
//! | `fig16` | [`effectiveness::fig16`] | Figure 16 — compression ratio of the ablation |
//! | `fig17` | [`effectiveness::fig17`] | Figure 17 — Z(k) segment distribution |
//! | `fig18` | [`errors::fig18`] | Figure 18 — average error vs ζ |
//! | `fig19a` | [`patching::fig19a`] | Figure 19(1) — patching ratio vs ζ |
//! | `fig19b` | [`patching::fig19b`] | Figure 19(2) — patching ratio vs γm |

pub mod effectiveness;
pub mod efficiency;
pub mod errors;
pub mod patching;
pub mod table1;

use crate::datasets::{DatasetRepository, Scale};
use crate::table::TextTable;
use traj_data::DatasetStats;
use traj_metrics::Measurement;
use traj_model::json::JsonValue;

/// What an experiment prints, and the JSON it saves as `<name>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The console tables.
    pub text: String,
    /// The structured result, pretty-printed.
    pub json: String,
}

impl From<ExperimentReport> for Output {
    fn from(report: ExperimentReport) -> Self {
        Self {
            text: report.render(),
            json: report.to_json(),
        }
    }
}

/// Runs one table or figure on a repository's datasets at a scale.
pub type Runner = fn(&DatasetRepository, Scale) -> Output;

/// Every experiment by the name it runs by, in the paper's order: the
/// order `all` runs them in.
pub static EXPERIMENTS: [(&str, Runner); 10] = [
    ("table1", |repo, scale| {
        let stats = table1::run(repo, scale);
        let rows = stats.iter().map(DatasetStats::to_json_value).collect();
        Output {
            text: table1::render(&stats),
            json: JsonValue::Array(rows).to_string_pretty(),
        }
    }),
    ("fig12", |r, s| efficiency::fig12(r, s).into()),
    ("fig13", |r, s| efficiency::fig13(r, s).into()),
    ("fig14", |r, s| efficiency::fig14(r, s).into()),
    ("fig15", |r, s| effectiveness::fig15(r, s).into()),
    ("fig16", |r, s| effectiveness::fig16(r, s).into()),
    ("fig17", |r, s| effectiveness::fig17(r, s).into()),
    ("fig18", |r, s| errors::fig18(r, s).into()),
    ("fig19a", |r, s| patching::fig19a(r, s).into()),
    ("fig19b", |r, s| patching::fig19b(r, s).into()),
];

/// The experiments `name` selects: every one for `all`, otherwise the one
/// of that name.
pub fn select(name: &str) -> Option<&'static [(&'static str, Runner)]> {
    if name == "all" {
        return Some(&EXPERIMENTS);
    }
    let i = EXPERIMENTS.iter().position(|(n, _)| *n == name)?;
    Some(&EXPERIMENTS[i..=i])
}

/// One data point of a sweep experiment: a (dataset, algorithm, parameter)
/// triple and the measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Dataset name (Taxi, Truck, SerCar, GeoLife).
    pub dataset: String,
    /// Algorithm name (DP, FBQS, OPERB, …).
    pub algorithm: String,
    /// The swept parameter value (trajectory size, ζ in meters, γm in
    /// degrees, or k for distribution experiments).
    pub parameter: f64,
    /// The measured value (milliseconds, ratio, meters, or count); the
    /// median of the runs for a timing.
    pub value: f64,
    /// The interquartile range of a timing's runs, in the value's unit;
    /// `None` for a value measured once.
    pub iqr: Option<f64>,
}

/// A complete experiment result: metadata plus all sweep records.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Short identifier, e.g. `"fig12"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Name of the swept parameter (for the table header).
    pub parameter_name: String,
    /// Name/unit of the measured value (for the table header).
    pub value_name: String,
    /// All measurements.
    pub records: Vec<SweepRecord>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        parameter_name: impl Into<String>,
        value_name: impl Into<String>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            parameter_name: parameter_name.into(),
            value_name: value_name.into(),
            records: Vec::new(),
        }
    }

    /// Appends one measurement.
    pub fn push(&mut self, dataset: &str, algorithm: &str, parameter: f64, value: f64) {
        self.records.push(SweepRecord {
            dataset: dataset.to_string(),
            algorithm: algorithm.to_string(),
            parameter,
            value,
            iqr: None,
        });
    }

    /// Appends one timing: the median of its runs, with their
    /// interquartile range.
    pub fn push_timed(
        &mut self,
        dataset: &str,
        algorithm: &str,
        parameter: f64,
        timing: &Measurement,
    ) {
        self.records.push(SweepRecord {
            dataset: dataset.to_string(),
            algorithm: algorithm.to_string(),
            parameter,
            value: timing.median_millis(),
            iqr: Some(timing.iqr_millis()),
        });
    }

    /// All distinct parameter values, in insertion order.
    pub fn parameters(&self) -> Vec<f64> {
        let mut out: Vec<f64> = Vec::new();
        for r in &self.records {
            if !out.contains(&r.parameter) {
                out.push(r.parameter);
            }
        }
        out
    }

    /// All distinct (dataset, algorithm) series, in insertion order.
    pub fn series(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        for r in &self.records {
            let key = (r.dataset.clone(), r.algorithm.clone());
            if !out.contains(&key) {
                out.push(key);
            }
        }
        out
    }

    /// The record of a given series at a given parameter, if measured.
    pub fn record(&self, dataset: &str, algorithm: &str, parameter: f64) -> Option<&SweepRecord> {
        self.records
            .iter()
            .find(|r| r.dataset == dataset && r.algorithm == algorithm && r.parameter == parameter)
    }

    /// The value of a given series at a given parameter, if measured.
    pub fn value(&self, dataset: &str, algorithm: &str, parameter: f64) -> Option<f64> {
        self.record(dataset, algorithm, parameter).map(|r| r.value)
    }

    /// Mean value of a series across all parameters (used for the paper's
    /// "on average X times faster" style summaries).
    pub fn series_mean(&self, dataset: &str, algorithm: &str) -> Option<f64> {
        let values: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.dataset == dataset && r.algorithm == algorithm)
            .map(|r| r.value)
            .collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// Mean ratio `numerator / denominator` of two algorithms' values over
    /// the parameters where both were measured (e.g. "OPERB is 4.1× faster
    /// than FBQS" = mean of FBQS-time / OPERB-time).
    pub fn mean_ratio(&self, dataset: &str, numerator: &str, denominator: &str) -> Option<f64> {
        let mut ratios = Vec::new();
        for p in self.parameters() {
            if let (Some(a), Some(b)) = (
                self.value(dataset, numerator, p),
                self.value(dataset, denominator, p),
            ) {
                if b != 0.0 {
                    ratios.push(a / b);
                }
            }
        }
        if ratios.is_empty() {
            None
        } else {
            Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
        }
    }

    /// Renders the report as one table per dataset: rows are parameter
    /// values, columns are algorithms.  A timing shows its interquartile
    /// range in brackets after the median.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ({}) ==\n", self.title, self.id);
        let unit = if self.records.iter().any(|r| r.iqr.is_some()) {
            format!("{} [IQR]", self.value_name)
        } else {
            self.value_name.clone()
        };
        let series = self.series();
        let mut datasets: Vec<String> = Vec::new();
        for (d, _) in &series {
            if !datasets.contains(d) {
                datasets.push(d.clone());
            }
        }
        for dataset in &datasets {
            let algos: Vec<String> = series
                .iter()
                .filter(|(d, _)| d == dataset)
                .map(|(_, a)| a.clone())
                .collect();
            let mut header = vec![format!("{} / {}", dataset, self.parameter_name)];
            header.extend(algos.iter().map(|a| format!("{a} ({unit})")));
            let mut table = TextTable::new(header);
            for p in self.parameters() {
                let mut row = vec![format!("{p}")];
                let mut any = false;
                for a in &algos {
                    match self.record(dataset, a, p) {
                        Some(r) => {
                            any = true;
                            row.push(match r.iqr {
                                Some(iqr) => {
                                    format!("{} [{}]", format_value(r.value), format_value(iqr))
                                }
                                None => format_value(r.value),
                            });
                        }
                        None => row.push(String::from("-")),
                    }
                }
                if any {
                    table.row(row);
                }
            }
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }

    /// Converts the report to a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        let records = self
            .records
            .iter()
            .map(|r| {
                let mut pairs = vec![
                    ("dataset", JsonValue::from(r.dataset.clone())),
                    ("algorithm", JsonValue::from(r.algorithm.clone())),
                    ("parameter", JsonValue::from(r.parameter)),
                    ("value", JsonValue::from(r.value)),
                ];
                pairs.extend(r.iqr.map(|iqr| ("iqr", JsonValue::from(iqr))));
                JsonValue::object(pairs)
            })
            .collect::<Vec<_>>();
        JsonValue::object([
            ("id", JsonValue::from(self.id.clone())),
            ("title", JsonValue::from(self.title.clone())),
            (
                "parameter_name",
                JsonValue::from(self.parameter_name.clone()),
            ),
            ("value_name", JsonValue::from(self.value_name.clone())),
            ("records", JsonValue::Array(records)),
        ])
    }

    /// Reconstructs a report from the JSON produced by
    /// [`ExperimentReport::to_json_value`].
    pub fn from_json_value(v: &JsonValue) -> Option<Self> {
        let mut report = Self::new(
            v.get("id")?.as_str()?,
            v.get("title")?.as_str()?,
            v.get("parameter_name")?.as_str()?,
            v.get("value_name")?.as_str()?,
        );
        for r in v.get("records")?.as_array()? {
            report.records.push(SweepRecord {
                dataset: r.get("dataset")?.as_str()?.to_string(),
                algorithm: r.get("algorithm")?.as_str()?.to_string(),
                parameter: r.get("parameter")?.as_f64()?,
                value: r.get("value")?.as_f64()?,
                iqr: r.get("iqr").and_then(JsonValue::as_f64),
            });
        }
        Some(report)
    }

    /// Serializes the report to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ExperimentReport {
        let mut r = ExperimentReport::new("figX", "Sample", "zeta", "ms");
        r.push("Taxi", "DP", 10.0, 100.0);
        r.push("Taxi", "OPERB", 10.0, 10.0);
        r.push("Taxi", "DP", 20.0, 80.0);
        r.push("Taxi", "OPERB", 20.0, 8.0);
        r.push("Truck", "DP", 10.0, 50.0);
        r
    }

    #[test]
    fn parameters_and_series() {
        let r = sample_report();
        assert_eq!(r.parameters(), vec![10.0, 20.0]);
        assert_eq!(r.series().len(), 3);
        assert_eq!(r.value("Taxi", "DP", 10.0), Some(100.0));
        assert_eq!(r.value("Taxi", "DP", 30.0), None);
    }

    #[test]
    fn means_and_ratios() {
        let r = sample_report();
        assert_eq!(r.series_mean("Taxi", "DP"), Some(90.0));
        assert_eq!(r.series_mean("Nowhere", "DP"), None);
        // DP / OPERB speed ratio: (100/10 + 80/8) / 2 = 10.
        assert_eq!(r.mean_ratio("Taxi", "DP", "OPERB"), Some(10.0));
        assert_eq!(r.mean_ratio("Truck", "DP", "OPERB"), None);
    }

    #[test]
    fn render_contains_all_sections() {
        let r = sample_report();
        let s = r.render();
        assert!(s.contains("Sample"));
        assert!(s.contains("Taxi"));
        assert!(s.contains("Truck"));
        assert!(s.contains("OPERB"));
    }

    #[test]
    fn json_roundtrip() {
        let r = sample_report();
        let json = r.to_json();
        assert!(!json.contains("iqr"), "a value measured once writes no iqr");
        let back = ExperimentReport::from_json_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn timings_carry_their_iqr_into_the_table_and_the_json() {
        let (_, timing) = traj_metrics::measure(5, || (0..1_000u64).sum::<u64>());
        let mut r = ExperimentReport::new("figT", "Timed", "zeta", "ms");
        r.push_timed("Taxi", "OPERB", 10.0, &timing);
        assert_eq!(r.records[0].value, timing.median_millis());
        assert_eq!(r.records[0].iqr, Some(timing.iqr_millis()));
        let text = r.render();
        assert!(text.contains("OPERB (ms [IQR])"), "{text}");
        let cell = format!(
            "{} [{}]",
            format_value(timing.median_millis()),
            format_value(timing.iqr_millis())
        );
        assert!(text.contains(&cell), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"iqr\""), "{json}");
        let back = ExperimentReport::from_json_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn every_experiment_is_selected_by_its_name_and_by_all() {
        assert_eq!(select("all").unwrap().len(), EXPERIMENTS.len());
        for (name, _) in &EXPERIMENTS {
            let one = select(name).unwrap();
            assert_eq!(one.len(), 1);
            assert_eq!(one[0].0, *name);
        }
        assert!(select("fig99").is_none());
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(1234.6), "1235");
        assert_eq!(format_value(12.345), "12.35");
        assert_eq!(format_value(0.1234), "0.1234");
    }
}
