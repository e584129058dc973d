//! Named metrics with units and bases, the human report and the final
//! one-line JSON result.

use crate::stats::{median, Ratio, Slice, Sorted};

/// One reported number: name, value, unit and what it rests on (sample
/// count or ratio base).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub basis: String,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &str, basis: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            basis: basis.into(),
        });
    }

    /// Adds the `q`-quantile of `samples` (scaled by `scale`).
    ///
    /// # Errors
    ///
    /// When the samples cannot support the percentile (see
    /// [`Sorted::quantile`]); the run must then fail, not print a number.
    pub fn quantile(
        &mut self,
        name: &str,
        samples: &Sorted,
        q: f64,
        scale: f64,
        unit: &str,
    ) -> Result<(), String> {
        let quantile = samples.quantile(q).map_err(|e| format!("{name}: {e}"))?;
        self.add(
            name,
            quantile.value * scale,
            unit,
            format!("n={}", quantile.count),
        );
        Ok(())
    }

    /// Adds the median over `slices` of each slice's work per second.
    pub fn sliced_rate(&mut self, name: &str, slices: &[Slice], unit: &str) {
        let rates: Vec<f64> = slices.iter().map(|s| s.work / s.seconds).collect();
        let work: f64 = slices.iter().map(|s| s.work).sum();
        let seconds: f64 = slices.iter().map(|s| s.seconds).sum();
        self.add(
            name,
            median(&rates),
            unit,
            format!(
                "median of slices [{}]; {work} in {seconds:.3} s",
                list(&rates)
            ),
        );
    }

    /// Adds the median over `slices` of each slice's `q`-quantile (scaled).
    ///
    /// # Errors
    ///
    /// When any slice cannot support the percentile.
    pub fn sliced_quantile(
        &mut self,
        name: &str,
        slices: &[Slice],
        q: f64,
        scale: f64,
        unit: &str,
    ) -> Result<(), String> {
        let mut values = Vec::with_capacity(slices.len());
        let mut count = 0;
        for (i, s) in slices.iter().enumerate() {
            let quantile = Sorted::new(s.latencies.clone())
                .quantile(q)
                .map_err(|e| format!("{name}, slice {i}: {e}"))?;
            values.push(quantile.value * scale);
            count += quantile.count;
        }
        self.add(
            name,
            median(&values),
            unit,
            format!("median of slices [{}]; n={count}", list(&values)),
        );
        Ok(())
    }

    /// Adds the `q`-quantile over every slice's samples together.
    ///
    /// # Errors
    ///
    /// As for [`Report::quantile`].
    pub fn pooled_quantile(
        &mut self,
        name: &str,
        slices: &[Slice],
        q: f64,
        unit: &str,
    ) -> Result<(), String> {
        let all: Vec<f64> = slices
            .iter()
            .flat_map(|s| s.latencies.iter().copied())
            .collect();
        self.quantile(name, &Sorted::new(all), q, 1.0, unit)
    }

    pub fn ratio(&mut self, name: &str, ratio: Ratio, unit: &str) {
        self.add(name, ratio.value(), unit, format!("base {ratio}"));
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn print(&self, workload: &str, kind: &str) {
        for m in &self.metrics {
            println!(
                "{kind} {workload} {:<40} {:>16} {:<9} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.basis
            );
        }
    }
}

/// Slice values, for the report line.
fn list(values: &[f64]) -> String {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    shown.join(" ")
}

/// A measured number with all its digits (shortest round-trip form).
pub fn format_value(v: f64) -> String {
    format!("{v}")
}

/// The last line of the benchmark's output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                format_value(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let metrics = [Metric {
            name: "setup_s".into(),
            value: 0.8127,
            unit: "s".into(),
            basis: String::new(),
        }];
        assert_eq!(
            result_line(true, 10, 0, &metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn quantile_records_its_count() {
        let mut report = Report::default();
        let samples = Sorted::new((0..100).map(f64::from).collect());
        report.quantile("lat_ms", &samples, 0.5, 1e3, "ms").unwrap();
        let m = report.get("lat_ms").unwrap();
        assert_eq!((m.value, m.basis.as_str()), (49_000.0, "n=100"));
        assert!(report
            .quantile("lat_p99", &samples, 0.99, 1.0, "ms")
            .is_err());
    }

    #[test]
    fn sliced_metrics_take_the_median_slice() {
        let slice = |seconds: f64, work: f64, base: f64| Slice {
            seconds,
            work,
            latencies: (0..40).map(|i| base + f64::from(i)).collect(),
        };
        let slices = [
            slice(1.0, 10.0, 0.0),
            slice(2.0, 100.0, 100.0),
            slice(1.0, 30.0, 50.0),
        ];
        let mut report = Report::default();
        report.sliced_rate("rate", &slices, "1/s");
        report
            .sliced_quantile("p50", &slices, 0.5, 1.0, "ms")
            .unwrap();
        assert_eq!(report.get("rate").unwrap().value, 30.0);
        assert_eq!(report.get("p50").unwrap().value, 69.0);
        assert_eq!(
            report.get("p50").unwrap().basis,
            "median of slices [19.0000 119.0000 69.0000]; n=120"
        );
        let thin = [slice(1.0, 1.0, 0.0), Slice::default()];
        assert!(report
            .sliced_quantile("p50", &thin, 0.5, 1.0, "ms")
            .is_err());
    }
}
