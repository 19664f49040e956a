//! The result line a run ends with, and reading it back.
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. The build has no
//! JSON crate; the line's shape is fixed here, so [`parse_metrics`] reads
//! exactly what [`result_line`] writes and nothing more general.

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists it under.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Formats the result line. A value that is not finite prints as 0, which
/// JSON can carry.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The number that follows `"key": ` at the start of `text`'s first
/// occurrence of it.
fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads a [`result_line`] back: whether it says `correct`, and each
/// metric's value.
#[must_use]
pub fn parse_metrics(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let metrics = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut out = Vec::new();
    for entry in metrics.split("}, ") {
        let name = entry.split('"').nth(1)?;
        out.push((name.to_owned(), number_after(entry, "\"value\": ")?));
    }
    Some((correct, out))
}

/// The `bound` of each `end_to_end` metric in a `BENCHMARK.json` written
/// the way this repo's is: one metric object per line, `name` first.
#[must_use]
pub fn bounds(benchmark_json: &str) -> Vec<(String, f64)> {
    benchmark_json
        .lines()
        .filter(|line| line.contains("\"bound\""))
        .filter_map(|line| {
            let name = line.split("\"name\": \"").nth(1)?.split('"').next()?;
            Some((name.to_owned(), number_after(line, "\"bound\": ")?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("tput_tps", 8123.456, "1/s"),
                Metric::new("setup_s", 0.10432, "s"),
            ],
        );
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        let (correct, metrics) = parse_metrics(&line).unwrap();
        assert!(correct);
        assert_eq!(
            metrics,
            vec![
                ("tput_tps".to_owned(), 8123.456),
                ("setup_s".to_owned(), 0.10432)
            ]
        );
    }

    #[test]
    fn bounds_reads_one_metric_per_line() {
        let text = "{\n  \"end_to_end\": [\n    {\"name\": \"p50_us\", \"unit\": \"us\", \
                    \"better\": \"lower\", \"bound\": 0.1},\n    {\"name\": \"setup_s\", \
                    \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.25}\n  ]\n}";
        assert_eq!(
            bounds(text),
            vec![("p50_us".to_owned(), 0.1), ("setup_s".to_owned(), 0.25)]
        );
    }
}
