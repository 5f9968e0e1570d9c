//! The one metric record shape every figure of the benchmark is printed
//! in, and the result line that closes a run.

use std::fmt::Write as _;

/// Metrics printed in the result line of an untraced run.
pub const END_TO_END: [&str; 5] = [
    "throughput_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "setup_s",
    "peak_rss_mib",
];

/// Metrics printed in the result line of a traced run: the layers all
/// three workloads exercise.
pub const PER_LAYER: [&str; 21] = [
    "tracegen.busy_s",
    "tracegen.msamples_per_s",
    "hub.interpret_s",
    "hub.ns_per_sample",
    "hub.load_us",
    "hub.samples",
    "hub.node_execs",
    "hub.wakes",
    "dsp.busy_s",
    "mcu.ns_per_sample",
    "mcu.host_ratio",
    "apps.classify_s",
    "apps.classify_calls",
    "sim.busy_s",
    "sim.self_s",
    "sim.clean_s",
    "sim.wake_ups",
    "sim.frames_retried",
    "wire.bytes",
    "batch.parallel_efficiency",
    "trace.overhead_ratio",
];

/// Which group a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A figure a user of the system sees; gated by a bound.
    EndToEnd,
    /// A figure of one layer, from the traced run.
    PerLayer,
    /// A deterministic work count: identical on every run at one seed.
    Count,
    /// A workload-specific figure printed for reading, not gated.
    Detail,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::EndToEnd => "end_to_end",
            Kind::PerLayer => "per_layer",
            Kind::Count => "count",
            Kind::Detail => "detail",
        }
    }
}

/// One measured figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The figure, as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// Samples the figure summarizes.
    pub samples: usize,
    /// How the samples were reduced: `median`, `sum`, `p97.5`, `ratio`, …
    pub stat: String,
    /// Group.
    pub kind: Kind,
}

impl Record {
    /// A record; `stat` describes how `samples` were reduced.
    pub fn new(
        kind: Kind,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        stat: impl Into<String>,
    ) -> Record {
        Record {
            name: name.into(),
            value,
            unit,
            samples,
            stat: stat.into(),
            kind,
        }
    }

    /// The shared machine-readable shape, one JSON object per line.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        format!(
            "{{\"schema\": \"sidewinder.metric.v1\", \"workload\": \"{workload}\", \"seed\": {seed}, \"kind\": \"{}\", \"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {}, \"stat\": \"{}\"}}",
            self.kind.label(),
            self.name,
            json_number(self.value),
            self.unit,
            self.samples,
            self.stat,
        )
    }
}

/// Whether `name` fits the metric-name grammar `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A finite float as JSON; non-finite values (never expected) become 0.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding `names` looked up in `records`. A run
/// that is not correct reports no numbers.
///
/// # Errors
///
/// Names a metric of `names` that no record carries.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[&str],
    records: &[Record],
) -> Result<String, String> {
    let mut metrics = String::new();
    if correct {
        for (i, name) in names.iter().enumerate() {
            let r = records
                .iter()
                .find(|r| r.name == *name)
                .ok_or_else(|| format!("no record for metric {name}"))?;
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(r.value),
                r.unit
            );
        }
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let records = vec![Record::new(
            Kind::EndToEnd,
            "setup_s",
            0.25,
            "s",
            5,
            "median",
        )];
        let line = result_line(true, 10, 0, &["setup_s"], &records).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(result_line(true, 1, 0, &["missing"], &records).is_err());
        // A wrong run reports no numbers.
        let wrong = result_line(false, 10, 2, &["setup_s"], &records).unwrap();
        assert!(wrong.ends_with("\"metrics\": {}}"));
    }

    #[test]
    fn name_grammar() {
        assert!(valid_name("hub.ns_per_sample"));
        assert!(valid_name("dsp.movingAvg_s"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
        assert!(!valid_name("x/y"));
    }
}
