//! Runs the benchmark binary the way the benchmark command does and
//! holds its output to the contract: the result line's keys, the metric
//! names and units listed in `BENCHMARK.json`, the name grammar, seeded
//! inputs, repeatable counts and the correctness gate's exit code.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// A directory of its own for one test to run the benchmark in: the
/// benchmark's marker manifest and copies of the two pin files, so runs
/// in parallel tests never share output files.
fn sandbox(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(dir.join("results")).unwrap();
    std::fs::create_dir_all(dir.join("e2ebench")).unwrap();
    std::fs::write(dir.join("e2ebench/Cargo.toml"), "").unwrap();
    for pin in ["results/wake_digests.json", "results/fleet_digest.json"] {
        std::fs::copy(repo().join(pin), dir.join(pin)).unwrap();
    }
    dir
}

fn run_in(dir: &Path, workload: &str, seed: u64, trace: bool) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sidewinder-e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(dir)
        .output()
        .expect("the benchmark binary runs")
}

/// `(name, unit)` of every metric a section of `BENCHMARK.json` lists.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(repo().join("BENCHMARK.json")).unwrap();
    let start = json.find(&format!("\"{section}\"")).unwrap();
    let end = json[start..].find(']').unwrap() + start;
    json[start..end]
        .lines()
        .filter_map(|l| {
            let field = |k: &str| {
                let i = l.find(&format!("\"{k}\": \""))? + k.len() + 5;
                Some(l[i..i + l[i..].find('"')?].to_string())
            };
            Some((field("name")?, field("unit").unwrap_or_default()))
        })
        .collect()
}

/// A string field of a one-line JSON object.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": \"");
    let i = line.find(&pat).unwrap() + pat.len();
    &line[i..i + line[i..].find('"').unwrap()]
}

struct Run {
    records: Vec<String>,
    result: String,
}

impl Run {
    fn names(&self) -> Vec<&str> {
        self.records.iter().map(|r| field(r, "name")).collect()
    }

    fn counts(&self) -> BTreeMap<String, String> {
        self.records
            .iter()
            .filter(|r| field(r, "kind") == "count" || field(r, "unit") == "count")
            .map(|r| {
                let v = r
                    .split("\"value\": ")
                    .nth(1)
                    .unwrap()
                    .split(',')
                    .next()
                    .unwrap();
                (field(r, "name").to_string(), v.to_string())
            })
            .collect()
    }
}

fn run(dir: &Path, workload: &str, seed: u64, trace: bool) -> Run {
    let out = run_in(dir, workload, seed, trace);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} seed {seed}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines: Vec<String> = stdout.lines().map(String::from).collect();
    let result = lines.pop().unwrap();
    Run {
        records: lines,
        result,
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line's metrics are exactly the section's metrics, with the
/// declared units.
fn assert_result_matches(run: &Run, section: &str) {
    let r = &run.result;
    assert!(r.starts_with("{\"correct\": true, \"attempted\": "), "{r}");
    assert!(r.contains(", \"failed\": 0, \"metrics\": {"), "{r}");
    let declared = declared(section);
    assert!(!declared.is_empty());
    for (name, unit) in &declared {
        let pat = format!("\"{name}\": {{\"value\": ");
        let i = r
            .find(&pat)
            .unwrap_or_else(|| panic!("{name} missing from {r}"));
        let rest = &r[i + pat.len()..];
        assert!(
            rest.contains(&format!("\"unit\": \"{unit}\"}}")),
            "{name} unit"
        );
    }
    assert_eq!(r.matches("\"value\": ").count(), declared.len(), "{r}");
}

#[test]
fn untraced_runs_print_the_end_to_end_metrics_whatever_the_seed() {
    let dir = sandbox("untraced");
    for workload in ["fleet_accel", "audio_sweep", "service_churn"] {
        let a = run(&dir, workload, 1, false);
        let b = run(&dir, workload, 2, false);
        assert_result_matches(&a, "end_to_end");
        assert_result_matches(&b, "end_to_end");
        // Another seed changes inputs, never the metric names.
        assert_eq!(a.names(), b.names(), "{workload}");
        for name in a.names() {
            assert!(valid_name(name), "{workload}: {name}");
        }
        for r in &a.records {
            assert!(r.contains("\"schema\": \"sidewinder.metric.v1\""));
            assert!(r.contains("\"samples\": "));
        }
    }
}

#[test]
fn traced_runs_print_the_per_layer_metrics_and_write_spans() {
    let dir = sandbox("traced");
    for workload in ["fleet_accel", "audio_sweep", "service_churn"] {
        let a = run(&dir, workload, 5, true);
        assert_result_matches(&a, "per_layer");
        for name in a.names() {
            assert!(valid_name(name), "{workload}: {name}");
        }
        let spans = dir.join(format!("e2ebench/out/{workload}.spans.jsonl"));
        let text = std::fs::read_to_string(spans).unwrap();
        assert!(text.lines().count() > 10, "{workload}: too few spans");
        assert!(text.contains("\"name\": \"sim.simulate_clean\""));
    }
}

#[test]
fn work_counts_repeat_at_one_seed_and_move_with_the_seed() {
    let dir = sandbox("counts");
    let a = run(&dir, "service_churn", 7, true);
    let b = run(&dir, "service_churn", 7, true);
    let c = run(&dir, "service_churn", 8, true);
    assert_eq!(a.counts(), b.counts());
    assert!(a.counts().contains_key("hub.node_execs"));
    assert_ne!(a.counts()["hub.node_execs"], c.counts()["hub.node_execs"]);
}

#[test]
fn a_corrupted_pin_fails_the_run_without_figures() {
    let dir = sandbox("corrupted-pin");
    let path = dir.join("results/wake_digests.json");
    let pins = std::fs::read_to_string(&path).unwrap();
    let digest = field(
        pins.lines().find(|l| l.contains("\"steps\"")).unwrap(),
        "steps",
    )
    .to_string();
    std::fs::write(&path, pins.replace(&digest, "0x0000000000000001")).unwrap();
    let out = run_in(&dir, "service_churn", 1, false);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\": false,"), "{last}");
    assert!(last.ends_with("\"metrics\": {}}"), "{last}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("wake digest steps"));
}
