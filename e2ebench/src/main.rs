//! `sidewinder-e2ebench` — the end-to-end benchmark of the Sidewinder
//! reproduction, with a separate traced run for per-layer figures.
//!
//! ```text
//! sidewinder-e2ebench --workload <fleet_accel|audio_sweep|service_churn>
//!                     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the correctness gate reads the pinned
//! digests in `results/`. Every figure is printed as one JSON record per
//! line (see `README.md` in this directory); the last line is the result
//! object `{"correct", "attempted", "failed", "metrics"}`. A run whose
//! outputs are wrong prints no figures in the result line and exits 1.
//! The untraced run's end-to-end times are scaled to a nominal host
//! speed measured between repetitions (see [`host`]).

mod audio_sweep;
mod fleet;
mod fleet_accel;
mod host;
mod layers;
mod report;
mod service_churn;
mod spans;
mod stats;

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{Kind, Record, END_TO_END, PER_LAYER};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["fleet_accel", "audio_sweep", "service_churn"];

/// Worker threads every workload runs on.
pub const WORKERS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: sidewinder-e2ebench --workload <fleet_accel|audio_sweep|service_churn> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_u64(value: &str) -> Option<u64> {
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

/// Parses the command line (program name excluded).
///
/// # Errors
///
/// The usage text with what was wrong.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("{flag}: bad value {value:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = Some(parse_u64(value).ok_or_else(bad)?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(bad()),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err(format!("missing a flag\n{USAGE}")),
    }
}

/// What a workload hands back: operation counts, failures and figures.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: devices, sweep cells, requests and checks.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// What failed, for the error stream.
    pub problems: Vec<String>,
    /// Every figure measured.
    pub records: Vec<Record>,
}

impl Outcome {
    /// Counts one checked operation; a failed check is a failed
    /// operation and is described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 32 {
                self.problems.push(what());
            }
        }
    }

    /// Adds `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.problems.push(what());
        }
    }
}

/// Everything a workload needs from the command line and the checkout.
pub struct Ctx {
    /// The command line.
    pub args: Args,
    /// The repository root (holds `results/`).
    pub root: PathBuf,
    /// When measuring started.
    pub started: Instant,
    /// Host probe times so far, seconds (untraced run only).
    pub probes: RefCell<Vec<f64>>,
    /// When the last probe ended.
    pub last_probe: Cell<Option<Instant>>,
}

impl Ctx {
    /// Whether to make another repetition after `done`: at least three
    /// (two in the traced run, which needs two to compare counts), then
    /// until the measuring time is used up. Before a repetition of the
    /// untraced run it probes the host's speed, at most every
    /// [`host::PROBE_EVERY_S`].
    pub fn another(&self, done: usize) -> bool {
        let min = if self.args.trace { 2 } else { 3 };
        let more = done < min || self.progress() < 1.0;
        let due = self
            .last_probe
            .get()
            .is_none_or(|t| t.elapsed().as_secs_f64() >= host::PROBE_EVERY_S);
        if more && due && !self.args.trace {
            match host::probe_in_child() {
                Ok(s) => self.probes.borrow_mut().push(s),
                Err(e) => eprintln!("e2ebench: {e}"),
            }
            self.last_probe.set(Some(Instant::now()));
        }
        more
    }

    /// The share of the measuring time used so far.
    pub fn progress(&self) -> f64 {
        self.started.elapsed().as_secs_f64() / self.args.seconds
    }

    /// Reads a file under the repository root.
    ///
    /// # Errors
    ///
    /// The path and the I/O error.
    pub fn read(&self, rel: &str) -> Result<String, String> {
        std::fs::read_to_string(self.root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))
    }
}

/// The repository root: the working directory when it holds this
/// benchmark, else the parent of the benchmark's own directory.
fn repo_root() -> PathBuf {
    if Path::new("e2ebench/Cargo.toml").is_file() {
        PathBuf::from(".")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

/// Scales the end-to-end times and rates to the nominal host speed by the
/// median of the run's probes (see [`host`]), keeping each measured value
/// as a `raw.<name>` detail.
fn scale_to_nominal(records: &mut Vec<Record>, probes: &[f64]) {
    let probe_s = stats::median(probes);
    let slowdown = probe_s / host::NOMINAL_PROBE_S;
    let mut raw = Vec::new();
    for r in records.iter_mut().filter(|r| r.kind == Kind::EndToEnd) {
        let scale = match r.unit {
            "s" | "ms" => 1.0 / slowdown,
            "1/s" => slowdown,
            _ => continue,
        };
        raw.push(Record::new(
            Kind::Detail,
            format!("raw.{}", r.name),
            r.value,
            r.unit,
            r.samples,
            r.stat.clone(),
        ));
        r.value *= scale;
        r.stat.push_str(", at nominal host speed");
    }
    records.extend(raw);
    records.push(Record::new(
        Kind::Detail,
        "host.probe_ms",
        probe_s * 1e3,
        "ms",
        probes.len(),
        "median",
    ));
    records.push(Record::new(
        Kind::Detail,
        "host.slowdown",
        slowdown,
        "ratio",
        probes.len(),
        "median probe / nominal",
    ));
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The pre-flight gate: the seven fixture wake digests against
/// `results/wake_digests.json`.
fn preflight(ctx: &Ctx, out: &mut Outcome) {
    let golden = match ctx.read("results/wake_digests.json") {
        Ok(text) => sidewinder_bench::gate::parse_digests(&text),
        Err(e) => {
            out.check(false, || e);
            return;
        }
    };
    let fresh = sidewinder_bench::gate::fixture_digests();
    let violations = sidewinder_bench::gate::check_digests(&golden, &fresh);
    for (name, _) in &fresh {
        let v = violations.iter().find(|v| &v.id == name);
        out.check(v.is_none(), || {
            format!("wake digest {name}: {}", v.map_or("", |v| &v.message))
        });
    }
    out.check(fresh.len() == 7, || {
        format!("expected 7 fixture wake digests, got {}", fresh.len())
    });
}

fn write_trace_files(ctx: &Ctx, spans: &[spans::Span], lines: &str) -> Result<PathBuf, String> {
    let dir = ctx.root.join("e2ebench/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let w = &ctx.args.workload;
    let spans_path = dir.join(format!("{w}.spans.jsonl"));
    std::fs::write(&spans_path, spans::to_jsonl(spans))
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let layers_path = dir.join(format!("{w}.layers.jsonl"));
    std::fs::write(&layers_path, lines)
        .map_err(|e| format!("writing {}: {e}", layers_path.display()))?;
    Ok(spans_path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == [host::PROBE_FLAG] {
        println!("{}", host::probe(WORKERS));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        spans::enable();
    }
    let mut ctx = Ctx {
        args,
        root: repo_root(),
        started: Instant::now(),
        probes: RefCell::new(Vec::new()),
        last_probe: Cell::new(None),
    };
    let mut out = Outcome::default();
    preflight(&ctx, &mut out);
    ctx.started = Instant::now();
    match ctx.args.workload.as_str() {
        "fleet_accel" => fleet_accel::run(&ctx, &mut out),
        "audio_sweep" => audio_sweep::run(&ctx, &mut out),
        _ => service_churn::run(&ctx, &mut out),
    }
    let measured_s = ctx.started.elapsed().as_secs_f64();
    if let Some(rss) = peak_rss_mib() {
        out.records.push(Record::new(
            Kind::EndToEnd,
            "peak_rss_mib",
            rss,
            "MiB",
            1,
            "VmHWM",
        ));
    }
    if !ctx.args.trace {
        let probes = ctx.probes.borrow();
        out.check(!probes.is_empty(), || "no host probe ran".to_string());
        if !probes.is_empty() {
            scale_to_nominal(&mut out.records, &probes);
        }
    }
    out.records.push(Record::new(
        Kind::Detail,
        "run.measured_s",
        measured_s,
        "s",
        1,
        "wall",
    ));
    out.records.push(Record::new(
        Kind::Detail,
        "failed_fraction",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted as usize,
        format!("{} of {}", out.failed, out.attempted),
    ));

    if let Some(r) = out.records.iter().find(|r| !report::valid_name(&r.name)) {
        eprintln!("e2ebench: metric name {:?} breaks the name grammar", r.name);
        return ExitCode::from(2);
    }
    let w = &ctx.args.workload;
    let seed = ctx.args.seed;
    let lines: String = out
        .records
        .iter()
        .map(|r| r.to_json(w, seed) + "\n")
        .collect();
    print!("{lines}");
    if ctx.args.trace {
        let spans = spans::take();
        match write_trace_files(&ctx, &spans, &lines) {
            Ok(path) => eprintln!(
                "e2ebench: wrote {} spans to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => out.check(false, || e),
        }
    }
    for p in &out.problems {
        eprintln!("e2ebench: FAILED: {p}");
    }
    let correct = out.failed == 0;
    let names: &[&str] = if ctx.args.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    match report::result_line(correct, out.attempted, out.failed, names, &out.records) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload audio_sweep --seed 0x51DEF1EE --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "audio_sweep");
        assert_eq!(a.seed, 0x51DE_F1EE);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload audio_sweep --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv(
            "--workload audio_sweep --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
    }

    #[test]
    fn end_to_end_times_scale_to_the_nominal_host() {
        let mut records = vec![
            Record::new(Kind::EndToEnd, "latency_p50_ms", 10.0, "ms", 5, "median"),
            Record::new(Kind::EndToEnd, "throughput_per_s", 100.0, "1/s", 5, "total"),
            Record::new(Kind::EndToEnd, "peak_rss_mib", 4.0, "MiB", 1, "VmHWM"),
            Record::new(Kind::Detail, "table_wall_s", 2.0, "s", 5, "median"),
        ];
        // The host ran the probe at twice its nominal time.
        let nominal = host::NOMINAL_PROBE_S;
        scale_to_nominal(&mut records, &[2.0 * nominal, 1.0 * nominal, 3.0 * nominal]);
        let value = |name: &str| records.iter().find(|r| r.name == name).unwrap().value;
        assert_eq!(value("latency_p50_ms"), 5.0);
        assert_eq!(value("throughput_per_s"), 200.0);
        assert_eq!(value("peak_rss_mib"), 4.0);
        assert_eq!(value("table_wall_s"), 2.0);
        assert_eq!(value("raw.latency_p50_ms"), 10.0);
        assert_eq!(value("raw.throughput_per_s"), 100.0);
        assert_eq!(value("host.slowdown"), 2.0);
    }

    /// Every metric name the benchmark declares appears in the committed
    /// `BENCHMARK.json`, and every name fits the grammar.
    #[test]
    fn declared_metrics_are_listed_in_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .chain(WORKLOADS.iter())
        {
            assert!(report::valid_name(name), "{name}");
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
    }
}
