//! Per-layer instruments shared by the workloads' traced runs: a
//! classify-timing application adapter, hub and MCU replays of the
//! inputs the simulator interprets, and the reduction of spans and
//! replay tallies to per-layer records.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sidewinder_hub::runtime::{ChannelRates, HubRuntime};
use sidewinder_hub::{compile_image, McuCore};
use sidewinder_ir::Program;
use sidewinder_obs::CounterSink;
use sidewinder_sensors::{EventKind, Micros, SensorChannel, SensorTrace};
use sidewinder_sim::{Application, SharedApp};

use crate::report::{Kind, Record};
use crate::spans::{self, Span};

/// Forwards every call to the wrapped application and records each
/// `classify` as an `apps.classify` span, a child of the simulation span
/// that calls it.
pub struct TimedApp(pub SharedApp);

impl Application for TimedApp {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn target_kinds(&self) -> Vec<EventKind> {
        self.0.target_kinds()
    }
    fn classify(&self, trace: &SensorTrace, start: Micros, end: Micros) -> Vec<Micros> {
        spans::span("apps.classify", spans::current_req(), || {
            self.0.classify(trace, start, end)
        })
    }
    fn wake_condition(&self) -> Program {
        self.0.wake_condition()
    }
    fn wake_condition_hub_mw(&self) -> f64 {
        self.0.wake_condition_hub_mw()
    }
}

/// The channel rates the simulator configures for `program` on `trace`,
/// or `None` when the trace lacks a channel the program reads.
pub fn rates_for(program: &Program, trace: &SensorTrace) -> Option<ChannelRates> {
    let mut rates = ChannelRates::default();
    for channel in program.channels() {
        rates = rates.with_rate(channel, trace.channel(channel)?.rate_hz());
    }
    Some(rates)
}

/// The simulator's sample order over `channels`: runs of consecutive
/// samples `(channel, start, end)` in which the earliest next sample
/// wins and ties go to the lower channel index.
pub fn replay_runs(
    trace: &SensorTrace,
    channels: &[SensorChannel],
) -> Vec<(SensorChannel, usize, usize)> {
    let series: Vec<_> = channels
        .iter()
        .map(|&c| trace.channel(c).expect("caller checked the channels"))
        .collect();
    let mut cursor = vec![0usize; channels.len()];
    let mut runs = Vec::new();
    loop {
        let mut best: Option<(usize, Micros)> = None;
        for (i, s) in series.iter().enumerate() {
            if cursor[i] < s.len() {
                let t = s.time_of(cursor[i]);
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((i, t));
                }
            }
        }
        let Some((i, _)) = best else { break };
        let wins = |t: Micros| {
            series.iter().enumerate().all(|(j, s)| {
                j == i || cursor[j] >= s.len() || {
                    let tj = s.time_of(cursor[j]);
                    if j < i {
                        t < tj
                    } else {
                        t <= tj
                    }
                }
            })
        };
        let start = cursor[i];
        let mut end = start + 1;
        while end < series[i].len() && wins(series[i].time_of(end)) {
            end += 1;
        }
        cursor[i] = end;
        runs.push((channels[i], start, end));
    }
    runs
}

/// Hub work tallied by replays: times from [`sidewinder_obs::NullSink`]
/// runs, counts from a [`CounterSink`] pass over the same samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HubTally {
    /// Programs loaded.
    pub loads: u64,
    /// Time in `HubRuntime::load`, ns.
    pub load_ns: u64,
    /// Time in `HubRuntime::push_samples`, ns.
    pub interpret_ns: u64,
    /// Samples pushed.
    pub samples: u64,
    /// Node executions.
    pub node_execs: u64,
    /// Wakes raised.
    pub wakes: u64,
    /// `Event::NodeExecuted.elapsed_ns` summed per algorithm kind.
    pub dsp_ns: BTreeMap<&'static str, u64>,
}

impl HubTally {
    /// Adds another tally into this one.
    pub fn merge(&mut self, o: &HubTally) {
        self.loads += o.loads;
        self.load_ns += o.load_ns;
        self.interpret_ns += o.interpret_ns;
        self.samples += o.samples;
        self.node_execs += o.node_execs;
        self.wakes += o.wakes;
        for (k, v) in &o.dsp_ns {
            *self.dsp_ns.entry(k).or_default() += v;
        }
    }

    /// The deterministic part: counts only.
    pub fn counts(&self) -> [u64; 4] {
        [self.loads, self.samples, self.node_execs, self.wakes]
    }
}

/// Replays `trace` through `program` on the host hub as the simulator
/// feeds it: once with the disabled sink, timed under `hub.load` and
/// `hub.interpret` spans, and once with a [`CounterSink`] for counts.
///
/// # Errors
///
/// A hub load or execution error, as text.
pub fn replay_hub(program: &Program, trace: &SensorTrace, req: u64) -> Result<HubTally, String> {
    let rates = rates_for(program, trace).ok_or("trace lacks a program channel")?;
    let runs = replay_runs(trace, &program.channels());
    let mut tally = HubTally {
        loads: 1,
        ..HubTally::default()
    };

    let t = Instant::now();
    let mut hub = spans::span("hub.load", req, || HubRuntime::load(program, &rates))
        .map_err(|e| e.to_string())?;
    tally.load_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    spans::span("hub.interpret", req, || {
        for &(channel, a, b) in &runs {
            let samples = &trace.channel(channel).expect("rates checked").samples()[a..b];
            std::hint::black_box(hub.push_samples(channel, samples))?;
        }
        Ok::<(), sidewinder_hub::HubError>(())
    })
    .map_err(|e| e.to_string())?;
    tally.interpret_ns = t.elapsed().as_nanos() as u64;

    let nodes = hub.node_count();
    let mut counted = spans::span("bench.count_pass", req, || {
        let mut counted =
            HubRuntime::load_with_sink(program, &rates, CounterSink::with_nodes(nodes))?;
        for &(channel, a, b) in &runs {
            let samples = &trace.channel(channel).expect("rates checked").samples()[a..b];
            counted.push_samples(channel, samples)?;
        }
        Ok::<_, sidewinder_hub::HubError>(counted)
    })
    .map_err(|e| e.to_string())?;
    let sink = counted.sink_mut();
    tally.samples = runs.iter().map(|&(_, a, b)| (b - a) as u64).sum();
    tally.node_execs = sink.total_executions();
    tally.wakes = sink.wakes;
    for ((_, _, kind), stats) in program.nodes().zip(sink.nodes()) {
        *tally.dsp_ns.entry(kind.ir_name()).or_default() += stats.timing.sum_ns();
    }
    Ok(tally)
}

/// Arena capacity of the MCU replay core: the 16k class the audio
/// conditions need.
const MCU_ARENA: usize = 16 * 1024;

/// One same-inputs comparison of the `no_std` core against the host hub.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct McuTally {
    /// Samples pushed through both.
    pub samples: u64,
    /// Time in `McuCore::push_samples`, ns.
    pub mcu_ns: u64,
    /// Time in `HubRuntime::push_samples` on the same samples, ns.
    pub host_ns: u64,
    /// Programs that do not compile to an MCU image (too many nodes).
    pub skipped: u64,
    /// Inputs whose MCU wakes differed from the host's.
    pub mismatches: u64,
}

/// Replays each `(program, trace)` through `compile_image` + `McuCore`
/// and through the host hub, on one thread, and compares wake counts.
pub fn replay_mcu(pairs: &[(Program, Arc<SensorTrace>)]) -> McuTally {
    // The 16k core is ~1 MiB; give it a thread with room to build it.
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn_scoped(scope, || replay_mcu_on_this_thread(pairs))
            .expect("spawn the MCU replay thread")
            .join()
            .expect("MCU replay thread panicked")
    })
}

fn replay_mcu_on_this_thread(pairs: &[(Program, Arc<SensorTrace>)]) -> McuTally {
    let mut tally = McuTally::default();
    let mut core: Box<McuCore<f64, MCU_ARENA>> = Box::new(McuCore::new());
    for (i, (program, trace)) in pairs.iter().enumerate() {
        let Some(rates) = rates_for(program, trace) else {
            tally.skipped += 1;
            continue;
        };
        let Ok(image) = compile_image(program, &rates) else {
            tally.skipped += 1;
            continue;
        };
        if core.load(&image).is_err() {
            tally.skipped += 1;
            continue;
        }
        let Ok(mut hub) = HubRuntime::load(program, &rates) else {
            tally.skipped += 1;
            continue;
        };
        let runs = replay_runs(trace, &program.channels());
        let req = i as u64;
        let mut mcu_wakes = 0u64;
        let t = Instant::now();
        let mcu_ok = spans::span("mcu.interpret", req, || {
            runs.iter().all(|&(channel, a, b)| {
                let samples = &trace.channel(channel).expect("rates checked").samples()[a..b];
                core.push_samples(channel.index() as u8, samples, &mut |_| mcu_wakes += 1)
                    .is_ok()
            })
        });
        tally.mcu_ns += t.elapsed().as_nanos() as u64;
        let mut host_wakes = 0u64;
        let t = Instant::now();
        let host_ok = spans::span("mcu.host_reference", req, || {
            runs.iter().all(|&(channel, a, b)| {
                let samples = &trace.channel(channel).expect("rates checked").samples()[a..b];
                match hub.push_samples(channel, samples) {
                    Ok(w) => {
                        host_wakes += w.len() as u64;
                        true
                    }
                    Err(_) => false,
                }
            })
        });
        tally.host_ns += t.elapsed().as_nanos() as u64;
        tally.samples += runs.iter().map(|&(_, a, b)| (b - a) as u64).sum::<u64>();
        if !(mcu_ok && host_ok) || mcu_wakes != host_wakes {
            tally.mismatches += 1;
        }
    }
    tally
}

/// Figures a workload's traced run hands to [`layer_records`] besides
/// its spans.
#[derive(Debug, Clone, Default)]
pub struct LayerInputs {
    /// Hub replay tallies over every simulated hub input.
    pub hub: HubTally,
    /// The MCU comparison.
    pub mcu: McuTally,
    /// Samples synthesized by trace generation.
    pub trace_samples: u64,
    /// Phone wake-ups over every simulation.
    pub wake_ups: u64,
    /// Link frames retried over every simulation.
    pub frames_retried: u64,
    /// Wire bytes, requests plus replies.
    pub wire_bytes: u64,
    /// `(busy ns summed over work items, workers, wall ns)` of the
    /// parallel section.
    pub parallel: (u64, usize, u64),
    /// `(traced busy ns, untraced busy ns)` over the same work.
    pub overhead: (u64, u64),
}

/// Span names the simulator runs under, by fault class.
pub const SIM_CLEAN: &str = "sim.simulate_clean";
/// See [`SIM_CLEAN`].
pub const SIM_FAULTED: &str = "sim.simulate_faulted";

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Reduces spans and replay tallies to the per-layer records: every
/// [`crate::report::PER_LAYER`] metric plus per-kind DSP times and self
/// time per layer as details.
pub fn layer_records(spans: &[Span], inputs: &LayerInputs) -> Vec<Record> {
    let named = spans::by_name(spans);
    let get = |name: &str| named.get(name).copied().unwrap_or_default();
    let (tg_n, tg_ns, _) = get("tracegen.trace");
    let (cl_n, cl_ns, _) = get("apps.classify");
    let (sc_n, sc_ns, sc_self) = get(SIM_CLEAN);
    let (sf_n, sf_ns, sf_self) = get(SIM_FAULTED);
    let hub = &inputs.hub;
    let mcu = &inputs.mcu;
    // The hub replay runs beside the simulator, not inside its span, so
    // the simulator's own time is estimated by taking the replay's hub
    // time out of the simulator's self time.
    let sim_self_est = (sc_self + sf_self).saturating_sub(hub.load_ns + hub.interpret_ns);
    let hub_ns_per_sample = ratio(hub.interpret_ns as f64, hub.samples as f64);
    let mcu_ns_per_sample = ratio(mcu.mcu_ns as f64, mcu.samples as f64);
    let (busy, workers, wall) = inputs.parallel;
    let (traced, untraced) = inputs.overhead;
    let pl = Kind::PerLayer;
    let mut out = vec![
        Record::new(
            pl,
            "tracegen.busy_s",
            secs(tg_ns),
            "s",
            tg_n as usize,
            "sum",
        ),
        Record::new(
            pl,
            "tracegen.msamples_per_s",
            ratio(inputs.trace_samples as f64 / 1e6, secs(tg_ns)),
            "Msamples/s",
            tg_n as usize,
            "ratio",
        ),
        Record::new(
            pl,
            "hub.interpret_s",
            secs(hub.interpret_ns),
            "s",
            hub.loads as usize,
            "sum",
        ),
        Record::new(
            pl,
            "hub.ns_per_sample",
            hub_ns_per_sample,
            "ns",
            hub.samples as usize,
            "ratio",
        ),
        Record::new(
            pl,
            "hub.load_us",
            ratio(hub.load_ns as f64 / 1e3, hub.loads as f64),
            "us",
            hub.loads as usize,
            "mean",
        ),
        Record::new(pl, "hub.samples", hub.samples as f64, "count", 1, "sum"),
        Record::new(
            pl,
            "hub.node_execs",
            hub.node_execs as f64,
            "count",
            1,
            "sum",
        ),
        Record::new(pl, "hub.wakes", hub.wakes as f64, "count", 1, "sum"),
        Record::new(
            pl,
            "dsp.busy_s",
            secs(hub.dsp_ns.values().sum()),
            "s",
            hub.node_execs as usize,
            "sum",
        ),
        Record::new(
            pl,
            "mcu.ns_per_sample",
            mcu_ns_per_sample,
            "ns",
            mcu.samples as usize,
            "ratio",
        ),
        Record::new(
            pl,
            "mcu.host_ratio",
            ratio(mcu.mcu_ns as f64, mcu.host_ns as f64),
            "ratio",
            mcu.samples as usize,
            "ratio",
        ),
        Record::new(
            pl,
            "apps.classify_s",
            secs(cl_ns),
            "s",
            cl_n as usize,
            "sum",
        ),
        Record::new(pl, "apps.classify_calls", cl_n as f64, "count", 1, "sum"),
        Record::new(
            pl,
            "sim.busy_s",
            secs(sc_ns + sf_ns),
            "s",
            (sc_n + sf_n) as usize,
            "sum",
        ),
        Record::new(
            pl,
            "sim.self_s",
            secs(sim_self_est),
            "s",
            (sc_n + sf_n) as usize,
            "estimate",
        ),
        Record::new(pl, "sim.clean_s", secs(sc_ns), "s", sc_n as usize, "sum"),
        Record::new(
            pl,
            "sim.wake_ups",
            inputs.wake_ups as f64,
            "count",
            1,
            "sum",
        ),
        Record::new(
            pl,
            "sim.frames_retried",
            inputs.frames_retried as f64,
            "count",
            1,
            "sum",
        ),
        Record::new(
            pl,
            "wire.bytes",
            inputs.wire_bytes as f64,
            "bytes",
            1,
            "sum",
        ),
        Record::new(
            pl,
            "batch.parallel_efficiency",
            ratio(busy as f64, workers as f64 * wall as f64),
            "ratio",
            workers,
            "ratio",
        ),
        Record::new(
            pl,
            "trace.overhead_ratio",
            ratio(traced as f64, untraced as f64),
            "ratio",
            1,
            "ratio",
        ),
    ];
    let d = Kind::Detail;
    out.push(Record::new(
        d,
        "sim.faulted_s",
        secs(sf_ns),
        "s",
        sf_n as usize,
        "sum",
    ));
    out.push(Record::new(
        d,
        "mcu.skipped_programs",
        mcu.skipped as f64,
        "count",
        1,
        "sum",
    ));
    for (kind, ns) in &hub.dsp_ns {
        out.push(Record::new(
            d,
            format!("dsp.{kind}_s"),
            secs(*ns),
            "s",
            1,
            "sum",
        ));
    }
    for (layer, ns) in spans::self_by_layer(spans) {
        out.push(Record::new(
            d,
            format!("self.{layer}_s"),
            secs(ns),
            "s",
            1,
            "sum",
        ));
    }
    out
}

/// Divides every summed record by the repetitions the run made, so the
/// figures describe one repetition whatever `--seconds` allowed.
pub fn per_rep(records: Vec<Record>, reps: usize) -> Vec<Record> {
    let reps = reps.max(1) as f64;
    records
        .into_iter()
        .map(|mut r| {
            if r.stat == "sum" || r.stat == "estimate" {
                r.value /= reps;
                r.stat.push_str("/rep");
            }
            r
        })
        .collect()
}

/// Ingest, wire and fold figures of the fleet service, from the spans
/// the workloads record around those calls: mean µs per call, and µs per
/// repetition for the wire codecs and the rollup fold.
pub fn service_details(spans: &[Span], reps: usize) -> Vec<Record> {
    let named = spans::by_name(spans);
    let mut out = Vec::new();
    for (span_name, metric) in [
        ("ir.parse_validate", "ir.parse_validate_us"),
        ("opt.suite", "opt.suite_us"),
        ("cert.certify", "cert.certify_us"),
        ("service.submit", "service.submit_us"),
        ("service.query", "service.query_us"),
    ] {
        if let Some(&(n, ns, _)) = named.get(span_name) {
            out.push(Record::new(
                Kind::Detail,
                metric,
                ns as f64 / 1e3 / n as f64,
                "us",
                n as usize,
                "mean",
            ));
        }
    }
    for (metric, parts) in [
        ("wire.codec_us", ["wire.encode", "wire.decode"]),
        ("fleet.fold_us", ["fleet.absorb", "fleet.merge"]),
    ] {
        let (n, ns) = parts
            .iter()
            .filter_map(|p| named.get(p))
            .fold((0, 0), |(n, ns), &(c, d, _)| (n + c, ns + d));
        out.push(Record::new(
            Kind::Detail,
            metric,
            ns as f64 / 1e3 / reps.max(1) as f64,
            "us",
            n as usize,
            "sum/rep",
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidewinder_sensors::TimeSeries;

    #[test]
    fn replay_runs_interleave_equal_rate_channels_one_sample_at_a_time() {
        let mut trace = SensorTrace::new("t");
        for ch in [SensorChannel::AccX, SensorChannel::AccY] {
            trace.insert(ch, TimeSeries::from_samples(10.0, vec![0.0; 3]).unwrap());
        }
        let runs = replay_runs(&trace, &[SensorChannel::AccX, SensorChannel::AccY]);
        assert_eq!(
            runs,
            vec![
                (SensorChannel::AccX, 0, 1),
                (SensorChannel::AccY, 0, 1),
                (SensorChannel::AccX, 1, 2),
                (SensorChannel::AccY, 1, 2),
                (SensorChannel::AccX, 2, 3),
                (SensorChannel::AccY, 2, 3),
            ]
        );
        // One channel alone is one run.
        assert_eq!(
            replay_runs(&trace, &[SensorChannel::AccY]),
            vec![(SensorChannel::AccY, 0, 3)]
        );
    }
}
