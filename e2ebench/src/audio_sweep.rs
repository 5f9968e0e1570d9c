//! `audio_sweep`: the Table 2 grid — three 8 kHz audio environments ×
//! {sirens, music, phrase} × {Oracle, PA, Sw, AA} — run through
//! `sim::BatchRunner` on two workers. The traces are synthesized during
//! set-up, so trace generation is outside the timed part and the fault
//! loop is absent: FFT-heavy hub conditions and the main-CPU classifiers
//! dominate. A batch job; a request is one whole sweep.

use std::sync::Arc;
use std::time::Instant;

use sidewinder_apps::{MusicJournalApp, PhraseDetectionApp, SirenDetectorApp};
use sidewinder_bench::{predefined_sound_strategy, sidewinder_strategy};
use sidewinder_fleet::device::splitmix64;
use sidewinder_ir::Program;
use sidewinder_sensors::{Micros, SensorTrace};
use sidewinder_sim::{
    simulate, try_par_map, BatchRunner, JobSpec, SharedApp, SimResult, Strategy, SweepSpec,
};
use sidewinder_tracegen::{audio_trace, AudioEnvironment, AudioTraceConfig};

use crate::layers::{
    layer_records, per_rep, replay_hub, replay_mcu, HubTally, LayerInputs, TimedApp, SIM_CLEAN,
};
use crate::report::{Kind, Record};
use crate::spans::{self, span};
use crate::stats::{median, tail};
use crate::{Ctx, Outcome, WORKERS};

/// Length of each audio trace: the Table 2 binary's default scale.
pub const DURATION_S: u64 = 300;
/// Set-ups per run, spread over it; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Cells per run re-simulated serially and compared.
const SPOT_CHECKS: usize = 2;

/// The seed of audio trace `i` for workload seed `seed`.
pub fn trace_seed(seed: u64, i: usize) -> u64 {
    splitmix64(seed ^ splitmix64(0xA0D1_0000 + i as u64))
}

/// Synthesizes the three environments' traces, one `tracegen.trace`
/// span each; returns them with their sample count.
pub fn traces(seed: u64) -> (Vec<Arc<SensorTrace>>, u64) {
    let mut samples = 0;
    let traces = AudioEnvironment::ALL
        .into_iter()
        .enumerate()
        .map(|(i, environment)| {
            let trace = span("tracegen.trace", i as u64, || {
                audio_trace(&AudioTraceConfig {
                    duration: Micros::from_secs(DURATION_S),
                    environment,
                    seed: trace_seed(seed, i),
                    ..AudioTraceConfig::default()
                })
            });
            samples += trace
                .channels()
                .map(|c| trace.channel(c).map_or(0, |s| s.len() as u64))
                .sum::<u64>();
            Arc::new(trace)
        })
        .collect();
    (traces, samples)
}

fn apps() -> Vec<SharedApp> {
    vec![
        Arc::new(SirenDetectorApp::new()),
        Arc::new(MusicJournalApp::new()),
        Arc::new(PhraseDetectionApp::new()),
    ]
}

/// The Table 2 grid over `traces` for `apps`.
pub fn sweep(traces: &[Arc<SensorTrace>], apps: Vec<SharedApp>) -> SweepSpec {
    SweepSpec::new()
        .shared_apps(apps)
        .shared_traces(traces.iter().cloned())
        .strategies_per_app(|app| {
            vec![
                Strategy::Oracle,
                predefined_sound_strategy(),
                sidewinder_strategy(app),
                Strategy::AlwaysAwake,
            ]
        })
}

fn hub_program(strategy: &Strategy) -> Option<&Program> {
    match strategy {
        Strategy::HubWake { program, .. } | Strategy::HubWakeDegraded { program, .. } => {
            Some(program)
        }
        _ => None,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let seed = ctx.args.seed;
    let mut setup_s = Vec::new();
    let set_up = |setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let (traces, samples) = traces(seed);
        let spec = sweep(&traces, apps());
        setup_s.push(t.elapsed().as_secs_f64());
        (traces, samples, spec)
    };
    let mut built = Some(set_up(&mut setup_s));
    let runner = BatchRunner::new().workers(WORKERS);

    let mut wall_s = Vec::new();
    let mut cell_s = Vec::new();
    let mut busy_ns = 0u64;
    let mut reference: Option<Vec<Option<SimResult>>> = None;
    let mut traced = TracedSweep::default();
    while ctx.another(wall_s.len()) {
        // Set-ups are spread over the run, so their median sees the host
        // the sweeps see. The old set-up goes first: memory holds one.
        if setup_s.len() < SETUP_REPS && ctx.progress() * SETUP_REPS as f64 >= setup_s.len() as f64
        {
            drop(built.take());
            built = Some(set_up(&mut setup_s));
        }
        let (traces, _, spec) = built.as_ref().expect("set up");
        let t = Instant::now();
        let report = runner.run(spec);
        wall_s.push(t.elapsed().as_secs_f64());
        let failed = report.failures().count() as u64;
        out.ops(report.len() as u64, failed, || {
            format!("{failed} sweep cells failed")
        });
        let results: Vec<Option<SimResult>> = report
            .outcomes()
            .iter()
            .map(|o| o.result.as_ref().ok().cloned())
            .collect();
        for o in report.outcomes() {
            cell_s.push(o.elapsed.as_secs_f64());
            busy_ns += o.elapsed.as_nanos() as u64;
        }
        match &reference {
            None => reference = Some(results),
            Some(r) => out.check(*r == results, || {
                "a sweep differed from the first".to_string()
            }),
        }
        if ctx.args.trace {
            traced.rep(traces, reference.as_deref().unwrap_or_default(), out);
        }
    }
    while setup_s.len() < SETUP_REPS {
        drop(built.take());
        built = Some(set_up(&mut setup_s));
    }
    let (_, trace_samples, spec) = built.expect("set up");
    let reference = reference.expect("swept at least once");

    // Spot checks: seeded cells re-simulated serially must match.
    let jobs = spec.jobs();
    for k in 0..SPOT_CHECKS {
        let i = (splitmix64(seed ^ (0x5907 + k as u64)) % jobs.len() as u64) as usize;
        let job = &jobs[i];
        let serial = simulate(
            &job.trace,
            &*job.app,
            &job.strategy,
            &job.profile,
            &job.config,
        )
        .ok();
        out.check(serial == reference[i], || {
            format!(
                "cell {i} ({} / {} / {}) differs from serial simulate",
                job.trace.name(),
                job.app.name(),
                job.strategy.label()
            )
        });
    }

    let reps = wall_s.len();
    let cells = jobs.len();
    let wake_ups: u64 = reference.iter().flatten().map(|r| r.wake_ups as u64).sum();
    let detections: u64 = reference
        .iter()
        .flatten()
        .map(|r| r.detections.len() as u64)
        .sum();
    if ctx.args.trace {
        let parallel = (busy_ns, wall_s.iter().sum());
        let records = traced.finish(&jobs, reps, trace_samples, wake_ups, parallel, out);
        out.records.extend(records);
    } else {
        // A request is one whole table: a user waits for every cell. A
        // run makes too few sweeps for a tail above the median, so the
        // tail is that of single cells, the sweep's stragglers.
        let p50_wall = median(&wall_s);
        let (pct, tail_s) = tail(&cell_s);
        let e = Kind::EndToEnd;
        out.records.push(Record::new(
            e,
            "throughput_per_s",
            (cells * reps) as f64 / wall_s.iter().sum::<f64>(),
            "1/s",
            reps,
            "cells/sweep wall, all sweeps",
        ));
        out.records.push(Record::new(
            e,
            "latency_p50_ms",
            p50_wall * 1e3,
            "ms",
            reps,
            "median sweep",
        ));
        out.records.push(Record::new(
            e,
            "latency_tail_ms",
            tail_s * 1e3,
            "ms",
            cell_s.len(),
            format!("p{pct:.1} cell"),
        ));
        out.records.push(Record::new(
            e,
            "setup_s",
            median(&setup_s),
            "s",
            setup_s.len(),
            "median",
        ));
        let d = Kind::Detail;
        out.records.push(Record::new(
            d,
            "table_wall_s",
            p50_wall,
            "s",
            reps,
            "median",
        ));
        out.records.push(Record::new(
            d,
            "cell_p50_ms",
            median(&cell_s) * 1e3,
            "ms",
            cell_s.len(),
            "median cell",
        ));
        out.records.push(Record::new(
            d,
            "batch.parallel_efficiency",
            busy_ns as f64 / 1e9 / (WORKERS as f64 * wall_s.iter().sum::<f64>()),
            "ratio",
            reps,
            "cell busy/(workers*wall)",
        ));
    }
    for (name, v) in [
        ("sweep.cells", cells as u64),
        ("sim.wake_ups", wake_ups),
        ("sim.detections", detections),
        ("tracegen.samples", trace_samples),
    ] {
        out.records.push(Record::new(
            Kind::Count,
            name,
            v as f64,
            "count",
            1,
            "per sweep",
        ));
    }
}

/// The traced run: every cell again under a span, with a hub replay of
/// each hub-resident cell beside it.
#[derive(Default)]
struct TracedSweep {
    hub: HubTally,
    first_counts: Option<[u64; 4]>,
    traced_busy_ns: u64,
}

impl TracedSweep {
    fn rep(
        &mut self,
        traces: &[Arc<SensorTrace>],
        reference: &[Option<SimResult>],
        out: &mut Outcome,
    ) {
        let timed: Vec<SharedApp> = apps()
            .into_iter()
            .map(|a| Arc::new(TimedApp(a)) as SharedApp)
            .collect();
        let jobs = sweep(traces, timed).jobs();
        let results = try_par_map(WORKERS, &jobs, |job: &JobSpec| {
            let t = Instant::now();
            let outcome = span("batch.cell", job.index as u64, || {
                span(SIM_CLEAN, job.index as u64, || job.run())
            });
            let busy = t.elapsed().as_nanos() as u64;
            let hub =
                hub_program(&job.strategy).map(|p| replay_hub(p, &job.trace, job.index as u64));
            (outcome.result.ok(), hub, busy)
        });
        let mut hub = HubTally::default();
        let mut same = true;
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok((result, replay, busy)) => {
                    same &= reference.get(i) == Some(&result);
                    self.traced_busy_ns += busy;
                    match replay {
                        Some(Ok(h)) => hub.merge(&h),
                        Some(Err(e)) => out.check(false, || format!("hub replay of cell {i}: {e}")),
                        None => {}
                    }
                }
                Err(p) => out.check(false, || format!("traced cell {i} panicked: {}", p.message)),
            }
        }
        out.check(same, || {
            "traced sweep results differ from the untraced ones".to_string()
        });
        let counts = hub.counts();
        match self.first_counts {
            None => self.first_counts = Some(counts),
            Some(f) => out.check(f == counts, || {
                format!("hub counts {counts:?} differ from the first repetition's {f:?}")
            }),
        }
        self.hub.merge(&hub);
    }

    fn finish(
        self,
        jobs: &[JobSpec],
        reps: usize,
        trace_samples: u64,
        wake_ups: u64,
        (busy_ns, wall_s): (u64, f64),
        out: &mut Outcome,
    ) -> Vec<Record> {
        // The MCU comparison: each distinct hub program on the first trace.
        let mut pairs: Vec<(Program, Arc<SensorTrace>)> = Vec::new();
        for job in jobs.iter().filter(|j| j.trace_idx == 0) {
            if let Some(p) = hub_program(&job.strategy) {
                if !pairs.iter().any(|(q, _)| q == p) {
                    pairs.push((p.clone(), job.trace.clone()));
                }
            }
        }
        let mcu = replay_mcu(&pairs);
        out.check(mcu.mismatches == 0, || {
            format!("{} MCU replays disagree with the host hub", mcu.mismatches)
        });
        let spans = spans::snapshot();
        let inputs = LayerInputs {
            hub: self.hub,
            mcu,
            trace_samples: trace_samples * SETUP_REPS as u64,
            wake_ups: wake_ups * reps as u64,
            frames_retried: 0,
            wire_bytes: 0,
            parallel: (busy_ns, WORKERS, (wall_s * 1e9) as u64),
            overhead: (self.traced_busy_ns, busy_ns),
        };
        let mut records = per_rep(layer_records(&spans, &inputs), reps);
        // Trace synthesis runs once per set-up, not once per sweep.
        for r in records.iter_mut().filter(|r| r.name == "tracegen.busy_s") {
            r.value *= reps as f64 / SETUP_REPS as f64;
            r.stat = "sum/set-up".to_string();
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_seeds_derive_from_the_workload_seed() {
        let seeds = |s| (0..3).map(|i| trace_seed(s, i)).collect::<Vec<_>>();
        assert_eq!(seeds(1), seeds(1));
        assert_ne!(seeds(1), seeds(2));
        let mut distinct = seeds(1);
        distinct.dedup();
        assert_eq!(distinct.len(), 3);
    }
}
