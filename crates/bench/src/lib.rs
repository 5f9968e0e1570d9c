//! Shared harness for the experiment binaries and Criterion benches.
//!
//! One binary regenerates each table/figure of the paper:
//!
//! | Binary   | Paper artifact |
//! |----------|----------------|
//! | `table1` | Table 1 — Nexus 4 power profile |
//! | `table2` | Table 2 — audio application power |
//! | `fig3`   | Fig. 3 — the six wake-up-condition pipelines |
//! | `fig5`   | Fig. 5 — power relative to Oracle, robot traces |
//! | `fig6`   | Fig. 6 — duty-cycling recall at 90 % idle |
//! | `fig7`   | Fig. 7 — power relative to Oracle, human traces |
//! | `sizing` | §3.8 — microcontroller sizing exploration |
//! | `fusion` | §7 — conditions fused by `opt::fuse_programs` + CSE |
//! | `ablation` | parameter sweeps for DESIGN.md's design choices |
//! | `concurrent` | §7 — several applications sharing one phone |
//! | `latency` | §5.4 — batching's power/timeliness trade-off |
//!
//! Trace lengths default to a fast configuration; set
//! `SIDEWINDER_PAPER_SCALE=1` to reproduce the paper's full trace lengths
//! (30-minute audio traces, hour-long robot runs, the full 18-run set).

pub mod gate;
pub mod suites;

use sidewinder_apps::predefined;
use sidewinder_sensors::{Micros, SensorTrace};
use sidewinder_sim::{
    simulate, Application, BatchReport, BatchRunner, PhonePowerProfile, SharedApp, SimConfig,
    SimResult, Strategy, SweepSpec,
};
use sidewinder_tracegen::{
    audio_trace, human_trace, robot_group_runs, ActivityGroup, AudioEnvironment, AudioTraceConfig,
};
use std::sync::Arc;

/// Whether the user asked for full paper-scale traces.
pub fn paper_scale() -> bool {
    std::env::var("SIDEWINDER_PAPER_SCALE")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// Robot run duration (paper: close to an hour per run; default 10 min).
pub fn robot_duration() -> Micros {
    if paper_scale() {
        Micros::from_secs(3_600)
    } else {
        Micros::from_secs(600)
    }
}

/// Audio trace duration (paper: 30 min; default 5 min).
pub fn audio_duration() -> Micros {
    if paper_scale() {
        Micros::from_secs(1_800)
    } else {
        Micros::from_secs(300)
    }
}

/// Number of robot runs per group (paper: 9/6/3; default 3/2/1).
pub fn runs_for(group: ActivityGroup) -> usize {
    if paper_scale() {
        group.paper_run_count()
    } else {
        (group.paper_run_count() / 3).max(1)
    }
}

fn seed_base(group: ActivityGroup) -> u64 {
    match group {
        ActivityGroup::Group1 => 101,
        ActivityGroup::Group2 => 202,
        ActivityGroup::Group3 => 303,
    }
}

/// The paper's robot run set for one activity group.
pub fn robot_traces(group: ActivityGroup) -> Vec<SensorTrace> {
    robot_group_runs(group, runs_for(group), robot_duration(), seed_base(group))
}

/// The paper's three audio environments.
pub fn audio_traces() -> Vec<SensorTrace> {
    AudioEnvironment::ALL
        .into_iter()
        .enumerate()
        .map(|(i, environment)| {
            audio_trace(&AudioTraceConfig {
                duration: audio_duration(),
                environment,
                seed: 400 + i as u64,
                ..AudioTraceConfig::default()
            })
        })
        .collect()
}

/// The paper's three human subjects.
pub fn human_traces() -> Vec<SensorTrace> {
    sidewinder_tracegen::human::paper_subjects(robot_duration(), 500)
        .iter()
        .map(human_trace)
        .collect()
}

/// The Sidewinder strategy for an application.
pub fn sidewinder_strategy(app: &dyn Application) -> Strategy {
    Strategy::HubWake {
        program: app.wake_condition(),
        hub_mw: app.wake_condition_hub_mw(),
        label: "Sw",
    }
}

/// The Predefined Activity strategy for accelerometer applications.
pub fn predefined_motion_strategy() -> Strategy {
    Strategy::HubWake {
        program: predefined::significant_motion(),
        hub_mw: predefined::hub_mw(),
        label: "PA",
    }
}

/// The Predefined Activity strategy for audio applications.
pub fn predefined_sound_strategy() -> Strategy {
    Strategy::HubWake {
        program: predefined::significant_sound(),
        hub_mw: predefined::hub_mw(),
        label: "PA",
    }
}

/// Runs one application under one strategy over a set of traces.
///
/// # Panics
///
/// Panics if the simulation rejects the configuration — experiment
/// configurations are validated by construction.
pub fn run_over(
    traces: &[SensorTrace],
    app: &dyn Application,
    strategy: &Strategy,
) -> Vec<SimResult> {
    traces
        .iter()
        .map(|trace| {
            simulate(
                trace,
                app,
                strategy,
                &PhonePowerProfile::NEXUS4,
                &SimConfig::default(),
            )
            .unwrap_or_else(|e| {
                panic!(
                    "simulate {} / {} / {}: {e}",
                    trace.name(),
                    app.name(),
                    strategy.label()
                )
            })
        })
        .collect()
}

/// Wraps freshly synthesized traces for cross-thread sharing.
pub fn share_traces(traces: Vec<SensorTrace>) -> Vec<Arc<SensorTrace>> {
    traces.into_iter().map(Arc::new).collect()
}

/// Runs an application × strategy × trace grid over the
/// [`BatchRunner`] worker pool (`SIDEWINDER_SWEEP_WORKERS` overrides
/// the worker count) and returns outcomes in deterministic spec order.
///
/// This is the parallel counterpart of [`run_over`]: each cell calls
/// the same serial [`simulate`], so the results are bit-identical —
/// `crates/sim/tests/batch_conformance.rs` pins that equivalence.
pub fn sweep_over(
    traces: &[Arc<SensorTrace>],
    apps: impl IntoIterator<Item = SharedApp>,
    strategies: impl Fn(&dyn Application) -> Vec<Strategy> + Send + Sync + 'static,
) -> BatchReport {
    let spec = SweepSpec::new()
        .shared_apps(apps)
        .shared_traces(traces.iter().cloned())
        .strategies_per_app(strategies);
    BatchRunner::new().run(&spec)
}

/// The single result of one (application, strategy, trace) cell in a
/// one-config sweep.
///
/// # Panics
///
/// Panics if the cell is absent or failed — experiment configurations
/// are validated by construction.
pub fn one_result<'r>(
    report: &'r BatchReport,
    app: &str,
    strategy: &str,
    trace: &str,
) -> &'r SimResult {
    report
        .outcomes()
        .iter()
        .find(|o| o.app == app && o.strategy == strategy && o.trace == trace)
        .unwrap_or_else(|| panic!("no sweep cell {trace} / {app} / {strategy}"))
        .result
        .as_ref()
        .unwrap_or_else(|e| panic!("sweep cell {trace} / {app} / {strategy} failed: {e}"))
}

/// The duty-cycling sleep intervals the paper sweeps (§4.2).
pub const DC_SLEEPS_S: [u64; 5] = [2, 5, 10, 20, 30];

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_fast() {
        // Unless the env var is set, traces stay short enough for CI.
        if !paper_scale() {
            assert_eq!(robot_duration(), Micros::from_secs(600));
            assert_eq!(audio_duration(), Micros::from_secs(300));
            assert_eq!(runs_for(ActivityGroup::Group1), 3);
            assert_eq!(runs_for(ActivityGroup::Group3), 1);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(pct(0.927), "92.7%");
    }
}
