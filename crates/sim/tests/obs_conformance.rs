//! Observability must never change what it observes.
//!
//! Two pins across all six evaluation applications:
//!
//! * a run with the default [`NullSink`] — and a run with live
//!   [`CounterSink`] counters, which feeds the hub one sample at a time
//!   instead of in batches — is bit-identical to the plain `simulate`
//!   result (wakes, detections, intervals, energy), with and without a
//!   fault schedule;
//! * the per-node energy ledger closes on the run's measured energy to
//!   within 1e-9 J.

use sidewinder_apps::{accelerometer_apps, audio_apps};
use sidewinder_sensors::{Micros, SensorChannel, SensorTrace};
use sidewinder_sim::{
    attribute_energy, simulate, simulate_traced, simulate_with_faults, Application, ChannelDropout,
    CounterSink, FaultSchedule, NullSink, PhonePowerProfile, SimConfig, Strategy,
};
use sidewinder_tracegen::{
    audio_trace, robot_group_runs, ActivityGroup, AudioEnvironment, AudioTraceConfig,
};

/// Each evaluation application with a representative trace: the three
/// accelerometer apps on one robot run, the three audio apps on one
/// audio environment each.
fn six_apps() -> Vec<(Box<dyn Application>, SensorTrace)> {
    let robot = robot_group_runs(ActivityGroup::Group1, 1, Micros::from_secs(120), 11)
        .pop()
        .unwrap();
    let mut out: Vec<(Box<dyn Application>, SensorTrace)> = Vec::new();
    for app in accelerometer_apps() {
        out.push((app, robot.clone()));
    }
    for (i, app) in audio_apps().into_iter().enumerate() {
        let trace = audio_trace(&AudioTraceConfig {
            duration: Micros::from_secs(60),
            environment: AudioEnvironment::ALL[i % AudioEnvironment::ALL.len()],
            seed: 42 + i as u64,
            ..AudioTraceConfig::default()
        });
        out.push((app, trace));
    }
    out
}

fn sidewinder(app: &dyn Application) -> Strategy {
    Strategy::HubWake {
        program: app.wake_condition(),
        hub_mw: app.wake_condition_hub_mw(),
        label: "Sw",
    }
}

#[test]
fn traced_runs_are_bit_identical_to_plain_runs_for_all_six_apps() {
    let profile = PhonePowerProfile::NEXUS4;
    let config = SimConfig::default();
    for (app, trace) in six_apps() {
        let strategy = sidewinder(app.as_ref());
        let plain = simulate(&trace, app.as_ref(), &strategy, &profile, &config).unwrap();

        let mut null = NullSink;
        let with_null = simulate_traced::<f64, _>(
            &trace,
            app.as_ref(),
            &strategy,
            &profile,
            &config,
            &FaultSchedule::none(),
            &mut null,
        )
        .unwrap();
        assert_eq!(plain, with_null, "{}: NullSink run diverged", app.name());

        // Counters flip the engine onto the per-sample traced replay —
        // still bit-identical to the batch path.
        let mut counters = CounterSink::new();
        let with_counters = simulate_traced::<f64, _>(
            &trace,
            app.as_ref(),
            &strategy,
            &profile,
            &config,
            &FaultSchedule::none(),
            &mut counters,
        )
        .unwrap();
        assert_eq!(
            plain,
            with_counters,
            "{}: counter-instrumented run diverged",
            app.name()
        );
        assert!(
            counters.total_executions() > 0,
            "{}: counters saw no work",
            app.name()
        );
        // Awake periods merge overlapping wakes, so the raw hub wake
        // count can only be at least the result's wake-up count.
        assert!(
            counters.wakes >= plain.wake_ups as u64,
            "{}: {} counted wakes < {} awake periods",
            app.name(),
            counters.wakes,
            plain.wake_ups
        );
    }
}

#[test]
fn traced_faulted_runs_are_bit_identical_to_plain_faulted_runs() {
    let profile = PhonePowerProfile::NEXUS4;
    let config = SimConfig::default();
    for (app, trace) in six_apps() {
        let s = Micros::from_secs;
        let schedule = FaultSchedule::seeded(0xB0B)
            .with_frame_corruption(0.3)
            .with_frame_drops(0.1)
            .with_hub_reset_at(s(13))
            .with_hub_downtime(s(20), s(31))
            .with_dropout(ChannelDropout::new(SensorChannel::Mic, s(40), s(47)))
            .with_dropout(ChannelDropout::new(SensorChannel::AccX, s(40), s(47)))
            .with_dropout(ChannelDropout::new(SensorChannel::AccY, s(40), s(47)));
        let strategy = Strategy::HubWakeDegraded {
            program: app.wake_condition(),
            hub_mw: app.wake_condition_hub_mw(),
            label: "Sw+",
            fallback_sleep: s(5),
        };
        let plain = simulate_with_faults(
            &trace,
            app.as_ref(),
            &strategy,
            &profile,
            &config,
            &schedule,
        )
        .unwrap();
        assert!(plain.fault.samples_dropped > 0, "{}", app.name());
        let mut counters = CounterSink::new();
        let traced = simulate_traced::<f64, _>(
            &trace,
            app.as_ref(),
            &strategy,
            &profile,
            &config,
            &schedule,
            &mut counters,
        )
        .unwrap();
        assert_eq!(plain, traced, "{}: traced faulted run diverged", app.name());
        assert_eq!(counters.hub_resets, 1, "{}", app.name());
        assert_eq!(
            counters.samples_dropped,
            plain.fault.samples_dropped,
            "{}",
            app.name()
        );
    }
}

#[test]
fn energy_ledger_closes_within_a_nanojoule_for_all_six_apps() {
    let profile = PhonePowerProfile::NEXUS4;
    let config = SimConfig::default();
    for (app, trace) in six_apps() {
        let strategy = sidewinder(app.as_ref());
        let run = attribute_energy(&trace, app.as_ref(), &strategy, &profile, &config).unwrap();
        let duration_s = run.result.breakdown.total().as_secs_f64();
        let measured_j = run.result.average_power_mw * duration_s / 1_000.0;
        let gap = (run.ledger.total_j() - measured_j).abs();
        assert!(
            gap < 1e-9,
            "{}: ledger off by {gap:.3e} J (ledger {} J, measured {} J)",
            app.name(),
            run.ledger.total_j(),
            measured_j
        );
        // The hub side alone also closes on the flat hub draw.
        let hub_j = run.result.breakdown.hub_mw * duration_s / 1_000.0;
        assert!(
            (run.ledger.hub_j() - hub_j).abs() < 1e-9,
            "{}: hub sub-ledger off",
            app.name()
        );
    }
}
