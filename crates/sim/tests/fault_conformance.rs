//! Fault-injection conformance: the engine must (1) report exactly the
//! plain `simulate` result, with clean counters, when the schedule is
//! empty, (2) be bit-identical across worker counts for a fixed seed —
//! the batch engine's determinism promise extended to fault runs —
//! (3) degrade into genuine duty cycling while the hub is down, and
//! (4) reproduce pinned per-cell digests under both a rate-based and a
//! windowed schedule (resets, partial downtime, channel dropouts).

use sidewinder_apps::{
    HeadbuttsApp, MusicJournalApp, PhraseDetectionApp, SirenDetectorApp, StepsApp, TransitionsApp,
};
use sidewinder_sensors::{Micros, SensorChannel, SensorTrace};
use sidewinder_sim::{
    simulate, simulate_with_faults, Application, BatchRunner, ChannelDropout, FaultSchedule,
    PhonePowerProfile, SharedApp, SimConfig, SimResult, Strategy, SweepSpec,
};
use sidewinder_tracegen::{audio_trace, robot_run, AudioTraceConfig, RobotRunConfig};
use std::sync::Arc;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// A trace carrying both the accelerometer and the microphone channels,
/// so every evaluation application has the data its classifier and
/// wake-up condition need.
fn combined_trace(seed: u64, duration_s: u64) -> SensorTrace {
    let mut trace = robot_run(&RobotRunConfig {
        duration: Micros::from_secs(duration_s),
        idle_fraction: 0.6,
        rate_hz: 50.0,
        seed,
    });
    let audio = audio_trace(&AudioTraceConfig {
        duration: Micros::from_secs(duration_s),
        seed: seed + 1000,
        ..AudioTraceConfig::default()
    });
    for channel in audio.channels().collect::<Vec<_>>() {
        trace.insert(
            channel,
            audio.channel(channel).expect("listed channel").clone(),
        );
    }
    for interval in audio.ground_truth().intervals() {
        trace.ground_truth_mut().push(*interval);
    }
    trace
}

fn all_apps() -> Vec<SharedApp> {
    vec![
        Arc::new(StepsApp::new()),
        Arc::new(TransitionsApp::new()),
        Arc::new(HeadbuttsApp::new()),
        Arc::new(SirenDetectorApp::new()),
        Arc::new(MusicJournalApp::new()),
        Arc::new(PhraseDetectionApp::new()),
    ]
}

/// Each application's own Sidewinder wake-up condition, plain and
/// hardened.
fn sidewinder_strategies(app: &dyn Application) -> Vec<Strategy> {
    vec![
        Strategy::HubWake {
            program: app.wake_condition(),
            hub_mw: app.wake_condition_hub_mw(),
            label: "Sw",
        },
        Strategy::HubWakeDegraded {
            program: app.wake_condition(),
            hub_mw: app.wake_condition_hub_mw(),
            label: "Sw+",
            fallback_sleep: Micros::from_secs(5),
        },
    ]
}

/// A schedule that exercises every fault class at once.
fn stress_schedule() -> FaultSchedule {
    FaultSchedule::seeded(0xFA57)
        .with_frame_corruption(0.2)
        .with_frame_drops(0.1)
        .with_hub_resets_every(Micros::from_secs(40))
}

#[test]
fn empty_schedule_is_bit_identical_for_every_cell() {
    let spec = SweepSpec::new()
        .shared_apps(all_apps())
        .trace(combined_trace(71, 120))
        .strategies_per_app(sidewinder_strategies);
    let none = FaultSchedule::none();
    for job in spec.jobs() {
        let clean = simulate(
            &job.trace,
            &*job.app,
            &job.strategy,
            &job.profile,
            &job.config,
        )
        .expect("clean cell");
        let faulted = simulate_with_faults(
            &job.trace,
            &*job.app,
            &job.strategy,
            &job.profile,
            &job.config,
            &none,
        )
        .expect("empty-schedule cell");
        assert_eq!(
            clean,
            faulted,
            "{} / {}: empty schedule diverged from plain simulate",
            job.app.name(),
            job.strategy.label()
        );
        assert!(faulted.fault.is_clean());
    }
}

#[test]
fn seeded_faults_are_bit_identical_across_worker_counts() {
    let spec = SweepSpec::new()
        .shared_apps(all_apps())
        .trace(combined_trace(72, 120))
        .strategies_per_app(sidewinder_strategies)
        .faults(stress_schedule());
    let jobs = spec.jobs();
    assert_eq!(jobs.len(), 12);

    // Serial reference: every cell through the fault-aware engine on
    // the calling thread.
    let schedule = stress_schedule();
    let serial: Vec<_> = jobs
        .iter()
        .map(|job| {
            simulate_with_faults(
                &job.trace,
                &*job.app,
                &job.strategy,
                &job.profile,
                &job.config,
                &schedule,
            )
            .expect("fault cell")
        })
        .collect();
    // The schedule genuinely fired: the rate-based resets alone strike
    // every cell on a 120 s horizon.
    assert!(serial.iter().all(|r| r.fault.hub_resets > 0));
    assert!(serial.iter().any(|r| r.fault.frames_corrupted > 0));

    for workers in WORKER_COUNTS {
        let report = BatchRunner::new().workers(workers).run(&spec);
        assert_eq!(report.len(), serial.len());
        for (i, (reference, outcome)) in serial.iter().zip(report.outcomes()).enumerate() {
            assert_eq!(outcome.index, i, "{workers} workers: outcome order");
            let parallel = outcome
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("{workers} workers: cell {i} failed: {e}"));
            assert_eq!(
                reference, parallel,
                "{workers} workers: cell {i} ({} / {}) diverged",
                outcome.app, outcome.strategy
            );
        }
    }
}

#[test]
fn degraded_fallback_matches_duty_cycling_during_full_outage() {
    // With the hub down for the entire trace, the hardened strategy is
    // duty cycling at the fallback interval: identical detections and
    // recall for every evaluation application.
    let trace = combined_trace(73, 120);
    let sleep = Micros::from_secs(5);
    let outage = FaultSchedule::seeded(1).with_hub_downtime(Micros::ZERO, trace.duration());
    for app in all_apps() {
        let degraded = simulate_with_faults(
            &trace,
            &*app,
            &Strategy::HubWakeDegraded {
                program: app.wake_condition(),
                hub_mw: app.wake_condition_hub_mw(),
                label: "Sw+",
                fallback_sleep: sleep,
            },
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
            &outage,
        )
        .expect("degraded cell");
        let dc = simulate(
            &trace,
            &*app,
            &Strategy::DutyCycle { sleep },
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
        )
        .expect("duty-cycle cell");
        assert_eq!(
            degraded.detections,
            dc.detections,
            "{}: degraded mode missed detections duty cycling fires",
            app.name()
        );
        assert_eq!(degraded.stats, dc.stats, "{}", app.name());
        assert_eq!(degraded.wake_ups, dc.wake_ups, "{}", app.name());
        assert_eq!(degraded.fault.degraded_time, trace.duration());
        assert!(degraded.fault.samples_dropped > 0);
    }
}

/// One explicit fault of each windowed kind, placed inside the 120 s
/// horizon: a watchdog reset, a 30 s hub outage in mid-trace, and
/// sensor dropouts on the microphone and on the y accelerometer.
fn windowed_schedule() -> FaultSchedule {
    FaultSchedule::seeded(0x5EED)
        .with_hub_reset_at(Micros::from_secs(17))
        .with_hub_downtime(Micros::from_secs(45), Micros::from_secs(75))
        .with_dropout(ChannelDropout::new(
            SensorChannel::Mic,
            Micros::from_millis(25_500),
            Micros::from_secs(38),
        ))
        .with_dropout(ChannelDropout::new(
            SensorChannel::AccY,
            Micros::from_secs(90),
            Micros::from_millis(101_250),
        ))
}

/// FNV-1a over every value a [`SimResult`] carries.
fn result_digest(r: &SimResult) -> u64 {
    let b = &r.breakdown;
    let s = &r.stats;
    let f = &r.fault;
    let mut words: Vec<u64> = vec![
        r.wake_ups as u64,
        r.average_power_mw.to_bits(),
        b.awake.0,
        b.asleep.0,
        b.waking.0,
        b.sleeping.0,
        b.hub_mw.to_bits(),
        s.events as u64,
        s.recalled as u64,
        s.detections as u64,
        s.true_positives as u64,
        f.frames_sent,
        f.frames_corrupted,
        f.frames_dropped,
        f.frames_retried,
        f.frames_lost,
        f.hub_resets,
        f.redownloads,
        f.samples_dropped,
        f.degraded_time.0,
        f.recovery_time.0,
        r.detections.len() as u64,
    ];
    words.extend(r.detections.iter().map(|d| d.0));
    words.push(r.discovery_delays.len() as u64);
    words.extend(r.discovery_delays.iter().map(|d| d.0));
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in [&r.app, &r.strategy, &r.trace]
        .iter()
        .flat_map(|s| s.bytes().chain([0]))
        .chain(words.iter().flat_map(|w| w.to_le_bytes()))
    {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Per-cell digests of the faulted replay: (app, strategy label,
/// digest under `stress_schedule`, digest under `windowed_schedule`).
const FAULTED_PINS: [(&str, &str, u64, u64); 12] = [
    ("steps", "Sw", 0xEC72688982D1A8CE, 0x696032BBAC6AC255),
    ("steps", "Sw+", 0xA91A890775594D60, 0x8A0498391411AC89),
    ("transitions", "Sw", 0xD856E025E5A9FFDF, 0x6DEBE254DAAA08D1),
    ("transitions", "Sw+", 0x78CB2C831D345437, 0xDB4CDCA40C9F56FD),
    ("headbutts", "Sw", 0xCEE5A76BA1B8F300, 0xFBAEA0E8C516626A),
    ("headbutts", "Sw+", 0x5CEDCDEB3515AD70, 0x9329D29F0144454A),
    ("sirens", "Sw", 0x3CB9C73CE9B103B8, 0x6873B00E2D24C83B),
    ("sirens", "Sw+", 0xE718B3F0A1BCD205, 0x629A8BFE385EC286),
    ("music", "Sw", 0xDC3D4C78D4E79CFB, 0x879DDBC7ADF7606E),
    ("music", "Sw+", 0xC1BC8BD34B7853CC, 0x4CF9C2900DDBBD22),
    ("phrase", "Sw", 0xD1DCC80F761D92CF, 0xC223EB743B03DDED),
    ("phrase", "Sw+", 0xC3234A91FDDC4D91, 0x9E90A633D4284931),
];

#[test]
fn faulted_results_match_pinned_digests() {
    let trace = combined_trace(71, 120);
    let schedules = [stress_schedule(), windowed_schedule()];
    let row = |app: &str, label: &str, stress: u64, windowed: u64| {
        format!("(\"{app}\", \"{label}\", {stress:#018X}, {windowed:#018X}),")
    };
    let mut got = Vec::new();
    for app in all_apps() {
        for strategy in sidewinder_strategies(&*app) {
            let digests: Vec<u64> = schedules
                .iter()
                .map(|schedule| {
                    let r = simulate_with_faults(
                        &trace,
                        &*app,
                        &strategy,
                        &PhonePowerProfile::NEXUS4,
                        &SimConfig::default(),
                        schedule,
                    )
                    .expect("faulted cell");
                    assert!(!r.fault.is_clean(), "{} / {}", app.name(), r.strategy);
                    result_digest(&r)
                })
                .collect();
            got.push(row(app.name(), &strategy.label(), digests[0], digests[1]));
        }
    }
    let want: Vec<String> = FAULTED_PINS
        .iter()
        .map(|&(app, label, stress, windowed)| row(app, label, stress, windowed))
        .collect();
    assert_eq!(got, want, "faulted digests drifted:\n{}", got.join("\n"));
}
