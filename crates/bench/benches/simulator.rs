//! End-to-end simulator throughput: wall time to replay one robot trace
//! under each sensing configuration, and the hub-wake replay on each
//! channel-merge shape: one lone channel, two channels at one rate, and
//! channels at mixed rates.

use criterion::{criterion_group, criterion_main, Criterion};
use sidewinder_apps::{predefined, HeadbuttsApp, MusicJournalApp, StepsApp};
use sidewinder_opt::fuse_programs;
use sidewinder_sensors::{Micros, SensorTrace};
use sidewinder_sim::{simulate, Application, PhonePowerProfile, SimConfig, Strategy};
use sidewinder_tracegen::{audio_trace, robot_run, AudioTraceConfig, RobotRunConfig};
use std::hint::black_box;

fn bench_strategies(c: &mut Criterion) {
    let trace = robot_run(&RobotRunConfig {
        duration: Micros::from_secs(120),
        idle_fraction: 0.5,
        rate_hz: 50.0,
        seed: 1,
    });
    let app = StepsApp::new();
    let strategies = vec![
        Strategy::AlwaysAwake,
        Strategy::DutyCycle {
            sleep: Micros::from_secs(10),
        },
        Strategy::Batching {
            interval: Micros::from_secs(10),
            hub_mw: 3.6,
        },
        Strategy::HubWake {
            program: app.wake_condition(),
            hub_mw: app.wake_condition_hub_mw(),
            label: "Sw",
        },
        Strategy::HubWake {
            program: predefined::significant_motion(),
            hub_mw: predefined::hub_mw(),
            label: "PA",
        },
        Strategy::Oracle,
    ];

    let mut group = c.benchmark_group("simulate_120s_robot_trace");
    group.sample_size(20);
    for strategy in strategies {
        group.bench_function(strategy.label(), |b| {
            b.iter(|| {
                simulate(
                    black_box(&trace),
                    &app,
                    &strategy,
                    &PhonePowerProfile::NEXUS4,
                    &SimConfig::default(),
                )
                .unwrap()
                .average_power_mw
            })
        });
    }
    group.finish();
}

/// Sidewinder replay of one condition over one trace.
fn bench_hub_wake(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    trace: &SensorTrace,
    app: &dyn Application,
    program: sidewinder_ir::Program,
) {
    let strategy = Strategy::HubWake {
        hub_mw: app.wake_condition_hub_mw(),
        program,
        label: "Sw",
    };
    group.bench_function(name, |b| {
        b.iter(|| {
            simulate(
                black_box(trace),
                app,
                &strategy,
                &PhonePowerProfile::NEXUS4,
                &SimConfig::default(),
            )
            .unwrap()
            .wake_ups
        })
    });
}

fn bench_hub_wake_merges(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_hub_wake");
    group.sample_size(20);

    // One 8 kHz MIC channel: the merge is a single run.
    let audio = audio_trace(&AudioTraceConfig {
        duration: Micros::from_secs(30),
        ..AudioTraceConfig::default()
    });
    let music = MusicJournalApp::new();
    bench_hub_wake(
        &mut group,
        "mic_8khz_music_30s",
        &audio,
        &music,
        music.wake_condition(),
    );

    // ACC_X and ACC_Y at 50 Hz, as in a fused steps + headbutts suite:
    // the merge alternates one sample at a time.
    let robot = robot_run(&RobotRunConfig {
        duration: Micros::from_secs(120),
        idle_fraction: 0.5,
        rate_hz: 50.0,
        seed: 1,
    });
    let steps = StepsApp::new();
    let fused = fuse_programs(&[steps.wake_condition(), HeadbuttsApp::new().wake_condition()]);
    bench_hub_wake(&mut group, "acc_xy_50hz_120s", &robot, &steps, fused);

    // MIC at 8 kHz beside ACC at 50 Hz, as in a fused steps + music
    // suite: 160-sample MIC runs between single accelerometer samples.
    let mut combined = robot_run(&RobotRunConfig {
        duration: Micros::from_secs(30),
        idle_fraction: 0.5,
        rate_hz: 50.0,
        seed: 1,
    });
    for channel in audio.channels().collect::<Vec<_>>() {
        let series = audio.channel(channel).expect("listed channel").clone();
        combined.insert(channel, series);
    }
    let fused = fuse_programs(&[steps.wake_condition(), music.wake_condition()]);
    bench_hub_wake(
        &mut group,
        "mic_8khz_acc_50hz_30s",
        &combined,
        &steps,
        fused,
    );
    group.finish();
}

criterion_group!(benches, bench_strategies, bench_hub_wake_merges);
criterion_main!(benches);
