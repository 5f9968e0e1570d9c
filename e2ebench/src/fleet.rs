//! Fleet passes for the traced run, built from the fleet crate's public
//! pieces: the shard runner itself with a span per shard, and a
//! device-by-device pass with a span around every layer call.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use sidewinder_fleet::{
    run_shard, DeviceArchetype, DeviceDisposition, FaultClass, FleetConfig, FleetRollup,
    ShardRollup, ShardSummary,
};
use sidewinder_ir::Program;
use sidewinder_sensors::SensorTrace;
use sidewinder_sim::engine::{simulate_with_faults, SimConfig};
use sidewinder_sim::power::PhonePowerProfile;
use sidewinder_sim::{try_par_map, Application, SharedApp};

use crate::layers::{
    layer_records, per_rep, replay_hub, replay_mcu, service_details, HubTally, LayerInputs,
    TimedApp, SIM_CLEAN, SIM_FAULTED,
};
use crate::report::{Kind, Record};
use crate::spans::{self, span};
use crate::stats::median;
use crate::{Outcome, WORKERS};

/// Every how many devices the first traced pass keeps a trace for the
/// MCU replay.
const MCU_EVERY: u64 = 16;

/// Folds shard rollups in shard order into the fleet rollup, as the fleet
/// runner does.
fn fold(config: &FleetConfig, shards: Vec<ShardRollup>) -> FleetRollup {
    let mut totals = ShardRollup::new(0);
    let mut summaries = Vec::with_capacity(shards.len());
    for rollup in shards {
        span("fleet.merge", rollup.shard, || {
            summaries.push(ShardSummary {
                shard: rollup.shard,
                devices: rollup.devices,
                failed: rollup.failed + rollup.panicked,
                frames_lost: rollup.fault.frames_lost,
                hub_resets: rollup.fault.hub_resets,
                digest: rollup.digest(),
            });
            totals.merge(&rollup);
        });
    }
    FleetRollup {
        seed: config.seed,
        totals,
        shards: summaries,
    }
}

/// A shard that panicked outside any device: every device failed.
fn lost_shard(config: &FleetConfig, shard: u64, why: &str) -> ShardRollup {
    let mut lost = ShardRollup::new(shard);
    for device_id in config.shard_range(shard) {
        lost.absorb_failure(device_id, DeviceDisposition::Panicked, why.to_string());
    }
    lost
}

/// The fleet run through the public `run_shard`, one span per shard.
pub struct ShardPass {
    /// The merged rollup.
    pub rollup: FleetRollup,
    /// Wall time of each shard, ns, in shard order.
    pub shard_ns: Vec<u64>,
    /// Wall time of the whole pass, ns.
    pub wall_ns: u64,
}

/// Runs every shard with [`run_shard`] over `workers` threads.
pub fn shard_pass(config: &FleetConfig, program: &Program, workers: usize) -> ShardPass {
    let ids: Vec<u64> = (0..config.shards()).collect();
    let started = Instant::now();
    let results = try_par_map(workers, &ids, |&shard| {
        let t = Instant::now();
        let rollup = span("fleet.run_shard", shard, || {
            run_shard(config, program, shard)
        });
        (rollup, t.elapsed().as_nanos() as u64)
    });
    let mut shard_ns = Vec::with_capacity(ids.len());
    let mut rollups = Vec::with_capacity(ids.len());
    for (shard, r) in ids.iter().zip(results) {
        match r {
            Ok((rollup, ns)) => {
                shard_ns.push(ns);
                rollups.push(rollup);
            }
            Err(p) => {
                shard_ns.push(0);
                rollups.push(lost_shard(config, *shard, &p.message));
            }
        }
    }
    let rollup = fold(config, rollups);
    ShardPass {
        rollup,
        shard_ns,
        wall_ns: started.elapsed().as_nanos() as u64,
    }
}

/// What the device-by-device pass tallies besides its spans.
#[derive(Debug, Clone, Default)]
pub struct DeviceTally {
    /// Hub replay tallies.
    pub hub: HubTally,
    /// Samples synthesized.
    pub trace_samples: u64,
    /// Every `mcu_every`-th device's trace, kept for the MCU replay.
    pub kept: Vec<Arc<SensorTrace>>,
    /// Hub replays that failed although the simulation succeeded.
    pub replay_errors: u64,
    /// Busy time of all device spans minus their hub replays, ns.
    pub busy_ns: u64,
}

impl DeviceTally {
    /// Adds another tally into this one.
    pub fn merge(&mut self, o: DeviceTally) {
        self.hub.merge(&o.hub);
        self.trace_samples += o.trace_samples;
        self.kept.extend(o.kept);
        self.replay_errors += o.replay_errors;
        self.busy_ns += o.busy_ns;
    }
}

/// The device-by-device pass: the shard loop of `run_shard`, rebuilt
/// from `FleetConfig::device_spec`, `DeviceSpec::trace`,
/// `simulate_with_faults` and `ShardRollup::absorb_ok`, with a span
/// around each and a hub replay beside each simulation. Its rollup must
/// equal the shard runner's.
pub fn device_pass(
    config: &FleetConfig,
    program: &Program,
    workers: usize,
    mcu_every: u64,
) -> (FleetRollup, DeviceTally) {
    let apps: Vec<TimedApp> = DeviceArchetype::ALL
        .iter()
        .map(|a| TimedApp(SharedApp::from(a.app())))
        .collect();
    let strategy = config.strategy_for(program);
    let profile = PhonePowerProfile::default();
    let sim_config = SimConfig::default();
    let channels = program.channels();
    let ids: Vec<u64> = (0..config.shards()).collect();
    let results = try_par_map(workers, &ids, |&shard| {
        let mut rollup = ShardRollup::new(shard);
        let mut tally = DeviceTally::default();
        span("fleet.shard", shard, || {
            for device_id in config.shard_range(shard) {
                let started = Instant::now();
                let replay_ns = span("fleet.device", device_id, || {
                    let spec = span("fleet.device_spec", device_id, || {
                        config.device_spec(device_id)
                    });
                    let trace = span("tracegen.trace", device_id, || spec.trace());
                    tally.trace_samples += trace
                        .channels()
                        .map(|c| trace.channel(c).map_or(0, |s| s.len() as u64))
                        .sum::<u64>();
                    if let Some(ch) = channels.iter().find(|&&c| !trace.has_channel(c)) {
                        rollup.absorb_failure(
                            device_id,
                            DeviceDisposition::Incompatible,
                            format!("condition reads {ch} which the trace does not record"),
                        );
                        return 0;
                    }
                    let app = &apps[DeviceArchetype::ALL
                        .iter()
                        .position(|&a| a == spec.archetype)
                        .expect("every archetype is listed")];
                    let sim_span = if spec.fault_class == FaultClass::Clean {
                        SIM_CLEAN
                    } else {
                        SIM_FAULTED
                    };
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        span(sim_span, device_id, || {
                            simulate_with_faults(
                                &trace,
                                app as &dyn Application,
                                &strategy,
                                &profile,
                                &sim_config,
                                &spec.faults,
                            )
                        })
                    }));
                    match run {
                        Ok(Ok(result)) => {
                            span("fleet.absorb", device_id, || {
                                rollup.absorb_ok(spec.fault_class, &result)
                            });
                        }
                        Ok(Err(e)) => {
                            rollup.absorb_failure(
                                device_id,
                                DeviceDisposition::Failed,
                                e.to_string(),
                            );
                            return 0;
                        }
                        Err(_) => {
                            rollup.absorb_failure(
                                device_id,
                                DeviceDisposition::Panicked,
                                "device panicked".to_string(),
                            );
                            return 0;
                        }
                    }
                    let replay_started = Instant::now();
                    match replay_hub(program, &trace, device_id) {
                        Ok(h) => tally.hub.merge(&h),
                        Err(_) => tally.replay_errors += 1,
                    }
                    let replay_ns = replay_started.elapsed().as_nanos() as u64;
                    if mcu_every > 0 && device_id % mcu_every == 0 {
                        tally.kept.push(Arc::new(trace));
                    }
                    replay_ns
                });
                tally.busy_ns += (started.elapsed().as_nanos() as u64).saturating_sub(replay_ns);
            }
        });
        (rollup, tally)
    });
    let mut rollups = Vec::with_capacity(ids.len());
    let mut tally = DeviceTally::default();
    for (shard, r) in ids.iter().zip(results) {
        match r {
            Ok((rollup, t)) => {
                rollups.push(rollup);
                tally.merge(t);
            }
            Err(p) => rollups.push(lost_shard(config, *shard, &p.message)),
        }
    }
    (fold(config, rollups), tally)
}

/// The traced run's fleet figures: both passes run beside every rollup
/// the service computes, and their tallies.
#[derive(Default)]
pub struct FleetLayers {
    program: Option<Program>,
    tally: DeviceTally,
    shard_busy_ns: u64,
    shard_wall_ns: u64,
    skews: Vec<f64>,
    wake_ups: u64,
    frames_retried: u64,
}

impl FleetLayers {
    /// Runs the shard pass and the device pass over `program`; both must
    /// reproduce the service's `digest`. Returns the pass's hub counts.
    pub fn pass(
        &mut self,
        config: &FleetConfig,
        program: &Program,
        digest: u64,
        out: &mut Outcome,
    ) -> [u64; 4] {
        let plain = shard_pass(config, program, WORKERS);
        out.check(plain.rollup.digest() == digest, || {
            "shard pass digest differs from the service's".to_string()
        });
        self.shard_busy_ns += plain.shard_ns.iter().sum::<u64>();
        self.shard_wall_ns += plain.wall_ns;
        self.skews.push(shard_skew(&plain.shard_ns));
        // The MCU replay needs one pass's traces, not all of them.
        let mcu_every = if self.program.is_none() { MCU_EVERY } else { 0 };
        let (rollup, tally) = device_pass(config, program, WORKERS, mcu_every);
        out.check(rollup.digest() == digest, || {
            "traced digest differs from the untraced one".to_string()
        });
        out.check(tally.replay_errors == 0, || {
            format!("{} hub replays failed", tally.replay_errors)
        });
        let counts = tally.hub.counts();
        self.wake_ups += rollup.totals.wake_ups;
        self.frames_retried += rollup.totals.fault.frames_retried;
        self.tally.merge(tally);
        if self.program.is_none() {
            self.program = Some(program.clone());
        }
        counts
    }

    /// The per-layer records, per repetition of the workload, after the
    /// MCU replay of the kept traces.
    pub fn records(self, reps: usize, wire_bytes: u64, out: &mut Outcome) -> Vec<Record> {
        let pairs: Vec<_> = match &self.program {
            Some(p) => self
                .tally
                .kept
                .iter()
                .map(|t| (p.clone(), t.clone()))
                .collect(),
            None => Vec::new(),
        };
        let mcu = replay_mcu(&pairs);
        out.check(mcu.mismatches == 0, || {
            format!("{} MCU replays disagree with the host hub", mcu.mismatches)
        });
        let inputs = LayerInputs {
            hub: self.tally.hub,
            mcu,
            trace_samples: self.tally.trace_samples,
            wake_ups: self.wake_ups,
            frames_retried: self.frames_retried,
            wire_bytes,
            parallel: (self.shard_busy_ns, WORKERS, self.shard_wall_ns),
            overhead: (self.tally.busy_ns, self.shard_busy_ns),
        };
        let spans = spans::snapshot();
        let mut records = per_rep(layer_records(&spans, &inputs), reps);
        records.extend(service_details(&spans, reps));
        records.push(Record::new(
            Kind::Detail,
            "fleet.shard_skew",
            median(&self.skews),
            "ratio",
            self.skews.len(),
            "median",
        ));
        records
    }
}

/// Max over mean of the shard times: 1.0 is a perfectly even split.
pub fn shard_skew(shard_ns: &[u64]) -> f64 {
    let max = shard_ns.iter().copied().max().unwrap_or(0) as f64;
    let mean = shard_ns.iter().sum::<u64>() as f64 / shard_ns.len().max(1) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

/// Devices of a rollup that did not simulate to completion.
pub fn failed_devices(rollup: &FleetRollup) -> u64 {
    let t = &rollup.totals;
    t.incompatible + t.failed + t.panicked
}

/// The `"digest": "0x..."` value of a rollup or pin JSON document.
pub fn digest_in(json: &str) -> Option<u64> {
    let key = "\"digest\": \"0x";
    let start = json.find(key)? + key.len();
    let rest = &json[start..];
    u64::from_str_radix(&rest[..rest.find('"')?], 16).ok()
}

/// An unsigned number field `"key": N` or `"key": "0x.."` of a flat
/// JSON document.
pub fn field_in(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = json[start..].trim_start();
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    let value = rest[..end].trim().trim_matches('"');
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidewinder_sensors::Micros;

    #[test]
    fn pin_fields_parse() {
        let pin = "{\n  \"devices\": 10000,\n  \"seed\": \"0x51def1ee\",\n  \"digest\": \"0xfd9a9cc0100f5949\"\n}\n";
        assert_eq!(field_in(pin, "devices"), Some(10_000));
        assert_eq!(field_in(pin, "seed"), Some(0x51de_f1ee));
        assert_eq!(digest_in(pin), Some(0xfd9a_9cc0_100f_5949));
        assert_eq!(field_in(pin, "missing"), None);
    }

    #[test]
    fn device_pass_reproduces_the_shard_runner() {
        let config = FleetConfig {
            shard_size: 4,
            device_duration: Micros::from_secs(10),
            ..FleetConfig::new(0xD1CE, 12)
        };
        let program = sidewinder_apps::StepsApp::new().wake_condition();
        let plain = shard_pass(&config, &program, 2);
        let (traced, tally) = device_pass(&config, &program, 2, 4);
        assert_eq!(plain.rollup.digest(), traced.digest());
        assert_eq!(plain.rollup.totals, traced.totals);
        assert_eq!(plain.shard_ns.len(), 3);
        assert_eq!(tally.kept.len(), 3);
        assert_eq!(tally.replay_errors, 0);
        assert!(tally.hub.samples > 0 && tally.hub.node_execs >= tally.hub.samples);
        // The counts are a pure function of the inputs.
        let (_, again) = device_pass(&config, &program, 1, 4);
        assert_eq!(again.hub.counts(), tally.hub.counts());
        assert_eq!(again.trace_samples, tally.trace_samples);
    }
}
