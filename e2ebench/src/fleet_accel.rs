//! `fleet_accel`: the product's end-to-end path, driven as `fleetd`
//! drives it. The steps, transitions and headbutts conditions go over
//! the wire into `FleetService::handle`, then one framed rollup query
//! runs the fleet: default device mix and fault model, 60 s traces,
//! two workers. A batch job; each repetition builds a fresh service, so
//! the rollup cache never answers.

use std::time::{Duration, Instant};

use sidewinder_apps::{HeadbuttsApp, StepsApp, TransitionsApp};
use sidewinder_cert::{certify_program, CertTarget, Precision};
use sidewinder_fleet::service::FLEET_CERT_ARENA;
use sidewinder_fleet::wire::{
    decode_message, decode_submit, decode_submit_ack, encode_message, encode_query_rollup,
    MessageType,
};
use sidewinder_fleet::{run_fleet, FleetConfig, FleetService};
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_ir::Program;
use sidewinder_opt::{optimize_suite, OptOptions};
use sidewinder_sensors::Micros;
use sidewinder_sim::Application;

use crate::fleet::{digest_in, failed_devices, field_in, FleetLayers};
use crate::report::{Kind, Record};
use crate::spans::span;
use crate::stats::{median, tail};
use crate::{Ctx, Outcome, WORKERS};

/// Devices per rollup query away from the pin configuration.
pub const DEVICES: u64 = 800;
/// Devices per shard away from the pin configuration: eight shards.
pub const SHARD_SIZE: u64 = 100;

/// The fleet pin of `results/fleet_digest.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pin {
    seed: u64,
    devices: u64,
    shard_size: u64,
    duration_secs: u64,
    digest: u64,
}

fn read_pin(ctx: &Ctx) -> Result<Pin, String> {
    let text = ctx.read("results/fleet_digest.json")?;
    let field = |k: &str| field_in(&text, k).ok_or(format!("fleet pin lacks {k}"));
    Ok(Pin {
        seed: field("seed")?,
        devices: field("devices")?,
        shard_size: field("shard_size")?,
        duration_secs: field("duration_secs")?,
        digest: digest_in(&text).ok_or("fleet pin lacks a digest")?,
    })
}

/// The fleet a seed selects: the pin configuration at the pin's seed,
/// else [`DEVICES`] devices in [`SHARD_SIZE`] shards derived from the
/// seed.
pub fn config_for(seed: u64, pin: Option<&Pin>) -> FleetConfig {
    match pin {
        Some(p) if p.seed == seed => FleetConfig {
            shard_size: p.shard_size,
            device_duration: Micros::from_secs(p.duration_secs),
            ..FleetConfig::new(p.seed, p.devices)
        },
        _ => FleetConfig {
            shard_size: SHARD_SIZE,
            device_duration: Micros::from_secs(60),
            ..FleetConfig::new(seed, DEVICES)
        },
    }
}

/// The three accelerometer conditions `fleetd` submits by default.
pub fn conditions() -> Vec<String> {
    [
        Box::new(StepsApp::new()) as Box<dyn Application>,
        Box::new(TransitionsApp::new()),
        Box::new(HeadbuttsApp::new()),
    ]
    .iter()
    .map(|app| app.wake_condition().to_string())
    .collect()
}

/// Builds a service and submits the conditions over the wire. Returns
/// the service, the last ack's active-unique count and the wire bytes.
fn set_up(
    config: &FleetConfig,
    frames: &[Vec<u8>],
    out: &mut Outcome,
) -> (FleetService, u32, usize) {
    let mut service = FleetService::new(config.clone()).with_workers(WORKERS);
    let mut active = 0;
    let mut bytes = 0;
    for (i, frame) in frames.iter().enumerate() {
        let reply = span("service.submit", i as u64, || service.handle(frame));
        bytes += frame.len() + reply.len();
        let ack = decode_message(&reply)
            .ok()
            .filter(|(kind, _)| *kind == MessageType::SubmitAck)
            .and_then(|(_, payload)| decode_submit_ack(&payload).ok());
        out.check(ack.is_some(), || {
            format!("condition {i} was not acknowledged")
        });
        active = ack.map_or(active, |a| a.active_unique);
    }
    (service, active, bytes)
}

/// The ingest steps `FleetService::submit_program` performs, replayed
/// beside the service under their own spans.
fn ingest_replay(frames: &[Vec<u8>]) -> Result<(), String> {
    let mut accepted: Vec<Program> = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let req = i as u64;
        let (_, payload) =
            span("wire.decode", req, || decode_message(frame)).map_err(|e| e.to_string())?;
        let program = span("ir.parse_validate", req, || decode_submit(&payload))
            .map_err(|e| e.to_string())?;
        accepted.push(program);
        let suite = span("opt.suite", req, || {
            optimize_suite(&accepted, &ChannelRates::default(), &OptOptions::default())
        });
        if let Some(fused) = suite.fused() {
            let target = CertTarget {
                mcu: None,
                cap: FLEET_CERT_ARENA,
            };
            let _ = span("cert.certify", req, || {
                certify_program(&fused, &ChannelRates::default(), Precision::F64, &target)
            });
        }
    }
    Ok(())
}

/// One rollup query over the wire; returns the latency and the digest.
fn query(service: &mut FleetService, rep: u64) -> (Duration, Option<u64>, usize) {
    let t = Instant::now();
    let request = span("wire.encode", rep, encode_query_rollup);
    let reply = span("service.query", rep, || service.handle(&request));
    let decoded = span("wire.decode", rep, || decode_message(&reply));
    let latency = t.elapsed();
    let digest = match decoded {
        Ok((MessageType::RollupReply, payload)) => digest_in(&String::from_utf8_lossy(&payload)),
        _ => None,
    };
    (latency, digest, request.len() + reply.len())
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let pin = read_pin(ctx);
    out.check(pin.is_ok(), || format!("{:?}", pin.as_ref().err()));
    let pin = pin.ok();
    let config = config_for(ctx.args.seed, pin.as_ref());
    let at_pin = pin.is_some_and(|p| p.seed == ctx.args.seed);
    let frames: Vec<Vec<u8>> = conditions()
        .iter()
        .map(|text| encode_message(MessageType::SubmitProgram, text.as_bytes()))
        .collect();

    let mut setup_s = Vec::new();
    let mut latency_s = Vec::new();
    let mut first: Option<(u64, [u64; 5])> = None;
    let mut wire_bytes = 0u64;
    let mut active = 0;
    let mut program = None;
    // Traced run only.
    let mut layers = FleetLayers::default();
    let mut first_hub_counts = None;
    let mut rep = 0u64;
    while ctx.another(latency_s.len()) {
        let t = Instant::now();
        let (mut service, unique, setup_bytes) = set_up(&config, &frames, out);
        setup_s.push(t.elapsed().as_secs_f64());
        active = unique;
        if ctx.args.trace {
            let r = ingest_replay(&frames);
            out.check(r.is_ok(), || format!("ingest replay: {r:?}"));
        }
        let (latency, digest, bytes) = query(&mut service, rep);
        wire_bytes += (setup_bytes + bytes) as u64;
        latency_s.push(latency.as_secs_f64());
        let rollup = service.run().expect("conditions are in").clone();
        let counts = [
            rollup.totals.ok,
            failed_devices(&rollup),
            rollup.totals.wake_ups,
            rollup.totals.fault.frames_retried,
            rollup.totals.detections,
        ];
        out.ops(config.devices, counts[1], || {
            format!("{} devices failed in repetition {rep}", counts[1])
        });
        out.check(digest == Some(rollup.digest()), || {
            format!(
                "reply digest {digest:?} is not the rollup's {:#x}",
                rollup.digest()
            )
        });
        match first {
            None => first = Some((rollup.digest(), counts)),
            Some(f) => out.check(f == (rollup.digest(), counts), || {
                format!("repetition {rep} gave {counts:?}, the first gave {:?}", f.1)
            }),
        }
        if at_pin {
            let want = pin.map(|p| p.digest);
            out.check(digest == want, || {
                let hex = |d: Option<u64>| d.map_or("none".to_string(), |d| format!("{d:#018x}"));
                format!(
                    "fleet digest {} differs from results/fleet_digest.json {}",
                    hex(digest),
                    hex(want)
                )
            });
        }
        if ctx.args.trace {
            let served = service.served_program().expect("conditions are in");
            let counts = layers.pass(&config, &served, rollup.digest(), out);
            match first_hub_counts {
                None => first_hub_counts = Some(counts),
                Some(f) => out.check(f == counts, || {
                    format!("hub counts {counts:?} differ from the first repetition's {f:?}")
                }),
            }
            program = Some(served);
        } else if program.is_none() {
            program = service.served_program();
        }
        rep += 1;
    }

    // Worker-count invariance on the first two shards.
    if let Some(program) = &program {
        let sub = FleetConfig {
            devices: config.devices.min(2 * config.shard_size),
            ..config.clone()
        };
        let one = run_fleet(&sub, program, 1).digest();
        let two = run_fleet(&sub, program, WORKERS).digest();
        out.check(one == two, || {
            format!("digest at 1 worker {one:#x} != at 2 {two:#x}")
        });
    }

    let reps = latency_s.len();
    let c = first.map_or([0; 5], |(_, c)| c);
    let fused_lines = program
        .as_ref()
        .map_or(0, |p| p.to_string().lines().count());
    for (name, v) in [
        ("devices_ok", c[0]),
        ("devices_failed", c[1]),
        ("sim.wake_ups", c[2]),
        ("sim.frames_retried", c[3]),
        ("sim.detections", c[4]),
        ("opt.unique_conditions", u64::from(active)),
        ("ir.fused_lines", fused_lines as u64),
    ] {
        out.records.push(Record::new(
            Kind::Count,
            name,
            v as f64,
            "count",
            1,
            "per query",
        ));
    }
    if ctx.args.trace {
        let records = layers.records(reps, wire_bytes, out);
        out.records.extend(records);
        let conditions = frames.len();
        for (name, value, samples, stat) in [
            (
                "fleet.cache_hit_ratio",
                0.0,
                reps,
                "no hits: a fresh service per query",
            ),
            (
                "opt.dedup_ratio",
                f64::from(active) / conditions as f64,
                conditions,
                "unique/submitted",
            ),
        ] {
            out.records.push(Record::new(
                Kind::Detail,
                name,
                value,
                "ratio",
                samples,
                stat,
            ));
        }
        return;
    }
    let devices = config.devices as f64;
    // Work over the time it took: a mean, which moves smoothly when the
    // host's speed changes part-way through a run.
    let throughput = devices * reps as f64 / latency_s.iter().sum::<f64>();
    let p50 = median(&latency_s);
    let (pct, tail_s) = tail(&latency_s);
    let e = Kind::EndToEnd;
    out.records.push(Record::new(
        e,
        "throughput_per_s",
        throughput,
        "1/s",
        reps,
        "devices/query wall, all queries",
    ));
    out.records.push(Record::new(
        e,
        "latency_p50_ms",
        p50 * 1e3,
        "ms",
        reps,
        "median",
    ));
    out.records.push(Record::new(
        e,
        "latency_tail_ms",
        tail_s * 1e3,
        "ms",
        reps,
        format!("p{pct:.1}"),
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
        "fleet_devices_per_s",
        throughput,
        "1/s",
        reps,
        "devices/query wall, all queries",
    ));
    out.records.push(Record::new(
        d,
        "query_p50_ms",
        p50 * 1e3,
        "ms",
        reps,
        "median",
    ));
    out.records.push(Record::new(
        d,
        "fleet.devices",
        devices,
        "count",
        1,
        "per query",
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fleet_is_a_function_of_the_seed_and_the_pin_seed_selects_the_pin() {
        let pin = Pin {
            seed: 0x51DE_F1EE,
            devices: 10_000,
            shard_size: 1024,
            duration_secs: 60,
            digest: 1,
        };
        let a = config_for(1, Some(&pin));
        assert_eq!(a, config_for(1, Some(&pin)));
        assert_ne!(a.seed, config_for(2, Some(&pin)).seed);
        assert_eq!((a.devices, a.shard_size), (DEVICES, SHARD_SIZE));
        let p = config_for(pin.seed, Some(&pin));
        assert_eq!((p.seed, p.devices, p.shard_size), (pin.seed, 10_000, 1024));
        assert_eq!(conditions().len(), 3);
    }
}
