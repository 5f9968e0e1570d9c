//! `service_churn`: one closed-loop wire client against a fresh
//! `FleetService` per session. It sends seeded accelerometer condition
//! submissions — some structural twins of earlier ones, so dedup fires,
//! and a few malformed frames or invalid programs whose correct reply is
//! `ErrorReply` — and after every [`QUERY_EVERY`]-th submission a rollup
//! query over a small fleet, re-polled once every [`REPOLL_EVERY`]-th
//! time so the rollup cache answers. Writes sit beside reads: every
//! accepted submission re-optimizes and re-certifies a growing suite and
//! invalidates the cached rollup.

use std::time::Instant;

use sidewinder_cert::{certify_program, CertTarget, Precision};
use sidewinder_fleet::device::splitmix64;
use sidewinder_fleet::service::FLEET_CERT_ARENA;
use sidewinder_fleet::wire::{
    decode_message, decode_submit, decode_submit_ack, encode_message, encode_query_rollup,
    MessageType, SubmitAck,
};
use sidewinder_fleet::{FleetConfig, FleetService};
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_ir::Program;
use sidewinder_opt::{optimize_suite, OptOptions};
use sidewinder_sensors::Micros;

use crate::fleet::{digest_in, failed_devices, FleetLayers};
use crate::report::{Kind, Record};
use crate::spans::span;
use crate::stats::{median, tail};
use crate::{Ctx, Outcome, WORKERS};

/// Distinct conditions a session submits.
pub const UNIQUE: usize = 48;
/// Resubmissions of earlier conditions under fresh node ids.
pub const TWINS: usize = 32;
/// Malformed frames and invalid programs.
pub const MALFORMED: usize = 8;
/// A rollup query follows every this many submissions.
pub const QUERY_EVERY: usize = 8;
/// Every this many queries the client re-polls at once.
pub const REPOLL_EVERY: usize = 3;
/// Devices of the queried fleet, two shards of eight.
const FLEET_DEVICES: u64 = 16;
/// Trace length of each queried device.
const FLEET_TRACE_S: u64 = 10;

/// What the service must answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// An ack with these fields.
    Ack(SubmitAck),
    /// An `ErrorReply`.
    Error,
    /// A rollup reply; `true` when the cache must answer it.
    Rollup(bool),
}

/// A seeded stream of draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The text of distinct condition `k` (of the 3 × 96 parameter space)
/// with node ids starting at `base`.
fn condition(k: usize, base: u32) -> String {
    let axis = ["ACC_X", "ACC_Y", "ACC_Z"][k % 3];
    let a = (k / 3) % 8;
    let b = (k / 24) % 4 + 1;
    let (n1, n2, n3) = (base, base + 1, base + 2);
    match k / 96 {
        0 => format!(
            "{axis} -> movingAvg(id={n1}, params={{{}}});\n{n1} -> outsideThreshold(id={n2}, params={{-{b}, {b}}});\n{n2} -> OUT;\n",
            a + 2
        ),
        1 => format!(
            "{axis} -> window(id={n1}, params={{{size}, {hop}, 0}});\n{n1} -> {stat}(id={n2});\n{n2} -> minThreshold(id={n3}, params={{{b}}});\n{n3} -> OUT;\n",
            size = 16 << (a % 4),
            hop = 8 << (a % 4),
            stat = ["peakToPeak", "stdDev"][a / 4],
        ),
        _ => format!(
            "{axis} -> movingAvg(id={n1}, params={{{}}});\n{n1} -> maxThreshold(id={n2}, params={{-{b}}});\n{n2} -> OUT;\n",
            a + 2
        ),
    }
}

/// Malformed request `k`: a truncated frame, a corrupted frame, text
/// that does not parse, or a program that fails validation.
fn malformed(k: usize, d: &mut Draws) -> Vec<u8> {
    let good = encode_message(
        MessageType::SubmitProgram,
        condition(d.below(288), 1).as_bytes(),
    );
    match k % 4 {
        0 => good[..good.len() / 2].to_vec(),
        1 => {
            let mut bad = good;
            let i = 4 + d.below(bad.len() - 8);
            bad[i] ^= 0x5A;
            bad
        }
        2 => encode_message(
            MessageType::SubmitProgram,
            b"ACC_X -> movingAvg(id=1, params={",
        ),
        _ => encode_message(
            MessageType::SubmitProgram,
            b"ACC_Y -> movingAvg(id=1, params={4});\n7 -> OUT;\n",
        ),
    }
}

/// One step of a session, before its correct reply is known.
#[derive(Debug, Clone)]
pub enum Step {
    /// A submission of this condition text.
    Submit(String),
    /// A malformed frame.
    Malformed(Vec<u8>),
    /// A rollup query; `true` for an immediate re-poll.
    Query(bool),
}

/// The session script for `seed`: [`UNIQUE`] distinct conditions (a
/// third from each template), [`TWINS`] resubmissions of earlier ones
/// under fresh node ids and [`MALFORMED`] bad requests, in seeded order,
/// with the queries interleaved.
pub fn plan(seed: u64) -> Vec<Step> {
    let mut d = Draws(seed ^ 0xC4A2_0000_0000_0001);
    let mut pool: Vec<usize> = Vec::with_capacity(UNIQUE);
    for t in 0..3 {
        let mut ks: Vec<usize> = (t * 96..(t + 1) * 96).collect();
        for i in 0..UNIQUE / 3 {
            let j = i + d.below(ks.len() - i);
            ks.swap(i, j);
            pool.push(ks[i]);
        }
    }
    // Kinds in seeded order: 0 = new, 1 = twin, 2 = malformed; a twin
    // needs an earlier condition, so the script opens with a new one.
    let mut kinds: Vec<u8> = [vec![0; UNIQUE], vec![1; TWINS], vec![2; MALFORMED]].concat();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, d.below(i + 1));
    }
    let first_new = kinds.iter().position(|&k| k == 0).expect("uniques exist");
    kinds.swap(0, first_new);

    let mut sent: Vec<usize> = Vec::new();
    let mut steps = Vec::new();
    let mut queries = 0;
    for (i, &kind) in kinds.iter().enumerate() {
        steps.push(match kind {
            2 => Step::Malformed(malformed(i, &mut d)),
            _ => {
                let k = if kind == 0 {
                    sent.push(pool[sent.len()]);
                    pool[sent.len() - 1]
                } else {
                    sent[d.below(sent.len())]
                };
                Step::Submit(condition(k, 1 + 10 * d.below(50) as u32))
            }
        });
        if (i + 1) % QUERY_EVERY == 0 {
            steps.push(Step::Query(false));
            queries += 1;
            if queries % REPOLL_EVERY == 0 {
                steps.push(Step::Query(true));
            }
        }
    }
    steps
}

/// Frames a plan for the wire.
pub fn frames(plan: &[Step]) -> Vec<Vec<u8>> {
    plan.iter()
        .map(|step| match step {
            Step::Submit(text) => encode_message(MessageType::SubmitProgram, text.as_bytes()),
            Step::Malformed(frame) => frame.clone(),
            Step::Query(_) => encode_query_rollup(),
        })
        .collect()
}

/// The correct reply to every step, computed by calling `optimize_suite`
/// directly on the accepted submissions.
///
/// # Panics
///
/// Panics if a generated condition does not parse: the generator is
/// wrong, not the system.
pub fn expectations(plan: &[Step]) -> Vec<Expect> {
    let rates = ChannelRates::default();
    let options = OptOptions::default();
    let mut accepted: Vec<Program> = Vec::new();
    let mut unique = 0usize;
    plan.iter()
        .map(|step| match step {
            Step::Malformed(_) => Expect::Error,
            Step::Query(hit) => Expect::Rollup(*hit),
            Step::Submit(text) => {
                accepted.push(text.parse().expect("generated conditions parse"));
                let suite = optimize_suite(&accepted, &rates, &options);
                let id = accepted.len() - 1;
                let ack = SubmitAck {
                    condition_id: id as u32,
                    unique_index: suite.assignment[id] as u32,
                    deduplicated: suite.unique.len() == unique,
                    active_unique: suite.unique.len() as u32,
                    program_digest: suite.unique[suite.assignment[id]].stable_digest(),
                    cert_digest: 0,
                };
                unique = suite.unique.len();
                Expect::Ack(ack)
            }
        })
        .collect()
}

/// The small fleet the queries run.
pub fn fleet(seed: u64) -> FleetConfig {
    FleetConfig {
        shard_size: FLEET_DEVICES / 2,
        device_duration: Micros::from_secs(FLEET_TRACE_S),
        ..FleetConfig::new(splitmix64(seed ^ 0xF1EE), FLEET_DEVICES)
    }
}

/// Whether an ack matches the reference. The certificate digest is the
/// service's to choose; the reference does not certify.
fn ack_matches(got: &SubmitAck, want: &SubmitAck) -> bool {
    SubmitAck {
        cert_digest: 0,
        ..*got
    } == *want
}

/// Per-session measurements.
#[derive(Default)]
struct Session {
    submit_s: Vec<f64>,
    query_s: Vec<f64>,
    hit_s: Vec<f64>,
    wall_s: f64,
    digests: Vec<Option<u64>>,
    failed_devices: u64,
    wire_bytes: u64,
}

fn session(
    mut service: FleetService,
    config: &FleetConfig,
    frames: &[Vec<u8>],
    expect: &[Expect],
    mut traced: Option<&mut TracedChurn>,
    out: &mut Outcome,
) -> Session {
    let mut s = Session::default();
    if let Some(t) = traced.as_deref_mut() {
        t.accepted.clear();
    }
    let started = Instant::now();
    for (i, (frame, want)) in frames.iter().zip(expect).enumerate() {
        let req = i as u64;
        let t = Instant::now();
        let name = match want {
            Expect::Rollup(_) => "service.query",
            _ => "service.submit",
        };
        let reply = span(name, req, || service.handle(frame));
        let decoded = span("wire.decode", req, || decode_message(&reply));
        let latency = t.elapsed().as_secs_f64();
        s.wire_bytes += (frame.len() + reply.len()) as u64;
        let kind = decoded.as_ref().map(|(k, _)| *k).ok();
        match want {
            Expect::Ack(want) => {
                let got = decoded
                    .ok()
                    .filter(|(k, _)| *k == MessageType::SubmitAck)
                    .and_then(|(_, p)| decode_submit_ack(&p).ok());
                out.check(got.is_some_and(|g| ack_matches(&g, want)), || {
                    format!("request {i}: ack {got:?}, reference {want:?}")
                });
                s.submit_s.push(latency);
                if let Some(t) = traced.as_deref_mut() {
                    t.ingest(frame, req, out);
                }
            }
            Expect::Error => {
                out.check(kind == Some(MessageType::ErrorReply), || {
                    format!("request {i}: malformed submission answered with {kind:?}")
                });
            }
            Expect::Rollup(hit) => {
                let digest = decoded
                    .ok()
                    .filter(|(k, _)| *k == MessageType::RollupReply)
                    .and_then(|(_, p)| digest_in(&String::from_utf8_lossy(&p)));
                out.check(digest.is_some(), || format!("request {i}: no rollup reply"));
                if *hit {
                    out.check(digest == s.digests.last().copied().flatten(), || {
                        format!("request {i}: re-poll digest changed")
                    });
                    s.hit_s.push(latency);
                } else {
                    s.query_s.push(latency);
                    let failed = failed_devices(service.run().expect("a query after submissions"));
                    s.failed_devices += failed;
                    out.ops(config.devices, failed, || {
                        format!("request {i}: {failed} devices failed")
                    });
                    if let (Some(t), Some(d)) = (traced.as_deref_mut(), digest) {
                        let program = service.served_program().expect("conditions are in");
                        t.fleet.pass(config, &program, d, out);
                    }
                }
                s.digests.push(digest);
            }
        }
    }
    s.wall_s = started.elapsed().as_secs_f64();
    s
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let seed = ctx.args.seed;
    let expect = expectations(&plan(seed));
    let mut setup_s = Vec::new();
    let mut framed = Vec::new();
    let mut sessions: Vec<Session> = Vec::new();
    let mut traced = ctx.args.trace.then(TracedChurn::default);
    while ctx.another(sessions.len()) {
        // Every session sets up afresh from the seed, so set-up is timed
        // across the whole run.
        let t = Instant::now();
        framed = frames(&plan(seed));
        let config = fleet(seed);
        let service = FleetService::new(config.clone()).with_workers(WORKERS);
        setup_s.push(t.elapsed().as_secs_f64());
        let s = session(service, &config, &framed, &expect, traced.as_mut(), out);
        if let Some(first) = sessions.first() {
            out.check(first.digests == s.digests, || {
                "a session's rollup digests differ from the first session's".to_string()
            });
        }
        sessions.push(s);
    }

    let n = sessions.len();
    let pool = |f: fn(&Session) -> &Vec<f64>| -> Vec<f64> {
        sessions.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let submits = pool(|s| &s.submit_s);
    let queries = pool(|s| &s.query_s);
    let hits = pool(|s| &s.hit_s);
    let throughput = (framed.len() * n) as f64 / sessions.iter().map(|s| s.wall_s).sum::<f64>();
    let acks: Vec<&SubmitAck> = expect
        .iter()
        .filter_map(|e| match e {
            Expect::Ack(a) => Some(a),
            _ => None,
        })
        .collect();
    let unique = acks.iter().map(|a| a.active_unique).max().unwrap_or(0);
    let first = &sessions[0];
    for (name, v) in [
        ("service.requests", framed.len() as u64),
        ("service.submissions", (acks.len() + MALFORMED) as u64),
        ("opt.unique_conditions", u64::from(unique)),
        ("service.queries", first.query_s.len() as u64),
        ("service.cache_hits", first.hit_s.len() as u64),
        ("devices_failed", first.failed_devices),
    ] {
        out.records.push(Record::new(
            Kind::Count,
            name,
            v as f64,
            "count",
            1,
            "per session",
        ));
    }
    if let Some(t) = traced {
        let dedup = f64::from(unique) / acks.len() as f64;
        let records = t.finish(n, first.wire_bytes, dedup, (hits.len(), queries.len()), out);
        out.records.extend(records);
        return;
    }
    // A session is what one client sees: its tail is taken per session
    // and the median over sessions reported, so one preemption of the
    // benchmark process moves one session's tail, not the figure.
    let session_tails: Vec<(f64, f64)> = sessions.iter().map(|s| tail(&s.submit_s)).collect();
    let pct = session_tails[0].0;
    let tail_s = median(&session_tails.iter().map(|t| t.1).collect::<Vec<_>>());
    let (all_pct, all_tail_s) = tail(&submits);
    let tail_stat = format!("p{pct:.1} of each session's {} submits, median", acks.len());
    let e = Kind::EndToEnd;
    out.records.push(Record::new(
        e,
        "throughput_per_s",
        throughput,
        "1/s",
        n,
        "requests/session wall, all sessions",
    ));
    out.records.push(Record::new(
        e,
        "latency_p50_ms",
        median(&submits) * 1e3,
        "ms",
        submits.len(),
        "median submit",
    ));
    out.records.push(Record::new(
        e,
        "latency_tail_ms",
        tail_s * 1e3,
        "ms",
        submits.len(),
        tail_stat.clone(),
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
        "submit_p50_ms",
        median(&submits) * 1e3,
        "ms",
        submits.len(),
        "median",
    ));
    out.records.push(Record::new(
        d,
        "submit_tail_ms",
        tail_s * 1e3,
        "ms",
        submits.len(),
        tail_stat,
    ));
    out.records.push(Record::new(
        d,
        "submit_pooled_tail_ms",
        all_tail_s * 1e3,
        "ms",
        submits.len(),
        format!("p{all_pct:.2} of all submits"),
    ));
    out.records.push(Record::new(
        d,
        "query_p50_ms",
        median(&queries) * 1e3,
        "ms",
        queries.len(),
        "median, cache miss",
    ));
    out.records.push(Record::new(
        d,
        "query_hit_p50_ms",
        median(&hits) * 1e3,
        "ms",
        hits.len(),
        "median, cache hit",
    ));
}

/// The traced run: ingest steps replayed beside each submission and the
/// fleet passes beside each cache-missing query.
#[derive(Default)]
struct TracedChurn {
    accepted: Vec<Program>,
    fleet: FleetLayers,
}

impl TracedChurn {
    /// `FleetService::submit_program`'s steps on one accepted frame,
    /// with the request codec both ways.
    fn ingest(&mut self, frame: &[u8], req: u64, out: &mut Outcome) {
        let Ok((_, payload)) = span("wire.decode", req, || decode_message(frame)) else {
            return out.check(false, || {
                format!("request {req}: reference frame undecodable")
            });
        };
        let re = span("wire.encode", req, || {
            encode_message(MessageType::SubmitProgram, &payload)
        });
        out.check(re == frame, || {
            format!("request {req}: frame does not re-encode")
        });
        let Ok(program) = span("ir.parse_validate", req, || decode_submit(&payload)) else {
            return out.check(false, || {
                format!("request {req}: reference program rejected")
            });
        };
        self.accepted.push(program);
        let suite = span("opt.suite", req, || {
            optimize_suite(
                &self.accepted,
                &ChannelRates::default(),
                &OptOptions::default(),
            )
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

    /// Both fleet passes over the served program; each must reproduce the
    /// service's digest.
    fn finish(
        self,
        sessions: usize,
        wire_per_session: u64,
        dedup: f64,
        (hits, misses): (usize, usize),
        out: &mut Outcome,
    ) -> Vec<Record> {
        let mut records = self
            .fleet
            .records(sessions, wire_per_session * sessions as u64, out);
        let d = Kind::Detail;
        let queries = hits + misses;
        records.push(Record::new(
            d,
            "fleet.cache_hit_ratio",
            hits as f64 / queries as f64,
            "ratio",
            queries,
            "hits/queries",
        ));
        records.push(Record::new(
            d,
            "opt.dedup_ratio",
            dedup,
            "ratio",
            1,
            "unique/submitted",
        ));
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(steps: &[Step]) -> Vec<String> {
        steps
            .iter()
            .map(|s| match s {
                Step::Submit(t) => t.clone(),
                Step::Malformed(f) => format!("{f:?}"),
                Step::Query(hit) => format!("query {hit}"),
            })
            .collect()
    }

    #[test]
    fn the_script_is_a_function_of_the_seed() {
        let a = plan(1);
        assert_eq!(texts(&a), texts(&plan(1)));
        assert_ne!(texts(&a), texts(&plan(2)));
        assert_ne!(fleet(1), fleet(2));
        // Same shape at every seed: the counts the metrics rest on.
        for seed in [1, 2, 0x51DE_F1EE] {
            let steps = plan(seed);
            let expect = expectations(&steps);
            let acks: Vec<_> = expect
                .iter()
                .filter_map(|e| match e {
                    Expect::Ack(a) => Some(a),
                    _ => None,
                })
                .collect();
            assert_eq!(acks.len(), UNIQUE + TWINS);
            assert_eq!(acks.last().unwrap().active_unique as usize, UNIQUE);
            assert_eq!(acks.iter().filter(|a| a.deduplicated).count(), TWINS);
            assert_eq!(
                expect.iter().filter(|e| **e == Expect::Error).count(),
                MALFORMED
            );
        }
    }
}
