//! Host-vs-MCU interpreter equivalence on the six golden fixtures.
//!
//! The acceptance bar for the `no_std` core (DESIGN.md §6j): each golden
//! wake-up condition, compiled to an [`McuImage`] and replayed through
//! [`McuCore`] on the perf gate's synthetic conformance input, must
//! produce the *bit-identical* wake sequence — same count, same sequence
//! tags, same `f64` result bits — as [`HubRuntime`] running the same
//! program. The f64 trace is additionally hashed and checked against the
//! committed goldens in `results/wake_digests.json`, so host and core
//! are both pinned to the same frozen stream. A second tier replays the
//! single-precision core (`McuCore<f32, _>`) and holds it to the same
//! wake schedule within the perf gate's f32 tolerance.
//!
//! `McuCore::push_samples` fills window rings a stretch at a time, so
//! the stretch tiers feed the same inputs in uneven stretches (empty and
//! 1-sample ones included): the golden fixtures against their
//! per-sample traces, and random window programs against a host
//! `CounterSink` runtime, whose enabled sink keeps every sample on the
//! full pass.

mod common;

use common::{fill_case, FillCase};
use proptest::prelude::*;
use sidewinder_cert::{certify_program, CertTarget, Precision};
use sidewinder_hub::runtime::{ChannelRates, HubRuntime};
use sidewinder_hub::{compile_image, McuCore, McuExecError, Sample};
use sidewinder_ir::Program;
use sidewinder_obs::CounterSink;
use sidewinder_sensors::SensorChannel;

/// The six golden wake-up conditions, as committed under `crates/ir`.
const FIXTURES: [(&str, &str); 6] = [
    ("steps", include_str!("../../ir/tests/fixtures/steps.swir")),
    (
        "transitions",
        include_str!("../../ir/tests/fixtures/transitions.swir"),
    ),
    (
        "headbutts",
        include_str!("../../ir/tests/fixtures/headbutts.swir"),
    ),
    (
        "sirens",
        include_str!("../../ir/tests/fixtures/sirens.swir"),
    ),
    ("music", include_str!("../../ir/tests/fixtures/music.swir")),
    (
        "phrase",
        include_str!("../../ir/tests/fixtures/phrase.swir"),
    ),
];

/// The committed f64 goldens the perf gate checks; replaying them here
/// pins the MCU core to the same frozen stream, not merely to whatever
/// the host currently produces.
const GOLDEN_DIGESTS: &str = include_str!("../../../results/wake_digests.json");

/// Samples per channel — the perf gate's `DIGEST_SAMPLES`.
const DIGEST_SAMPLES: usize = 16_384;

/// The two core capacity classes the suite deploys to. Which class a
/// fixture needs is *derived from its resource certificate* (the
/// music/phrase conditions hold a 512- and a 2048-sample window
/// concurrently, certifying at 7688 elements — past the default class),
/// not hardcoded per fixture.
const DEFAULT_CORE: usize = sidewinder_hub::DEFAULT_ARENA;
const BIG_CORE: usize = 16_384;

/// Certifies `program` against the big core class and returns its
/// certificate; every fixture must fit there.
fn fixture_cert(program: &Program) -> sidewinder_cert::ResourceCert {
    let cert = certify_program(
        program,
        &ChannelRates::default(),
        Precision::F64,
        &CertTarget {
            mcu: None,
            cap: BIG_CORE,
        },
    )
    .expect("fixture certifies");
    assert!(
        cert.fits_cap,
        "fixture needs {} elements, past the biggest deployed core",
        cert.required_capacity
    );
    cert
}

/// The conformance input from the perf gate (`sidewinder-bench`):
/// per-channel sinusoids alternating every 8192 samples between a loud
/// steady tone and a quiet frequency-modulated segment.
fn digest_sample(i: usize, ci: usize) -> f64 {
    let loud = (i / 8192) % 2 == 1;
    let step = if loud {
        1.3
    } else {
        1.3 + 0.8 * (i as f64 / 97.0).sin()
    };
    let phase = i as f64 * step + ci as f64 * 0.7;
    phase.sin() * if loud { 12.0 } else { 2.0 }
}

/// Replays the conformance input through the host runtime at vector
/// precision `P` and collects `(seq, value)` wake pairs.
fn host_trace<P: Sample>(program: &Program) -> Vec<(u64, f64)> {
    let mut hub = HubRuntime::<sidewinder_obs::NullSink, P>::load_generic(
        program,
        &ChannelRates::default(),
        sidewinder_obs::NullSink,
    )
    .expect("fixture loads on the host");
    let channels = program.channels();
    let mut trace = Vec::new();
    for i in 0..DIGEST_SAMPLES {
        for (ci, &channel) in channels.iter().enumerate() {
            for wake in hub
                .push_samples(channel, &[digest_sample(i, ci)])
                .expect("fixture executes on the host")
            {
                trace.push((wake.seq, wake.value));
            }
        }
    }
    trace
}

/// Replays the same input through the MCU core at vector precision `P`,
/// on the capacity class the program's certificate demands.
///
/// A big-class core is ~1 MiB of arenas, so the caller runs this on a
/// thread with a large stack (test threads default to 2 MiB).
fn mcu_trace<P: Sample>(program: &Program) -> Vec<(u64, f64)> {
    mcu_trace_split::<P>(program, &[])
}

/// [`mcu_trace`] on a single-channel program, fed through
/// `push_samples` in stretches of the lengths in `split` (cycled); an
/// empty `split` pushes one sample at a time through `push_sample`.
fn mcu_trace_split<P: Sample>(program: &Program, split: &[usize]) -> Vec<(u64, f64)> {
    if fixture_cert(program).required_capacity <= DEFAULT_CORE {
        run_core::<P, DEFAULT_CORE>(program, split)
    } else {
        run_core::<P, BIG_CORE>(program, split)
    }
}

fn run_core<P: Sample, const ARENA: usize>(program: &Program, split: &[usize]) -> Vec<(u64, f64)> {
    let image =
        compile_image(program, &ChannelRates::default()).expect("fixture compiles to an image");
    let mut core: McuCore<P, ARENA> = McuCore::new();
    core.load(&image).expect("image fits the certified arena");
    let channels: Vec<SensorChannel> = program.channels();
    let mut trace = Vec::new();
    if !split.is_empty() {
        let [channel] = channels[..] else {
            panic!("stretches interleave channels differently from the digest input");
        };
        let samples: Vec<f64> = (0..DIGEST_SAMPLES).map(|i| digest_sample(i, 0)).collect();
        let mut rest = &samples[..];
        for &n in split.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (stretch, tail) = rest.split_at(n.min(rest.len()));
            core.push_samples(channel.index() as u8, stretch, &mut |w| {
                trace.push((w.seq, w.value))
            })
            .expect("fixture executes on the core");
            rest = tail;
        }
        return trace;
    }
    for i in 0..DIGEST_SAMPLES {
        for (ci, &channel) in channels.iter().enumerate() {
            core.push_sample(channel.index() as u8, digest_sample(i, ci), &mut |w| {
                trace.push((w.seq, w.value))
            })
            .expect("fixture executes on the core");
        }
    }
    trace
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The perf gate's wake digest over a `(seq, value)` trace.
fn trace_digest(trace: &[(u64, f64)]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &(seq, value) in trace {
        hash = fnv1a(hash, &seq.to_le_bytes());
        hash = fnv1a(hash, &value.to_bits().to_le_bytes());
    }
    hash
}

/// Reads one `"name": "0x..."` golden out of the committed digest file.
fn golden_digest(name: &str) -> u64 {
    for line in GOLDEN_DIGESTS.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        if key.trim().trim_matches('"') != name {
            continue;
        }
        let hex = value.trim().trim_matches('"').trim_start_matches("0x");
        return u64::from_str_radix(hex, 16)
            .unwrap_or_else(|e| panic!("golden digest for {name} is not hex: {e}"));
    }
    panic!("no committed wake digest for fixture {name}");
}

/// Runs `f` on a thread with stack room for the fixture-sized core.
fn with_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(32 << 20)
        .spawn(f)
        .expect("spawn test thread")
        .join()
        .expect("test thread panicked")
}

/// Bit-exact tier: on every fixture the core's f64 wake trace equals the
/// host's, wake for wake, and both hash to the committed golden digest.
#[test]
fn f64_core_is_bit_identical_to_the_host_on_all_fixtures() {
    with_big_stack(|| {
        for (name, text) in FIXTURES {
            let program: Program = text
                .parse()
                .unwrap_or_else(|e| panic!("fixture {name} does not parse: {e}"));
            let host = host_trace::<f64>(&program);
            let core = mcu_trace::<f64>(&program);
            assert!(!host.is_empty(), "fixture {name} never woke on the host");
            assert_eq!(
                host.len(),
                core.len(),
                "fixture {name}: wake count diverged (host {} vs core {})",
                host.len(),
                core.len()
            );
            for (k, (&(hs, hv), &(cs, cv))) in host.iter().zip(core.iter()).enumerate() {
                assert_eq!(hs, cs, "fixture {name}: wake #{k} moved");
                assert_eq!(
                    hv.to_bits(),
                    cv.to_bits(),
                    "fixture {name}: wake #{k} (seq {hs}) bits diverged: {hv:?} vs {cv:?}"
                );
            }
            let digest = trace_digest(&core);
            let golden = golden_digest(name);
            assert_eq!(
                digest, golden,
                "fixture {name}: core digest {digest:#018x} != committed {golden:#018x}"
            );
        }
    });
}

/// Tolerance tier: the single-precision core holds the f64 reference's
/// wake schedule, values within the perf gate's f32 budget (DESIGN.md
/// §6h: 1e-3 relative, floored at an absolute scale of 1.0).
#[test]
fn f32_core_holds_the_wake_schedule_within_tolerance() {
    const F32_RELATIVE_TOLERANCE: f64 = 1e-3;
    with_big_stack(|| {
        for (name, text) in FIXTURES {
            let program: Program = text
                .parse()
                .unwrap_or_else(|e| panic!("fixture {name} does not parse: {e}"));
            let wide = host_trace::<f64>(&program);
            let narrow = mcu_trace::<f32>(&program);
            assert_eq!(
                wide.len(),
                narrow.len(),
                "fixture {name}: wake count diverged at f32"
            );
            for (k, (&(s64, v64), &(s32, v32))) in wide.iter().zip(narrow.iter()).enumerate() {
                assert_eq!(s64, s32, "fixture {name}: wake #{k} moved at f32");
                let scale = v64.abs().max(1.0);
                assert!(
                    (v64 - v32).abs() <= F32_RELATIVE_TOLERANCE * scale,
                    "fixture {name}: wake #{k} (seq {s64}) off at f32: {v64:.9} vs {v32:.9}"
                );
            }
        }
    });
}

/// Oversize regression: the certificate's capacity-class verdict is the
/// loader's. A fixture the certifier places past the default class
/// (music: two concurrent windows) really does overflow a default-arena
/// core — with a typed error naming the arena — and really does load on
/// the big class the certificate assigns. This keeps the suite honest
/// after the hardcoded 16k constant became certificate-derived.
#[test]
fn certificates_and_the_loader_agree_on_the_capacity_class() {
    with_big_stack(|| {
        let music: Program = include_str!("../../ir/tests/fixtures/music.swir")
            .parse()
            .unwrap();
        let cert = fixture_cert(&music);
        assert!(
            cert.required_capacity > DEFAULT_CORE,
            "music certifies at {} elements; expected past the default {DEFAULT_CORE}",
            cert.required_capacity
        );
        let image = compile_image(&music, &ChannelRates::default()).unwrap();
        let mut small: McuCore<f64, DEFAULT_CORE> = McuCore::new();
        match small.load(&image) {
            Err(McuExecError::ArenaOverflow { .. }) => {}
            other => panic!("undersized load should name the overflowing arena, got {other:?}"),
        }
        // The failed load is not sticky: the same core accepts a
        // program that fits its class.
        let steps: Program = include_str!("../../ir/tests/fixtures/steps.swir")
            .parse()
            .unwrap();
        let steps_image = compile_image(&steps, &ChannelRates::default()).unwrap();
        small
            .load(&steps_image)
            .expect("core is reusable after a failed load");
        let mut big: McuCore<f64, BIG_CORE> = McuCore::new();
        big.load(&image)
            .expect("the certified class loads the image");
    });
}

/// The single-precision core also matches the host's own f32 pipeline
/// bit for bit — the narrowing points are mirrored, not merely close.
#[test]
fn f32_core_is_bit_identical_to_the_host_f32_pipeline() {
    with_big_stack(|| {
        for (name, text) in FIXTURES {
            let program: Program = text
                .parse()
                .unwrap_or_else(|e| panic!("fixture {name} does not parse: {e}"));
            let host = host_trace::<f32>(&program);
            let core = mcu_trace::<f32>(&program);
            assert_eq!(host.len(), core.len(), "fixture {name}: f32 count diverged");
            for (k, (&(hs, hv), &(cs, cv))) in host.iter().zip(core.iter()).enumerate() {
                assert_eq!(hs, cs, "fixture {name}: f32 wake #{k} moved");
                assert_eq!(
                    hv.to_bits(),
                    cv.to_bits(),
                    "fixture {name}: f32 wake #{k} (seq {hs}) bits diverged"
                );
            }
        }
    });
}

/// Stretch lengths for the fixture stretch tier: empty and 1-sample
/// stretches, and stretches ending one before, on and one after the
/// fixtures' window boundaries.
const STRETCHES: [usize; 10] = [0, 1, 7, 511, 512, 513, 1, 2047, 3000, 64];

/// Stretch tier on the fixtures: fed through `push_samples` in uneven
/// stretches, the core's trace equals its per-sample trace bit for bit
/// at both precisions, and at f64 still hashes to the committed digest.
#[test]
fn core_stretches_match_the_per_sample_trace_on_all_fixtures() {
    with_big_stack(|| {
        for (name, text) in FIXTURES {
            let program: Program = text.parse().unwrap();
            let each = mcu_trace::<f64>(&program);
            let stretched = mcu_trace_split::<f64>(&program, &STRETCHES);
            assert_eq!(
                trace_digest(&stretched),
                golden_digest(name),
                "fixture {name}: stretched core left the committed digest"
            );
            assert_eq!(trace_digest(&stretched), trace_digest(&each), "{name}");
            let each = mcu_trace::<f32>(&program);
            let stretched = mcu_trace_split::<f32>(&program, &STRETCHES);
            assert_eq!(
                trace_digest(&stretched),
                trace_digest(&each),
                "{name} at f32"
            );
        }
    });
}

/// Wakes as `(seq, value bits)`, then the wake count.
type Outcome = (Vec<(u64, u64)>, u64);

/// A random window program fed in its stretches to the core and, as
/// the reference, to a host runtime with an enabled sink.
fn fill_outcomes<P: Sample>(case: &FillCase) -> (Outcome, Outcome) {
    let program = case.program();
    let rates = ChannelRates::default();
    let sink = CounterSink::with_nodes(program.nodes().count());
    let mut hub = HubRuntime::<_, P>::load_generic(&program, &rates, sink).unwrap();
    let mut host = Vec::new();
    case.feed(|channel, samples| {
        let raised = hub.push_samples(channel, samples).unwrap();
        host.extend(raised.iter().map(|w| (w.seq, w.value.to_bits())));
    });
    let mut core: Box<McuCore<P, DEFAULT_CORE>> = Box::new(McuCore::new());
    core.load(&compile_image(&program, &rates).unwrap())
        .unwrap();
    let mut wakes = Vec::new();
    case.feed(|channel, samples| {
        core.push_samples(channel.index() as u8, samples, &mut |w| {
            wakes.push((w.seq, w.value.to_bits()))
        })
        .unwrap();
    });
    ((wakes, core.wake_count()), (host, hub.wake_count()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stretch tier on random window programs, at both precisions.
    #[test]
    fn core_stretch_fill_matches_the_host_per_sample_pass(case in fill_case()) {
        let (core, host) = with_big_stack({
            let case = case.clone();
            move || fill_outcomes::<f64>(&case)
        });
        prop_assert_eq!(core, host, "{:?}", case);
        let (core, host) = with_big_stack({
            let case = case.clone();
            move || fill_outcomes::<f32>(&case)
        });
        prop_assert_eq!(core, host, "{:?} at f32", case);
    }
}
