//! The soundness harness: every certified bound dominates what a real
//! execution measures.
//!
//! For each golden fixture (and the fused-six suite), at both vector
//! precisions, the program is certified, compiled, loaded into a core
//! of the certificate's capacity class, and driven with a deterministic
//! sample schedule under [`HighWaterProbe`]. The measured side — staging
//! high-water marks and per-node emission counts — must sit at or under
//! the certified side. The arena carve needs no measuring: `load` places
//! its buffers with the same walk the certificate tallies. Tightness
//! ratios are printed so a loosening bound is visible in the test log
//! before it becomes a useless one.

use proptest::prelude::*;
use sidewinder_cert::{certify_program, emission_bound, CertTarget, Precision, ResourceCert};
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_hub::{compile_image, McuCore};
use sidewinder_ir::Program;
use sidewinder_lint::testing::{accel_program, arb_program, audio_program};
use sidewinder_mcu::image::MAX_CHANNELS;
use sidewinder_mcu::{ArenaKind, HighWaterProbe, Sample};

const FIXTURES: [(&str, &str); 6] = [
    (
        "headbutts",
        include_str!("../../ir/tests/fixtures/headbutts.swir"),
    ),
    ("steps", include_str!("../../ir/tests/fixtures/steps.swir")),
    (
        "sirens",
        include_str!("../../ir/tests/fixtures/sirens.swir"),
    ),
    (
        "transitions",
        include_str!("../../ir/tests/fixtures/transitions.swir"),
    ),
    ("music", include_str!("../../ir/tests/fixtures/music.swir")),
    (
        "phrase",
        include_str!("../../ir/tests/fixtures/phrase.swir"),
    ),
];

/// Capacity class every fixture (and the fused suite) fits.
const ARENA: usize = 16_384;

/// Samples per channel for the measured side — enough to cycle the
/// largest (2048-sample) windows several times.
const SAMPLES: usize = 8_192;

fn target() -> CertTarget {
    CertTarget {
        mcu: None,
        cap: ARENA,
    }
}

/// The equivalence suites' synthetic conformance input.
fn probe_sample(i: usize, ci: usize) -> f64 {
    let loud = (i / 2048) % 2 == 1;
    let step = if loud {
        1.3
    } else {
        1.3 + 0.8 * (i as f64 / 97.0).sin()
    };
    let phase = i as f64 * step + ci as f64 * 0.7;
    phase.sin() * if loud { 12.0 } else { 2.0 }
}

/// Runs `program` on a `P`-precision core under the high-water probe
/// and checks every measured mark against `cert`. Returns the worst
/// (largest) measured/certified emission ratio for the tightness log.
fn check_measured_bounds<P: Sample>(name: &str, program: &Program, cert: &ResourceCert) -> f64 {
    let image = compile_image(program, &ChannelRates::default())
        .unwrap_or_else(|e| panic!("{name}: compiles: {e}"));
    let mut core: McuCore<P, ARENA> = McuCore::new();
    core.load(&image)
        .unwrap_or_else(|e| panic!("{name}: loads: {e}"));

    let mut probe = HighWaterProbe::new();
    let mut pushes = [0u64; MAX_CHANNELS];
    let channels = program.channels();
    for i in 0..SAMPLES {
        for (ci, &channel) in channels.iter().enumerate() {
            core.push_sample_probed(
                channel.index() as u8,
                probe_sample(i, ci),
                &mut |_| {},
                &mut probe,
            )
            .unwrap_or_else(|e| panic!("{name}: executes: {e}"));
            pushes[channel.index()] += 1;
        }
    }

    let stage_sample = cert.arenas[ArenaKind::StageSample.index()].peak_elements;
    let stage_spectrum = cert.arenas[ArenaKind::StageSpectrum.index()].peak_elements;
    assert!(
        probe.stage_sample_peak <= stage_sample,
        "{name}: staged vector peak {} > certified {stage_sample}",
        probe.stage_sample_peak
    );
    assert!(
        probe.stage_spectrum_peak <= stage_spectrum,
        "{name}: staged spectrum peak {} > certified {stage_spectrum}",
        probe.stage_spectrum_peak
    );

    let mut worst_ratio = 0.0f64;
    for (node, &measured) in probe.emissions.iter().enumerate().take(cert.nodes.len()) {
        let bound = emission_bound(cert, node, &pushes);
        assert!(
            measured <= bound,
            "{name}: node {node} ({}) emitted {measured} > certified {bound}",
            cert.nodes[node].kind
        );
        if bound > 0 {
            worst_ratio = worst_ratio.max(measured as f64 / bound as f64);
        }
    }
    worst_ratio
}

/// Runs `f` on a thread with stack room for a 16k-class core (~1 MiB of
/// arenas), propagating any panic so assertion failures still fail the
/// owning test or proptest case.
fn with_big_stack<F: FnOnce() + Send>(f: F) {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn_scoped(scope, f)
            .expect("spawn soundness thread")
            .join()
    })
    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
}

fn certified(name: &str, program: &Program, precision: Precision) -> ResourceCert {
    let cert = certify_program(program, &ChannelRates::default(), precision, &target())
        .unwrap_or_else(|e| panic!("{name}: certifies: {e}"));
    assert!(cert.fits_cap, "{name}: does not fit the {ARENA} class");
    cert
}

#[test]
fn measured_marks_never_exceed_certified_bounds_on_the_fixtures() {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            for (name, text) in FIXTURES {
                let program: Program = text.parse().unwrap();
                let c64 = certified(name, &program, Precision::F64);
                let r64 = check_measured_bounds::<f64>(name, &program, &c64);
                let c32 = certified(name, &program, Precision::F32);
                let r32 = check_measured_bounds::<f32>(name, &program, &c32);
                println!(
                    "tightness {name}: required {} elements, worst emission ratio \
                     f64 {r64:.3} f32 {r32:.3}",
                    c64.required_capacity
                );
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn the_fused_six_suite_is_certified_and_sound() {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            let programs: Vec<Program> = FIXTURES.iter().map(|(_, t)| t.parse().unwrap()).collect();
            let fused = sidewinder_opt::fuse_programs(&programs);
            let (optimized, _) = sidewinder_opt::optimize(
                &fused,
                &ChannelRates::default(),
                &sidewinder_opt::OptOptions::aggressive(),
            );
            let cert = certified("fused_all_six", &optimized, Precision::F64);
            let ratio = check_measured_bounds::<f64>("fused_all_six", &optimized, &cert);
            println!(
                "tightness fused_all_six: required {} elements, worst emission ratio {ratio:.3}",
                cert.required_capacity
            );
        })
        .unwrap()
        .join()
        .unwrap();
}

/// The acceptance criterion the conformance suites used to hardcode:
/// the music and phrase conditions genuinely need the 16k-element core
/// class — their certificates place them past the default 4096 arena
/// but inside 16384. The certificate now *derives* the constant the
/// tests used to assert.
#[test]
fn music_and_phrase_certificates_reproduce_the_16k_requirement() {
    for name in ["music", "phrase"] {
        let text = FIXTURES.iter().find(|(n, _)| *n == name).unwrap().1;
        let program: Program = text.parse().unwrap();
        let cert = certified(name, &program, Precision::F64);
        assert!(
            cert.required_capacity > sidewinder_mcu::DEFAULT_ARENA,
            "{name}: certified at {} elements, expected past the default arena",
            cert.required_capacity
        );
        assert!(cert.required_capacity <= 16_384, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Totality: certification never panics on generated programs, and
    /// certifiability does not depend on precision.
    #[test]
    fn certification_is_total_on_generated_programs(program in arb_program()) {
        let rates = ChannelRates::default();
        let c64 = certify_program(&program, &rates, Precision::F64, &target());
        let c32 = certify_program(&program, &rates, Precision::F32, &target());
        prop_assert_eq!(c64.is_ok(), c32.is_ok());
    }

    /// Soundness on the generated corpus: whenever a generated program
    /// certifies and fits, the measured marks obey the bounds.
    #[test]
    fn generated_accel_programs_are_sound(program in accel_program()) {
        if let Ok(cert) = certify_program(&program, &ChannelRates::default(), Precision::F64, &target()) {
            if cert.fits_cap {
                with_big_stack(|| { check_measured_bounds::<f64>("accel", &program, &cert); });
            }
        }
    }

    /// Audio generators exercise the windowed/spectral staging paths.
    #[test]
    fn generated_audio_programs_are_sound(program in audio_program()) {
        if let Ok(cert) = certify_program(&program, &ChannelRates::default(), Precision::F64, &target()) {
            if cert.fits_cap {
                with_big_stack(|| { check_measured_bounds::<f64>("audio", &program, &cert); });
            }
        }
    }
}
