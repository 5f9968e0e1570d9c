//! The Siren detector (paper §3.7.2).
//!
//! "Detects sirens originating from emergency vehicles. The application
//! applies a 750 Hz high-pass filter in order to remove a significant
//! portion of sounds that aren't sirens. The data in each window is
//! transformed to the frequency domain using a FFT in order to extract
//! the magnitude of the dominant frequency and the mean magnitude of all
//! frequency bins. The ratio … is used to determine if the window
//! contains pitched sounds. Pitched sounds between 850 Hz and 1800 Hz
//! that last longer than 650 ms are classified as sirens."
//!
//! The wake-up condition is the one application whose pipeline the MSP430
//! cannot run in real time; the power model charges the LM4F120 instead,
//! reproducing the paper's Table 2 footnote.

use crate::common::{hub_mw_for, visible_slice, windows_of};
use sidewinder_core::algorithm::{
    Fft, HighPassFilter, LowPassFilter, MinThreshold, SpectralMagnitude, Statistic, Sustained,
    Window,
};
use sidewinder_core::{ProcessingBranch, ProcessingPipeline};
use sidewinder_dsp::{fft, spectral, BandFilterPlan, BandShape, Complex, FftPlan};
use sidewinder_ir::Program;
use sidewinder_sensors::{EventKind, Micros, SensorChannel, SensorTrace};
use sidewinder_sim::Application;

/// Analysis window length in samples (128 ms at 8 kHz).
pub const WINDOW: usize = 1024;
/// The classifier's hop: windows overlap by half.
pub const HOP: usize = WINDOW / 2;
/// High-pass cut-off, Hz (paper value).
const HIGHPASS_HZ: f64 = 750.0;
/// Wake-up condition: peak spectral magnitude above the cut-off.
const WAKE_PEAK: f64 = 25.0;
/// Consecutive wake windows required: 6 × 128 ms = 768 ms ≥ 650 ms.
const WAKE_SUSTAIN: u32 = 6;
/// Classifier: minimum pitched duration, µs (paper: 650 ms).
const MIN_PITCHED_US: u64 = 650_000;
/// Classifier: accepted dominant-frequency band, Hz (paper: 850–1800,
/// with margin for spectral leakage).
const BAND_LO_HZ: f64 = 800.0;
const BAND_HI_HZ: f64 = 1_900.0;
/// Classifier: dominant-to-mean ratio for "pitched".
const PITCH_RATIO: f64 = 6.0;
/// Narrow-band variant: fixed-tone alarm band, Hz. Many regulated
/// alarm tones sit at a known frequency (the bench tone is 1 kHz), so
/// the wake-up condition only needs the spectral peak *inside* this
/// 40 Hz band — 5 FFT bins at 8 kHz / 1024 — not the whole spectrum.
const TONE_LO_HZ: f64 = 980.0;
const TONE_HI_HZ: f64 = 1_020.0;

/// The emergency-siren detector.
#[derive(Debug, Clone, Default)]
pub struct SirenDetectorApp {
    _private: (),
}

impl SirenDetectorApp {
    /// Creates the application.
    pub fn new() -> Self {
        SirenDetectorApp::default()
    }

    /// Wake-up condition: high-pass at 750 Hz, FFT, and wake when a
    /// strong spectral peak persists for six consecutive windows. The
    /// FFT stages push this pipeline beyond the MSP430's real-time
    /// capability.
    pub fn wake_pipeline() -> ProcessingPipeline {
        let mut pipeline = ProcessingPipeline::new();
        let mut mic = ProcessingBranch::new(SensorChannel::Mic);
        mic.add(Window::rectangular(WINDOW as u32))
            .add(HighPassFilter::new(HIGHPASS_HZ))
            .add(Fft::new())
            .add(SpectralMagnitude::new())
            .add(Statistic::max())
            .add(MinThreshold::new(WAKE_PEAK))
            .add(Sustained::new(WAKE_SUSTAIN));
        pipeline.add_branch(mic);
        pipeline
    }

    /// Narrow-band wake-up condition for fixed-tone alarms: band-pass
    /// the 40 Hz tone band, then wake on a sustained in-band spectral
    /// peak. Written the natural way — filters plus an FFT — it needs
    /// the LM4F120 like [`SirenDetectorApp::wake_pipeline`]; the
    /// optimizer's Goertzel strength reduction rewrites the whole
    /// spectral chain into 5 single-bin probes that fit the MSP430
    /// (see the `narrowband_*` tests).
    pub fn narrowband_wake_pipeline() -> ProcessingPipeline {
        let mut pipeline = ProcessingPipeline::new();
        let mut mic = ProcessingBranch::new(SensorChannel::Mic);
        mic.add(Window::rectangular(WINDOW as u32))
            .add(HighPassFilter::new(TONE_LO_HZ))
            .add(LowPassFilter::new(TONE_HI_HZ))
            .add(Fft::new())
            .add(SpectralMagnitude::new())
            .add(Statistic::max())
            .add(MinThreshold::new(WAKE_PEAK))
            .add(Sustained::new(WAKE_SUSTAIN));
        pipeline.add_branch(mic);
        pipeline
    }

    /// The narrow-band pipeline compiled to IR.
    pub fn narrowband_wake_condition() -> Program {
        SirenDetectorApp::narrowband_wake_pipeline()
            .compile()
            .expect("narrow-band siren pipeline is well-formed")
    }
}

/// The classifier's planned kernels and the buffers they fill: built
/// once per [`Application::classify`] call and reused by every window,
/// so a window costs a filter and an FFT but no allocation.
struct SirenScratch {
    /// The paper's 750 Hz high-pass at the trace's rate.
    highpass: BandFilterPlan,
    fft: FftPlan,
    spectrum: Vec<Complex>,
    filtered: Vec<f64>,
    magnitudes: Vec<f64>,
    rate: f64,
}

impl SirenScratch {
    fn new(rate: f64) -> SirenScratch {
        let shape = BandShape::HighPass {
            cutoff_hz: HIGHPASS_HZ,
        };
        SirenScratch {
            highpass: BandFilterPlan::new(WINDOW, shape, rate).expect("WINDOW is a power of two"),
            fft: FftPlan::new(WINDOW).expect("WINDOW is a power of two"),
            spectrum: Vec::with_capacity(WINDOW),
            filtered: Vec::with_capacity(WINDOW),
            magnitudes: Vec::with_capacity(WINDOW / 2 + 1),
            rate,
        }
    }

    /// Whether one `WINDOW`-sample window is a pitched sound in the
    /// siren band: high-pass, one-sided FFT magnitudes, then the
    /// dominant bin's frequency and its ratio to the mean.
    fn window_is_siren(&mut self, window: &[f64]) -> bool {
        self.highpass
            .filter_into(window, &mut self.spectrum, &mut self.filtered);
        self.fft
            .process_real_forward_into(&self.filtered, &mut self.spectrum);
        self.magnitudes.clear();
        self.magnitudes.extend(
            self.spectrum[..=window.len() / 2]
                .iter()
                .map(|z| z.magnitude()),
        );
        let mags = &self.magnitudes[1..];
        let Some(peak) = spectral::dominant_bin(mags) else {
            return false;
        };
        let freq = fft::bin_to_frequency(peak.bin + 1, window.len(), self.rate);
        let Some(ratio) = spectral::dominant_to_mean_ratio(mags) else {
            return false;
        };
        peak.magnitude > WAKE_PEAK
            && ratio > PITCH_RATIO
            && (BAND_LO_HZ..=BAND_HI_HZ).contains(&freq)
    }
}

impl Application for SirenDetectorApp {
    fn name(&self) -> &str {
        "sirens"
    }

    fn target_kinds(&self) -> Vec<EventKind> {
        vec![EventKind::Siren]
    }

    fn classify(&self, trace: &SensorTrace, start: Micros, end: Micros) -> Vec<Micros> {
        let Some((slice, first_index, rate)) = visible_slice(trace, SensorChannel::Mic, start, end)
        else {
            return Vec::new();
        };
        let hop = HOP;
        let mut scratch = SirenScratch::new(rate);
        let mut detections = Vec::new();
        let mut run_windows = 0usize;
        let mut reported = false;
        for (window, end_time) in windows_of(slice, first_index, rate, WINDOW, hop) {
            if scratch.window_is_siren(window) {
                run_windows += 1;
                let pitched_us =
                    (WINDOW + (run_windows - 1) * hop) as u64 * 1_000_000 / rate as u64;
                if pitched_us >= MIN_PITCHED_US && !reported {
                    detections.push(end_time);
                    reported = true;
                }
            } else {
                run_windows = 0;
                reported = false;
            }
        }
        detections
    }

    fn wake_condition(&self) -> Program {
        SirenDetectorApp::wake_pipeline()
            .compile()
            .expect("siren pipeline is well-formed")
    }

    fn wake_condition_hub_mw(&self) -> f64 {
        hub_mw_for(&self.wake_condition())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidewinder_hub::Mcu;
    use sidewinder_sensors::TimeSeries;

    /// 30 s at 8 kHz: quiet noise with a 1.2 kHz sweep-like siren from
    /// t=10 to t=14 and a short (0.4 s) pitched blip at t=20.
    fn siren_trace() -> SensorTrace {
        let rate = 8000.0;
        let n = 30 * 8000;
        let mut samples = Vec::with_capacity(n);
        let mut phase = 0.0f64;
        for i in 0..n {
            let t = i as f64 / rate;
            let mut v = 0.004 * ((i * 2_654_435_761 % 1000) as f64 / 500.0 - 1.0);
            if (10.0..14.0).contains(&t) || (20.0..20.4).contains(&t) {
                let freq = 1200.0 + 300.0 * (2.0 * std::f64::consts::PI * t / 3.0).sin();
                phase += freq / rate;
                v += 0.32 * (2.0 * std::f64::consts::PI * phase).sin();
            }
            samples.push(v);
        }
        let mut trace = SensorTrace::new("siren");
        trace.insert(
            SensorChannel::Mic,
            TimeSeries::from_samples(rate, samples).unwrap(),
        );
        trace
    }

    #[test]
    fn detects_the_long_siren_not_the_blip() {
        let app = SirenDetectorApp::new();
        let detections = app.classify(&siren_trace(), Micros::ZERO, Micros::from_secs(30));
        assert_eq!(detections.len(), 1, "{detections:?}");
        assert!(
            detections[0] >= Micros::from_millis(10_600)
                && detections[0] <= Micros::from_millis(12_500),
            "{:?}",
            detections[0]
        );
    }

    #[test]
    fn quiet_audio_yields_nothing() {
        let app = SirenDetectorApp::new();
        assert!(app
            .classify(&siren_trace(), Micros::ZERO, Micros::from_secs(9))
            .is_empty());
    }

    #[test]
    fn wake_condition_requires_the_lm4f120() {
        // Reproduces the Table 2 footnote: the siren condition's FFT
        // stages exceed the MSP430.
        let app = SirenDetectorApp::new();
        let program = app.wake_condition();
        program.validate().unwrap();
        assert!(program.uses_fft());
        assert_eq!(app.wake_condition_hub_mw(), Mcu::LM4F120.awake_power_mw);
    }

    /// 30 s at 8 kHz: quiet noise with a steady 1 kHz alarm tone (the
    /// center of the narrow band) from t=10 to t=14.
    fn tone_trace() -> SensorTrace {
        let rate = 8000.0;
        let n = 30 * 8000;
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64 / rate;
            let mut v = 0.004 * ((i * 2_654_435_761 % 1000) as f64 / 500.0 - 1.0);
            if (10.0..14.0).contains(&t) {
                v += 0.32 * (2.0 * std::f64::consts::PI * 1000.0 * t).sin();
            }
            samples.push(v);
        }
        let mut trace = SensorTrace::new("tone");
        trace.insert(
            SensorChannel::Mic,
            TimeSeries::from_samples(rate, samples).unwrap(),
        );
        trace
    }

    #[test]
    fn narrowband_condition_strength_reduces_to_goertzel() {
        use sidewinder_hub::runtime::ChannelRates;
        use sidewinder_opt::{optimize, EquivalenceTier, OptOptions};
        let program = SirenDetectorApp::narrowband_wake_condition();
        program.validate().unwrap();
        assert!(program.uses_fft(), "written naively, the condition FFTs");
        let (optimized, report) = optimize(
            &program,
            &ChannelRates::default(),
            &OptOptions::aggressive(),
        );
        assert_eq!(report.goertzel_rewrites, 1, "{}", report.summary());
        assert_eq!(report.tier, EquivalenceTier::TolerancePinned);
        assert!(optimized.validate().is_ok());
        assert!(!optimized.uses_fft(), "the spectral chain must be gone");
        // window + goertzel + minThreshold + sustained.
        assert_eq!(optimized.nodes().count(), 4);
        assert!(
            report.flops_after < report.flops_before / 2.0,
            "{} -> {}",
            report.flops_before,
            report.flops_after
        );
    }

    #[test]
    fn optimized_narrowband_fits_the_msp430() {
        use sidewinder_hub::runtime::ChannelRates;
        use sidewinder_opt::{optimize, OptOptions};
        let rates = ChannelRates::default();
        let program = SirenDetectorApp::narrowband_wake_condition();
        assert_eq!(Mcu::cheapest_for(&program, &rates).unwrap(), Mcu::LM4F120);
        let (optimized, _) = optimize(&program, &rates, &OptOptions::aggressive());
        // 5 Goertzel probes over a 1024-sample window at 8 kHz is
        // ~120 kflops/s, inside the MSP430's 256 kflop/s budget; the
        // hub idles at 3.6 mW instead of 49.4 mW.
        assert_eq!(Mcu::cheapest_for(&optimized, &rates).unwrap(), Mcu::MSP430);
        assert_eq!(hub_mw_for(&optimized), Mcu::MSP430.awake_power_mw);
    }

    #[test]
    fn narrowband_detection_parity_on_the_alarm_tone() {
        use sidewinder_hub::runtime::{ChannelRates, HubRuntime};
        use sidewinder_opt::{optimize, OptOptions};
        let program = SirenDetectorApp::narrowband_wake_condition();
        let (optimized, report) = optimize(
            &program,
            &ChannelRates::default(),
            &OptOptions::aggressive(),
        );
        assert_eq!(report.goertzel_rewrites, 1);

        let trace = tone_trace();
        let mic = trace.channel(SensorChannel::Mic).unwrap();
        let replay = |p: &Program| {
            let mut hub = HubRuntime::load(p, &ChannelRates::default()).unwrap();
            let mut wakes = Vec::new();
            for (i, &v) in mic.samples().iter().enumerate() {
                for wake in hub.push_sample(SensorChannel::Mic, v).unwrap() {
                    wakes.push((i, wake.seq, wake.value));
                }
            }
            wakes
        };
        let before = replay(&program);
        let after = replay(&optimized);
        assert!(!before.is_empty(), "the tone must trigger the wake");
        assert_eq!(before.len(), after.len(), "wake cadence diverges");
        for (&(i_a, seq_a, val_a), &(i_b, seq_b, val_b)) in before.iter().zip(after.iter()) {
            assert_eq!((i_a, seq_a), (i_b, seq_b), "wake timing diverges");
            assert!((10.0..14.5).contains(&(i_a as f64 / 8000.0)));
            let scale = val_a.abs().max(val_b.abs()).max(1.0);
            assert!(
                (val_a - val_b).abs() <= 1e-6 * scale,
                "in-band peak diverges: {val_a} vs {val_b}"
            );
        }
    }

    #[test]
    fn wake_condition_fires_during_the_siren() {
        use sidewinder_hub::runtime::{ChannelRates, HubRuntime};
        let trace = siren_trace();
        let app = SirenDetectorApp::new();
        let mut hub = HubRuntime::load(&app.wake_condition(), &ChannelRates::default()).unwrap();
        let mic = trace.channel(SensorChannel::Mic).unwrap();
        let mut wake_times = Vec::new();
        for (i, &v) in mic.samples().iter().enumerate() {
            if !hub.push_sample(SensorChannel::Mic, v).unwrap().is_empty() {
                wake_times.push(i as f64 / 8000.0);
            }
        }
        assert!(!wake_times.is_empty(), "the siren must trigger the wake");
        // All wakes within the long siren (the 0.4 s blip cannot sustain
        // 6 windows).
        for t in &wake_times {
            assert!((10.5..14.3).contains(t), "unexpected wake at {t}");
        }
    }
}
