//! Shared audio features for the music-journal and phrase-detection
//! applications (paper §3.7.2).
//!
//! Both applications window the microphone and extract two features per
//! window: the **variance of the amplitude** (an energy gate that rejects
//! quiet backgrounds) and the **variance of per-sub-window zero-crossing
//! rates** (speech alternates voiced and unvoiced segments and therefore
//! has high ZCR variance; music and other steady sounds do not). The two
//! applications differ only in how they threshold the second feature.

use sidewinder_dsp::{stats, zcr};

/// Window for the ZCR-variance feature and the main classifier (256 ms
/// at 8 kHz). It must span several speech phones — voiced and unvoiced
/// segments run 50–400 ms — or a window inside a single phone would
/// look spectrally steady and be mistaken for music.
pub const WINDOW: usize = 2048;
/// Window for the energy (variance) gate (64 ms at 8 kHz): loudness
/// needs no phone-level context, and the smaller buffer keeps the
/// two-branch condition inside the MSP430's SRAM.
pub const VAR_WINDOW: usize = 512;
/// Sub-windows for the ZCR-variance feature (32 ms each).
pub const ZCR_SPLIT: usize = 8;
/// Energy gate: amplitude variance separating events from backgrounds.
pub const VARIANCE_GATE: f64 = 0.002;
/// ZCR-variance split point: below = steady (music-like), above =
/// modulated (speech-like).
pub const ZCRVAR_SPLIT_POINT: f64 = 0.005;

/// The two features of one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AudioFeatures {
    /// Variance of the amplitude over the window.
    pub variance: f64,
    /// Variance of the per-sub-window zero-crossing rates.
    pub zcr_variance: f64,
}

impl AudioFeatures {
    /// Extracts both features; `None` for windows too short to split.
    /// The sub-window rates live on the stack, so a window costs no
    /// allocation.
    pub fn of(window: &[f64]) -> Option<AudioFeatures> {
        let mut rates = [0.0; ZCR_SPLIT];
        Some(AudioFeatures {
            variance: stats::variance(window)?,
            zcr_variance: zcr::zcr_variance_into(window, ZCR_SPLIT, &mut rates)?,
        })
    }

    /// Loud enough to be an event at all.
    pub fn is_loud(&self) -> bool {
        self.variance >= VARIANCE_GATE
    }

    /// Loud and spectrally steady — music-like.
    pub fn is_music_like(&self) -> bool {
        self.is_loud() && self.zcr_variance <= ZCRVAR_SPLIT_POINT
    }

    /// Loud and ZCR-modulated — speech-like.
    pub fn is_speech_like(&self) -> bool {
        self.is_loud() && self.zcr_variance >= ZCRVAR_SPLIT_POINT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, amp: f64) -> Vec<f64> {
        (0..WINDOW)
            .map(|i| amp * (2.0 * std::f64::consts::PI * freq * i as f64 / 8000.0).sin())
            .collect()
    }

    #[test]
    fn steady_tone_is_music_like() {
        let f = AudioFeatures::of(&tone(300.0, 0.2)).unwrap();
        assert!(f.is_loud());
        assert!(f.is_music_like());
        assert!(!f.is_speech_like());
    }

    #[test]
    fn quiet_noise_is_not_loud() {
        let window: Vec<f64> = (0..WINDOW)
            .map(|i| 0.004 * (((i * 37) % 100) as f64 / 50.0 - 1.0))
            .collect();
        let f = AudioFeatures::of(&window).unwrap();
        assert!(!f.is_loud());
        assert!(!f.is_music_like());
        assert!(!f.is_speech_like());
    }

    #[test]
    fn voiced_unvoiced_alternation_is_speech_like() {
        // Half low-frequency tone, half broadband alternation.
        let mut w = tone(150.0, 0.25);
        for (i, sample) in w.iter_mut().enumerate().skip(WINDOW / 2) {
            *sample = if i % 2 == 0 { 0.15 } else { -0.15 };
        }
        let f = AudioFeatures::of(&w).unwrap();
        assert!(f.is_loud());
        assert!(f.is_speech_like(), "zcr variance = {}", f.zcr_variance);
        assert!(!f.is_music_like());
    }

    #[test]
    fn short_windows_yield_none() {
        assert!(AudioFeatures::of(&[0.0; 3]).is_none());
        assert!(AudioFeatures::of(&[]).is_none());
    }
}
