//! Random window programs and stretch splits shared by the window-fill
//! equivalence suites (`window_fill.rs`, `mcu_equivalence.rs`).

use proptest::prelude::*;
use sidewinder_ir::Program;
use sidewinder_sensors::SensorChannel;

/// One generated case: 1–3 windows on the microphone beside a moving
/// average on `ACC_X`, all joined into `OUT`, and the stretches that
/// feed it.
#[derive(Debug, Clone)]
pub struct FillCase {
    /// `(len, hop, shape)` per window: power-of-two `len`, `hop` in
    /// `1..=len`, shape parameter 0–2.
    pub windows: Vec<(u32, u32, u8)>,
    /// `(channel, samples)` in push order, empty and 1-sample slices
    /// included.
    pub stretches: Vec<(SensorChannel, usize)>,
    /// Samples pushed one at a time on the microphone afterwards.
    pub tail: usize,
}

impl FillCase {
    /// The program: each window feeds a different reduction, and an
    /// `anyOf` join wakes on every emission of every branch.
    pub fn program(&self) -> Program {
        const REDUCTIONS: [&str; 3] = ["rms", "max", "variance"];
        let mut text = String::new();
        let mut joined = Vec::new();
        for (k, &(len, hop, shape)) in self.windows.iter().enumerate() {
            let (win, red) = (k + 1, k + 11);
            text += &format!("MIC -> window(id={win}, params={{{len}, {hop}, {shape}}});\n");
            text += &format!("{win} -> {}(id={red});\n", REDUCTIONS[k]);
            joined.push(red.to_string());
        }
        text += "ACC_X -> movingAvg(id=30, params={3});\n";
        joined.push("30".to_string());
        text += &format!("{} -> anyOf(id=40);\n40 -> OUT;\n", joined.join(","));
        text.parse().expect("generated program parses")
    }

    /// Hands `push` every stretch in order, then the tail one microphone
    /// sample at a time; each channel's samples continue its own
    /// [`signal`].
    pub fn feed(&self, mut push: impl FnMut(SensorChannel, &[f64])) {
        let mut next = [0usize; SensorChannel::COUNT];
        let mut samples = Vec::new();
        let tail = (0..self.tail).map(|_| (SensorChannel::Mic, 1));
        for (channel, n) in self.stretches.iter().copied().chain(tail) {
            let k = &mut next[channel.index()];
            samples.clear();
            samples.extend((*k..*k + n).map(|i| signal(channel, i)));
            *k += n;
            push(channel, &samples);
        }
    }
}

/// Sample `k` of a channel: a tone whose loudness steps every 300
/// samples, so windows see changing content.
pub fn signal(channel: SensorChannel, k: usize) -> f64 {
    let loud = if (k / 300).is_multiple_of(2) {
        1.0
    } else {
        0.05
    };
    (k as f64 * 0.37 + channel.index() as f64).sin() * loud
}

/// Window geometries, stretch splits and a tail.
pub fn fill_case() -> impl Strategy<Value = FillCase> {
    let windows = prop::collection::vec((0u32..8, 0u32..1024, 0u8..3), 1..4).prop_map(|ws| {
        ws.into_iter()
            .map(|(bits, hop, shape)| {
                let len = 1u32 << bits;
                (len, 1 + hop % len, shape)
            })
            .collect()
    });
    let stretches = prop::collection::vec((0u32..10, 0usize..400), 1..40).prop_map(|ss| {
        ss.into_iter()
            .map(|(kind, len)| match kind {
                0 => (SensorChannel::AccX, len % 8),
                1 => (SensorChannel::Mic, 0),
                2 => (SensorChannel::Mic, 1),
                _ => (SensorChannel::Mic, len),
            })
            .collect()
    });
    (windows, stretches, 0usize..300).prop_map(|(windows, stretches, tail)| FillCase {
        windows,
        stretches,
        tail,
    })
}
