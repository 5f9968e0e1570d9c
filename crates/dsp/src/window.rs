//! Window functions and streaming windowers.
//!
//! The paper's hub provides "Partitioning sensor data into rectangular or
//! Hamming windows" (§3.6). [`WindowShape`] carries the taper and lives in
//! `sidewinder-mcu` (the on-device interpreter applies it too); this module
//! re-exports it and adds [`Windower`], the streaming partitioner the host
//! hub runtime uses: it accumulates samples and emits a tapered window
//! every `hop` samples.

use crate::sample::Sample;

pub use sidewinder_mcu::window::WindowShape;

/// A streaming window partitioner.
///
/// Feed samples one at a time with [`Windower::push`]; every `hop` samples
/// (after the first full window) it returns a tapered window of the most
/// recent `len` samples. With `hop == len` windows do not overlap, matching
/// the paper's description of partitioning.
///
/// The sample precision is generic: `Windower<f64>` (the default) is the
/// host-exact configuration, `Windower<f32>` stores the ring buffer at the
/// width the paper's hub MCUs actually use.
///
/// # Example
///
/// ```
/// use sidewinder_dsp::window::{Windower, WindowShape};
///
/// let mut w = Windower::new(4, 4, WindowShape::Rectangular)?;
/// let mut emitted = Vec::new();
/// for i in 0..8 {
///     if let Some(win) = w.push(i as f64) {
///         emitted.push(win);
///     }
/// }
/// assert_eq!(emitted, vec![vec![0.0, 1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0, 7.0]]);
/// # Ok::<(), sidewinder_dsp::window::InvalidWindowError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Windower<P: Sample = f64> {
    len: usize,
    hop: usize,
    shape: WindowShape,
    /// Taper coefficients tabulated once at construction; emission applies
    /// them with a multiply per sample instead of recomputing the cosine.
    coeffs: Vec<P>,
    buf: std::collections::VecDeque<P>,
    since_emit: usize,
    primed: bool,
}

/// Error returned by [`Windower::new`] for degenerate window geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidWindowError {
    /// Requested window length.
    pub len: usize,
    /// Requested hop.
    pub hop: usize,
}

impl std::fmt::Display for InvalidWindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid window geometry: len={}, hop={} (both must be non-zero and hop <= len)",
            self.len, self.hop
        )
    }
}

impl std::error::Error for InvalidWindowError {}

impl<P: Sample> Windower<P> {
    /// Creates a windower emitting `len`-sample windows every `hop` samples.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidWindowError`] if `len` or `hop` is zero, or if
    /// `hop > len` (which would silently drop samples).
    pub fn new(len: usize, hop: usize, shape: WindowShape) -> Result<Self, InvalidWindowError> {
        if len == 0 || hop == 0 || hop > len {
            return Err(InvalidWindowError { len, hop });
        }
        Ok(Windower {
            len,
            hop,
            shape,
            coeffs: shape.coefficients_in(len),
            buf: std::collections::VecDeque::with_capacity(len + 1),
            since_emit: 0,
            primed: false,
        })
    }

    /// Convenience constructor for non-overlapping windows (`hop == len`).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidWindowError`] if `len` is zero.
    pub fn non_overlapping(len: usize, shape: WindowShape) -> Result<Self, InvalidWindowError> {
        Windower::new(len, len, shape)
    }

    /// The window length in samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no samples have been buffered yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The hop (stride) between emitted windows in samples.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// The taper shape applied to emitted windows.
    pub fn shape(&self) -> WindowShape {
        self.shape
    }

    /// Pushes one sample; returns a tapered window when one completes.
    pub fn push(&mut self, sample: P) -> Option<Vec<P>> {
        let mut window = Vec::new();
        self.push_into(sample, &mut window).then_some(window)
    }

    /// Pushes one sample; when a window completes, writes the tapered
    /// window into `out` (cleared first) and returns `true`.
    ///
    /// This is the allocation-free form of [`Windower::push`]: once `out`
    /// has grown to the window length, steady-state emissions reuse its
    /// storage.
    pub fn push_into(&mut self, sample: P, out: &mut Vec<P>) -> bool {
        if self.hop == self.len {
            // Non-overlapping windows partition the stream, so accumulate
            // and flush: no per-sample pop, no emission bookkeeping. The
            // emitted windows are identical to the sliding path's.
            self.buf.push_back(sample);
            if self.buf.len() < self.len {
                return false;
            }
            self.emit_into(out);
            self.buf.clear();
            return true;
        }
        if self.buf.len() == self.len {
            self.buf.pop_front();
        }
        self.buf.push_back(sample);
        if self.buf.len() < self.len {
            return false;
        }
        let emit = if !self.primed {
            self.primed = true;
            self.since_emit = 0;
            true
        } else {
            self.since_emit += 1;
            if self.since_emit == self.hop {
                self.since_emit = 0;
                true
            } else {
                false
            }
        };
        if emit {
            self.emit_into(out);
        }
        emit
    }

    /// How many more samples the windower can take before one of them
    /// completes a window ([`sidewinder_mcu::window::quiet_len`] over
    /// this ring's state).
    pub fn quiet_len(&self) -> usize {
        sidewinder_mcu::window::quiet_len(
            self.len,
            self.hop,
            self.buf.len(),
            self.primed,
            self.since_emit,
        )
    }

    /// Pushes samples none of which completes a window: the same ring
    /// state as pushing each with [`Windower::push_into`], without the
    /// per-sample emission checks.
    ///
    /// # Panics
    ///
    /// Panics if `samples` holds more than [`Windower::quiet_len`]
    /// samples.
    pub fn push_quiet(&mut self, samples: impl ExactSizeIterator<Item = P>) {
        let n = samples.len();
        assert!(n <= self.quiet_len(), "{n} samples would complete a window");
        if self.hop != self.len && self.primed {
            // A primed sliding ring is full: each sample drops the oldest.
            self.buf.drain(..n);
            self.since_emit += n;
        }
        self.buf.extend(samples);
    }

    /// Copies the buffered window into `out` (cleared first) and applies
    /// the taper. Rectangular windows skip the multiply pass: every
    /// coefficient is exactly 1, so the copy already is the emission.
    fn emit_into(&self, out: &mut Vec<P>) {
        let (front, back) = self.buf.as_slices();
        out.clear();
        out.extend_from_slice(front);
        out.extend_from_slice(back);
        if self.shape != WindowShape::Rectangular {
            for (x, c) in out.iter_mut().zip(&self.coeffs) {
                *x = *x * *c;
            }
        }
    }

    /// Clears buffered samples, restarting window accumulation.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.since_emit = 0;
        self.primed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_coefficients_are_unity() {
        assert_eq!(WindowShape::Rectangular.coefficients(8), vec![1.0; 8]);
    }

    #[test]
    fn hamming_endpoints_and_peak() {
        let c = WindowShape::Hamming.coefficients(11);
        assert!((c[0] - 0.08).abs() < 1e-12);
        assert!((c[10] - 0.08).abs() < 1e-12);
        assert!((c[5] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hann_endpoints_are_zero() {
        let c = WindowShape::Hann.coefficients(9);
        assert!(c[0].abs() < 1e-12);
        assert!(c[8].abs() < 1e-12);
        assert!((c[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_are_symmetric() {
        for shape in [WindowShape::Hamming, WindowShape::Hann] {
            let c = shape.coefficients(16);
            for i in 0..8 {
                assert!(
                    (c[i] - c[15 - i]).abs() < 1e-12,
                    "{shape} asymmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn length_one_window_is_identity() {
        for shape in [
            WindowShape::Rectangular,
            WindowShape::Hamming,
            WindowShape::Hann,
        ] {
            assert_eq!(shape.coefficients(1), vec![1.0]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coefficient_out_of_range_panics() {
        WindowShape::Hamming.coefficient(5, 5);
    }

    #[test]
    fn apply_scales_signal() {
        let signal = vec![2.0; 4];
        let windowed = WindowShape::Hamming.apply(&signal);
        let coeffs = WindowShape::Hamming.coefficients(4);
        for i in 0..4 {
            assert!((windowed[i] - 2.0 * coeffs[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_is_bit_identical_to_per_element_products() {
        // The cache must never change the products — pin bit equality
        // across shape and length switches (which thrash the one-entry
        // cache on purpose).
        let signal: Vec<f64> = (0..37).map(|i| ((i as f64) * 1.3).sin() * 2.0).collect();
        for shape in [
            WindowShape::Hamming,
            WindowShape::Hann,
            WindowShape::Hamming,
        ] {
            for n in [37, 16, 37] {
                let windowed = shape.apply(&signal[..n]);
                for (i, (&got, &x)) in windowed.iter().zip(&signal).enumerate() {
                    assert_eq!(got.to_bits(), (x * shape.coefficient(i, n)).to_bits());
                }
            }
        }
    }

    #[test]
    fn f32_apply_narrows_coefficients_per_element() {
        let signal = vec![1.0f32; 8];
        let windowed = WindowShape::Hann.apply(&signal);
        for (i, &got) in windowed.iter().enumerate() {
            assert_eq!(got, WindowShape::Hann.coefficient(i, 8) as f32);
        }
    }

    #[test]
    fn windower_rejects_degenerate_geometry() {
        assert!(Windower::<f64>::new(0, 1, WindowShape::Rectangular).is_err());
        assert!(Windower::<f64>::new(4, 0, WindowShape::Rectangular).is_err());
        assert!(Windower::<f64>::new(4, 5, WindowShape::Rectangular).is_err());
        let err = Windower::<f64>::new(4, 5, WindowShape::Rectangular).unwrap_err();
        assert!(err.to_string().contains("len=4"));
    }

    #[test]
    fn non_overlapping_partitions_exactly() {
        let mut w = Windower::non_overlapping(3, WindowShape::Rectangular).unwrap();
        let mut out = Vec::new();
        for i in 0..9 {
            if let Some(win) = w.push(i as f64) {
                out.push(win);
            }
        }
        assert_eq!(
            out,
            vec![
                vec![0.0, 1.0, 2.0],
                vec![3.0, 4.0, 5.0],
                vec![6.0, 7.0, 8.0]
            ]
        );
    }

    #[test]
    fn overlapping_windows_slide_by_hop() {
        let mut w = Windower::new(4, 2, WindowShape::Rectangular).unwrap();
        let mut out = Vec::new();
        for i in 0..8 {
            if let Some(win) = w.push(i as f64) {
                out.push(win);
            }
        }
        assert_eq!(
            out,
            vec![
                vec![0.0, 1.0, 2.0, 3.0],
                vec![2.0, 3.0, 4.0, 5.0],
                vec![4.0, 5.0, 6.0, 7.0]
            ]
        );
    }

    #[test]
    fn quiet_len_counts_the_samples_before_the_next_window() {
        // Before every push, `quiet_len` samples fill without emitting
        // and the one after them emits — for partitioning and sliding
        // geometries, before and after priming.
        for (len, hop) in [(1, 1), (4, 4), (8, 1), (8, 3), (8, 8), (16, 5)] {
            let mut w = Windower::<f64>::new(len, hop, WindowShape::Rectangular).unwrap();
            let mut out = Vec::new();
            let mut i = 0.0;
            for _ in 0..4 * len {
                for _ in 0..w.quiet_len() {
                    assert!(!w.push_into(i, &mut out), "len {len} hop {hop}");
                    i += 1.0;
                }
                assert!(w.push_into(i, &mut out), "len {len} hop {hop}");
                i += 1.0;
            }
        }
    }

    #[test]
    fn push_quiet_matches_pushing_each_sample() {
        for (len, hop) in [(4, 4), (8, 3), (8, 1), (16, 16), (16, 7)] {
            let mut bulk = Windower::<f32>::new(len, hop, WindowShape::Hamming).unwrap();
            let mut each = bulk.clone();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let signal: Vec<f32> = (0..200).map(|k| (k as f32 * 0.3).sin()).collect();
            let mut rest = &signal[..];
            while !rest.is_empty() {
                let n = bulk.quiet_len().min(rest.len());
                bulk.push_quiet(rest[..n].iter().copied());
                for &x in &rest[..n] {
                    assert!(!each.push_into(x, &mut b));
                }
                rest = &rest[n..];
                if let Some((&x, tail)) = rest.split_first() {
                    assert_eq!(bulk.push_into(x, &mut a), each.push_into(x, &mut b));
                    assert_eq!(a, b, "len {len} hop {hop}");
                    rest = tail;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "would complete a window")]
    fn push_quiet_rejects_an_emitting_sample() {
        let mut w = Windower::<f64>::non_overlapping(4, WindowShape::Rectangular).unwrap();
        w.push_quiet([1.0, 2.0, 3.0, 4.0].into_iter());
    }

    #[test]
    fn reset_restarts_accumulation() {
        let mut w = Windower::non_overlapping(2, WindowShape::Rectangular).unwrap();
        assert!(w.push(1.0).is_none());
        w.reset();
        assert!(w.is_empty());
        assert!(w.push(2.0).is_none());
        assert_eq!(w.push(3.0), Some(vec![2.0, 3.0]));
    }

    #[test]
    fn accessors_report_geometry() {
        let w = Windower::<f64>::new(8, 4, WindowShape::Hamming).unwrap();
        assert_eq!(w.len(), 8);
        assert_eq!(w.hop(), 4);
        assert_eq!(w.shape(), WindowShape::Hamming);
    }

    #[test]
    fn tapered_stream_windows_match_apply() {
        let mut w = Windower::non_overlapping(4, WindowShape::Hamming).unwrap();
        let signal = [1.0, -2.0, 3.0, 0.5];
        let mut emitted = None;
        for &s in &signal {
            if let Some(win) = w.push(s) {
                emitted = Some(win);
            }
        }
        assert_eq!(emitted.unwrap(), WindowShape::Hamming.apply(&signal));
    }

    #[test]
    fn f32_windower_streams_at_single_precision() {
        let mut w = Windower::<f32>::non_overlapping(4, WindowShape::Hamming).unwrap();
        let signal = [1.0f32, -2.0, 3.0, 0.5];
        let mut emitted = None;
        for &s in &signal {
            if let Some(win) = w.push(s) {
                emitted = Some(win);
            }
        }
        assert_eq!(emitted.unwrap(), WindowShape::Hamming.apply(&signal));
    }
}
