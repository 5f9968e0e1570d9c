//! Executable algorithm instances.
//!
//! Following the paper's runtime design (§3.5–3.6), each IR node becomes an
//! instance owning its own data structure: the node id, its algorithm
//! state, and a result slot guarded by a `has result` flag. The
//! interpreter invokes [`AlgoInstance::feed`] with incoming values and then
//! polls [`AlgoInstance::take_result`] — the flag is needed because "some
//! algorithms may not always produce a result": a moving average is silent
//! until its window fills, and a threshold only produces a result when it
//! is met.

use crate::value::{Tagged, ValueRef};
use sidewinder_dsp::filter::{BandFilterPlan, BandShape, ExponentialMovingAverage, MovingAverage};
use sidewinder_dsp::window::{WindowShape, Windower};
use sidewinder_dsp::{fft, goertzel, spectral, stats, zcr, Complex, FftPlan, Sample};
use sidewinder_ir::{AlgorithmKind, NodeId, StatFn, WindowShapeParam};

/// An execution-time failure inside an algorithm instance.
///
/// These defects cannot be caught by static validation because they depend
/// on value *lengths* that only exist at run time (e.g. feeding a
/// 129-point magnitude vector into an FFT-based filter).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A transform stage received a window whose length is not a power of
    /// two.
    BadTransformLength {
        /// The node that failed.
        id: NodeId,
        /// The offending window length.
        len: usize,
    },
    /// An instance received a value of the wrong type — indicates the
    /// program was not validated before loading.
    TypeError {
        /// The node that failed.
        id: NodeId,
    },
    /// An instance received input on a port it does not have.
    BadPort {
        /// The node that failed.
        id: NodeId,
        /// The offending port index.
        port: usize,
    },
    /// An algorithm parameter that static validation should have rejected
    /// reached instantiation — the shape a corrupted program re-download
    /// produces if it slips past the parser.
    BadParameter {
        /// The node that failed.
        id: NodeId,
        /// What is wrong with the parameter.
        what: &'static str,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::BadTransformLength { id, len } => {
                write!(f, "node {id}: window length {len} is not a power of two")
            }
            ExecError::TypeError { id } => {
                write!(f, "node {id}: received a value of the wrong type")
            }
            ExecError::BadPort { id, port } => {
                write!(f, "node {id}: no input port {port}")
            }
            ExecError::BadParameter { id, what } => {
                write!(f, "node {id}: invalid parameter: {what}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Per-kind mutable algorithm state.
///
/// Generic over the vector sample precision `P`: windows buffer and
/// reduce at `P`, while scalar state (thresholds, joins, averages of
/// scalar features) stays `f64` — see [`crate::value::Value`].
#[derive(Debug, Clone)]
enum AlgoState<P: Sample> {
    Window(Windower<P>),
    Fft {
        /// Cached transform plan, rebuilt only when the window length
        /// changes (in practice: built once on the first window).
        plan: Option<FftPlan>,
    },
    Ifft {
        plan: Option<FftPlan>,
    },
    SpectralMagnitude,
    MovingAvg(MovingAverage),
    ExpMovingAvg(ExponentialMovingAverage),
    LowPass {
        cutoff_hz: f64,
        rate_hz: f64,
        plan: Option<BandFilterPlan>,
    },
    HighPass {
        cutoff_hz: f64,
        rate_hz: f64,
        plan: Option<BandFilterPlan>,
    },
    /// AND-join across ports computing the Euclidean norm; emits when
    /// every port holds a value derived from the same source samples
    /// (equal sequence tags).
    VectorMagnitude {
        latest: Vec<Option<(u64, f64)>>,
    },
    Zcr,
    /// One reusable slot per sub-window for the per-window rates.
    ZcrVariance {
        rates: Vec<P>,
    },
    Stat(StatFn),
    DominantRatio,
    DominantFreq {
        rate_hz: f64,
    },
    /// Narrow-band spectral probe: max Goertzel magnitude over the DFT
    /// bins of the incoming window whose center frequency falls in
    /// `[lo_hz, hi_hz]`. The probe frequency list is cached per window
    /// length so steady-state feeds never allocate.
    Goertzel {
        lo_hz: f64,
        hi_hz: f64,
        rate_hz: f64,
        planned_len: usize,
        probes: Vec<f64>,
    },
    /// Like [`AlgoState::Goertzel`], but reporting the *frequency* of the
    /// strongest in-band probe — the strength-reduced `dominantFreq`
    /// consumer. The probe grid skips DC, as the replaced chain does.
    GoertzelFreq {
        lo_hz: f64,
        hi_hz: f64,
        rate_hz: f64,
        planned_len: usize,
        probes: Vec<f64>,
    },
    /// Like [`AlgoState::Goertzel`], but reporting the peak-to-mean
    /// magnitude ratio the replaced `dominantRatio` chain computes; the
    /// mean's denominator is the full non-DC bin count, since out-of-band
    /// bins of the filtered spectrum carry only rounding residue.
    GoertzelRatio {
        lo_hz: f64,
        hi_hz: f64,
        rate_hz: f64,
        planned_len: usize,
        probes: Vec<f64>,
    },
    MinThreshold {
        threshold: f64,
    },
    MaxThreshold {
        threshold: f64,
    },
    BandThreshold {
        lo: f64,
        hi: f64,
    },
    OutsideThreshold {
        lo: f64,
        hi: f64,
    },
    Sustained {
        count: u32,
        max_gap: u64,
        streak: u32,
        last_seq: Option<u64>,
    },
    AllOf {
        latest: Vec<Option<(u64, f64)>>,
    },
    AnyOf,
}

/// The kind of value currently held by a [`ResultSlot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum SlotKind {
    #[default]
    Empty,
    Scalar,
    Vector,
    Spectrum,
}

/// The paper's per-node result + `hasResult` flag, with owned storage that
/// is reused across emissions: clearing the slot resets only the kind tag,
/// so the vector/spectrum buffers keep their capacity and steady-state
/// emissions write in place without allocating.
#[derive(Debug, Clone, Default)]
struct ResultSlot<P: Sample> {
    kind: SlotKind,
    seq: u64,
    scalar: f64,
    vector: Vec<P>,
    spectrum: Vec<Complex>,
    /// Widening scratch presenting a `P` window to the f64-only FFT
    /// kernels; never touched when `P = f64` (the window is borrowed
    /// straight through).
    wide_in: Vec<f64>,
    /// Narrowing scratch collecting f64 filter output back into `P`;
    /// never touched when `P = f64`.
    wide_out: Vec<f64>,
}

impl<P: Sample> ResultSlot<P> {
    fn set_scalar(&mut self, seq: u64, x: f64) {
        self.kind = SlotKind::Scalar;
        self.seq = seq;
        self.scalar = x;
    }
}

/// One executable node: the paper's per-algorithm data structure.
///
/// Generic over the vector sample precision `P` (default `f64`); see
/// [`crate::value::Value`] for the precision model.
#[derive(Debug, Clone)]
pub struct AlgoInstance<P: Sample = f64> {
    id: NodeId,
    state: AlgoState<P>,
    out: ResultSlot<P>,
}

impl<P: Sample> AlgoInstance<P> {
    /// Instantiates an algorithm.
    ///
    /// `ports` is the number of input edges (only aggregators use more
    /// than one) and `rate_hz` the sample rate of the data arriving on the
    /// node's input path, needed by frequency-aware stages.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BadParameter`] when an algorithm parameter is
    /// unusable (zero-size window, out-of-range smoothing factor).
    /// Validation rejects these statically, but a malformed program that
    /// bypasses validation must surface an error here, not panic the hub.
    pub fn new(
        id: NodeId,
        kind: &AlgorithmKind,
        ports: usize,
        rate_hz: f64,
    ) -> Result<Self, ExecError> {
        let state = match *kind {
            AlgorithmKind::Window { size, hop, shape } => AlgoState::Window(
                Windower::new(size as usize, hop as usize, convert_shape(shape)).map_err(|_| {
                    ExecError::BadParameter {
                        id,
                        what: "window size and hop must be positive",
                    }
                })?,
            ),
            AlgorithmKind::Fft => AlgoState::Fft { plan: None },
            AlgorithmKind::Ifft => AlgoState::Ifft { plan: None },
            AlgorithmKind::SpectralMagnitude => AlgoState::SpectralMagnitude,
            AlgorithmKind::MovingAvg { window } => {
                AlgoState::MovingAvg(MovingAverage::new(window as usize).map_err(|_| {
                    ExecError::BadParameter {
                        id,
                        what: "moving-average window must be positive",
                    }
                })?)
            }
            AlgorithmKind::ExpMovingAvg { alpha } => {
                AlgoState::ExpMovingAvg(ExponentialMovingAverage::new(alpha).map_err(|_| {
                    ExecError::BadParameter {
                        id,
                        what: "smoothing factor must be in (0, 1]",
                    }
                })?)
            }
            AlgorithmKind::LowPass { cutoff_hz } => AlgoState::LowPass {
                cutoff_hz,
                rate_hz,
                plan: None,
            },
            AlgorithmKind::HighPass { cutoff_hz } => AlgoState::HighPass {
                cutoff_hz,
                rate_hz,
                plan: None,
            },
            AlgorithmKind::VectorMagnitude => AlgoState::VectorMagnitude {
                latest: vec![None; ports],
            },
            AlgorithmKind::Zcr => AlgoState::Zcr,
            AlgorithmKind::ZcrVariance { sub_windows } => AlgoState::ZcrVariance {
                rates: vec![P::ZERO; sub_windows as usize],
            },
            AlgorithmKind::Stat(s) => AlgoState::Stat(s),
            AlgorithmKind::DominantRatio => AlgoState::DominantRatio,
            AlgorithmKind::DominantFreq => AlgoState::DominantFreq { rate_hz },
            AlgorithmKind::Goertzel { lo_hz, hi_hz } => {
                if !(lo_hz.is_finite() && hi_hz.is_finite() && 0.0 <= lo_hz && lo_hz <= hi_hz) {
                    return Err(ExecError::BadParameter {
                        id,
                        what: "goertzel band must be finite with 0 <= lo <= hi",
                    });
                }
                AlgoState::Goertzel {
                    lo_hz,
                    hi_hz,
                    rate_hz,
                    // Sentinel: no window length planned yet.
                    planned_len: usize::MAX,
                    probes: Vec::new(),
                }
            }
            AlgorithmKind::GoertzelFreq { lo_hz, hi_hz } => {
                if !(lo_hz.is_finite() && hi_hz.is_finite() && 0.0 <= lo_hz && lo_hz <= hi_hz) {
                    return Err(ExecError::BadParameter {
                        id,
                        what: "goertzel band must be finite with 0 <= lo <= hi",
                    });
                }
                AlgoState::GoertzelFreq {
                    lo_hz,
                    hi_hz,
                    rate_hz,
                    planned_len: usize::MAX,
                    probes: Vec::new(),
                }
            }
            AlgorithmKind::GoertzelRatio { lo_hz, hi_hz } => {
                if !(lo_hz.is_finite() && hi_hz.is_finite() && 0.0 <= lo_hz && lo_hz <= hi_hz) {
                    return Err(ExecError::BadParameter {
                        id,
                        what: "goertzel band must be finite with 0 <= lo <= hi",
                    });
                }
                AlgoState::GoertzelRatio {
                    lo_hz,
                    hi_hz,
                    rate_hz,
                    planned_len: usize::MAX,
                    probes: Vec::new(),
                }
            }
            AlgorithmKind::MinThreshold { threshold } => AlgoState::MinThreshold { threshold },
            AlgorithmKind::MaxThreshold { threshold } => AlgoState::MaxThreshold { threshold },
            AlgorithmKind::BandThreshold { lo, hi } => AlgoState::BandThreshold { lo, hi },
            AlgorithmKind::OutsideThreshold { lo, hi } => AlgoState::OutsideThreshold { lo, hi },
            AlgorithmKind::Sustained { count, max_gap } => AlgoState::Sustained {
                count,
                max_gap: max_gap as u64,
                streak: 0,
                last_seq: None,
            },
            AlgorithmKind::AllOf => AlgoState::AllOf {
                latest: vec![None; ports],
            },
            AlgorithmKind::AnyOf => AlgoState::AnyOf,
        };
        Ok(AlgoInstance {
            id,
            state,
            out: ResultSlot::default(),
        })
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether a result is waiting to be collected — the paper's
    /// `hasResult` flag.
    pub fn has_result(&self) -> bool {
        self.out.kind != SlotKind::Empty
    }

    /// Clears the `hasResult` flag without touching the slot's storage,
    /// so the next emission reuses the buffers. The interpreter calls this
    /// on a node before feeding it, replacing the take-per-pass pattern.
    pub fn clear_result(&mut self) {
        self.out.kind = SlotKind::Empty;
    }

    /// How many samples a window node can take before one of them
    /// completes a window ([`Windower::quiet_len`]); `None` for every
    /// other kind.
    pub(crate) fn quiet_len(&self) -> Option<usize> {
        match &self.state {
            AlgoState::Window(w) => Some(w.quiet_len()),
            _ => None,
        }
    }

    /// Feeds a window node samples none of which completes a window (at
    /// most [`AlgoInstance::quiet_len`]), narrowing each to `P` exactly
    /// as [`AlgoInstance::feed_ref`] does, and clears the result flag as
    /// each feed's pass would.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a window or a sample would emit.
    pub(crate) fn push_quiet(&mut self, samples: &[f64]) {
        let AlgoState::Window(w) = &mut self.state else {
            panic!("node {}: only windows take quiet samples", self.id);
        };
        w.push_quiet(samples.iter().map(|&x| P::from_f64(x)));
        self.clear_result();
    }

    /// Borrows the pending result without clearing the flag.
    ///
    /// This is the hot-path read: fan-out to several consumers borrows the
    /// same slot repeatedly instead of cloning the payload per edge.
    pub fn result_ref(&self) -> Option<(u64, ValueRef<'_, P>)> {
        let value = match self.out.kind {
            SlotKind::Empty => return None,
            SlotKind::Scalar => ValueRef::Scalar(self.out.scalar),
            SlotKind::Vector => ValueRef::Vector(&self.out.vector),
            SlotKind::Spectrum => ValueRef::Spectrum(&self.out.spectrum),
        };
        Some((self.out.seq, value))
    }

    /// Collects the pending result, clearing the flag.
    ///
    /// This clones the payload out of the reusable slot; hot paths use
    /// [`AlgoInstance::result_ref`] instead.
    pub fn take_result(&mut self) -> Option<Tagged<P>> {
        let (seq, value) = self.result_ref()?;
        let owned = Tagged {
            seq,
            value: value.to_owned(),
        };
        self.clear_result();
        Some(owned)
    }

    /// Feeds one input value on `port`.
    ///
    /// On success the result slot may or may not be populated; the
    /// interpreter must poll [`AlgoInstance::take_result`].
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on type confusion (unvalidated programs)
    /// or impossible transform lengths.
    pub fn feed(&mut self, port: usize, input: &Tagged<P>) -> Result<(), ExecError> {
        self.feed_ref(port, input.seq, input.value.as_ref())
    }

    /// Feeds one borrowed input value on `port` — the allocation-free form
    /// of [`AlgoInstance::feed`]. Emissions are written into the instance's
    /// reusable result slot; a pending result is only overwritten when a
    /// new one is produced.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on type confusion (unvalidated programs)
    /// or impossible transform lengths.
    pub fn feed_ref(
        &mut self,
        port: usize,
        seq: u64,
        input: ValueRef<'_, P>,
    ) -> Result<(), ExecError> {
        let AlgoInstance { id, state, out } = self;
        let id = *id;
        let type_err = ExecError::TypeError { id };
        match state {
            AlgoState::Window(w) => {
                let x = input.as_scalar().ok_or(type_err)?;
                // The precision boundary: samples narrow to `P` as they
                // enter the window ring buffer, exactly where the paper's
                // hub stores its f32 sample buffers.
                if w.push_into(P::from_f64(x), &mut out.vector) {
                    out.kind = SlotKind::Vector;
                    out.seq = seq;
                }
            }
            AlgoState::Fft { plan } => {
                let window = input.as_vector().ok_or(type_err)?;
                let plan = ensure_fft_plan(plan, window.len(), id)?;
                let wide = P::widen_into(window, &mut out.wide_in);
                plan.process_real_forward_into(wide, &mut out.spectrum);
                out.kind = SlotKind::Spectrum;
                out.seq = seq;
            }
            AlgoState::Ifft { plan } => {
                let spectrum = input.as_spectrum().ok_or(type_err)?;
                let plan = ensure_fft_plan(plan, spectrum.len(), id)?;
                // The spectrum buffer doubles as the inverse-transform
                // scratch; the result itself is the real part, a vector.
                out.spectrum.clear();
                out.spectrum.extend_from_slice(spectrum);
                plan.process_inverse(&mut out.spectrum);
                out.vector.clear();
                let ResultSlot {
                    vector, spectrum, ..
                } = &mut *out;
                P::extend_from_f64(vector, spectrum.iter().map(|z| z.re));
                out.kind = SlotKind::Vector;
                out.seq = seq;
            }
            AlgoState::SpectralMagnitude => {
                let spectrum = input.as_spectrum().ok_or(type_err)?;
                if !spectrum.is_empty() {
                    out.vector.clear();
                    P::extend_from_f64(
                        &mut out.vector,
                        spectrum[..=spectrum.len() / 2]
                            .iter()
                            .map(|z| z.magnitude()),
                    );
                    out.kind = SlotKind::Vector;
                    out.seq = seq;
                }
            }
            AlgoState::MovingAvg(ma) => {
                let x = input.as_scalar().ok_or(type_err)?;
                if let Some(y) = ma.push(x) {
                    out.set_scalar(seq, y);
                }
            }
            AlgoState::ExpMovingAvg(ema) => {
                let x = input.as_scalar().ok_or(type_err)?;
                let y = ema.push(x);
                out.set_scalar(seq, y);
            }
            AlgoState::LowPass {
                cutoff_hz,
                rate_hz,
                plan,
            } => {
                let window = input.as_vector().ok_or(type_err)?;
                let shape = BandShape::LowPass {
                    cutoff_hz: *cutoff_hz,
                };
                let plan = ensure_band_plan(plan, window.len(), shape, *rate_hz, id)?;
                let ResultSlot {
                    vector,
                    spectrum,
                    wide_in,
                    wide_out,
                    ..
                } = &mut *out;
                let wide = P::widen_into(window, wide_in);
                P::with_wide_out(vector, wide_out, |dst| {
                    plan.filter_into(wide, spectrum, dst);
                });
                out.kind = SlotKind::Vector;
                out.seq = seq;
            }
            AlgoState::HighPass {
                cutoff_hz,
                rate_hz,
                plan,
            } => {
                let window = input.as_vector().ok_or(type_err)?;
                let shape = BandShape::HighPass {
                    cutoff_hz: *cutoff_hz,
                };
                let plan = ensure_band_plan(plan, window.len(), shape, *rate_hz, id)?;
                let ResultSlot {
                    vector,
                    spectrum,
                    wide_in,
                    wide_out,
                    ..
                } = &mut *out;
                let wide = P::widen_into(window, wide_in);
                P::with_wide_out(vector, wide_out, |dst| {
                    plan.filter_into(wide, spectrum, dst);
                });
                out.kind = SlotKind::Vector;
                out.seq = seq;
            }
            AlgoState::VectorMagnitude { latest } => {
                let x = input.as_scalar().ok_or(type_err)?;
                let slot = latest
                    .get_mut(port)
                    .ok_or(ExecError::BadPort { id, port })?;
                *slot = Some((seq, x));
                // Emit only when every branch has produced a value from
                // the same source samples: a stale axis must never be
                // combined with a fresh one.
                if latest
                    .iter()
                    .all(|v| matches!(v, Some((s, _)) if *s == seq))
                {
                    // Σx² in port order — the same reduction (and float
                    // op order) as `stats::vector_magnitude`, without
                    // collecting the components.
                    let energy: f64 = latest
                        .iter()
                        .map(|v| {
                            let x = v.expect("checked Some").1;
                            x * x
                        })
                        .sum();
                    out.set_scalar(seq, energy.sqrt());
                }
            }
            AlgoState::Zcr => {
                let window = input.as_vector().ok_or(type_err)?;
                if let Some(r) = zcr::zero_crossing_rate(window) {
                    out.set_scalar(seq, r.to_f64());
                }
            }
            AlgoState::ZcrVariance { rates } => {
                let window = input.as_vector().ok_or(type_err)?;
                if let Some(v) = zcr::zcr_variance_into(window, rates.len(), rates) {
                    out.set_scalar(seq, v.to_f64());
                }
            }
            AlgoState::Stat(s) => {
                let window = input.as_vector().ok_or(type_err)?;
                if let Some(summary) = stats::Summary::of(window) {
                    let y = match s {
                        StatFn::Mean => summary.mean,
                        StatFn::Variance => summary.variance,
                        StatFn::StdDev => summary.std_dev(),
                        StatFn::MeanAbs => {
                            stats::mean_abs(window).ok_or(ExecError::TypeError { id })?
                        }
                        StatFn::Rms => summary.rms,
                        StatFn::Energy => stats::energy(window),
                        StatFn::Min => summary.min,
                        StatFn::Max => summary.max,
                        StatFn::PeakToPeak => summary.peak_to_peak(),
                    };
                    // Features leave the vector domain here, so widen the
                    // reduction back to the f64 scalar plane.
                    out.set_scalar(seq, y.to_f64());
                }
            }
            AlgoState::DominantRatio => {
                let mags = input.as_vector().ok_or(type_err)?;
                // Skip DC: pitched-sound detection must not be fooled by
                // offset.
                if mags.len() > 1 {
                    if let Some(r) = spectral::dominant_to_mean_ratio(&mags[1..]) {
                        out.set_scalar(seq, r.to_f64());
                    }
                }
            }
            AlgoState::DominantFreq { rate_hz } => {
                let mags = input.as_vector().ok_or(type_err)?;
                if mags.len() > 1 {
                    if let Some(peak) = spectral::dominant_bin(&mags[1..]) {
                        // One-sided magnitudes of an N-point transform have
                        // N/2+1 entries.
                        let n = (mags.len() - 1) * 2;
                        let freq = fft::bin_to_frequency(peak.bin + 1, n, *rate_hz);
                        out.set_scalar(seq, freq);
                    }
                }
            }
            AlgoState::Goertzel {
                lo_hz,
                hi_hz,
                rate_hz,
                planned_len,
                probes,
            } => {
                let window = input.as_vector().ok_or(type_err)?;
                replan_probes(
                    probes,
                    planned_len,
                    window.len(),
                    *rate_hz,
                    *lo_hz,
                    *hi_hz,
                    false,
                );
                // Zero in-band bins behaves like an empty band filter's
                // downstream: nothing to measure, so no emission. The
                // grouped kernel runs the probes in interleaved lanes but
                // keeps per-probe math and the first-max reduction
                // identical to probing one frequency at a time.
                if let Some(m) = goertzel::strongest_magnitude(window, probes, *rate_hz) {
                    out.set_scalar(seq, m);
                }
            }
            AlgoState::GoertzelFreq {
                lo_hz,
                hi_hz,
                rate_hz,
                planned_len,
                probes,
            } => {
                let window = input.as_vector().ok_or(type_err)?;
                replan_probes(
                    probes,
                    planned_len,
                    window.len(),
                    *rate_hz,
                    *lo_hz,
                    *hi_hz,
                    true,
                );
                // Ties keep the last maximal probe — `dominantFreq`'s
                // `max_by` semantics over the spectrum it replaces.
                if let Some((f, _)) = goertzel::strongest_of(window, probes, *rate_hz) {
                    out.set_scalar(seq, f);
                }
            }
            AlgoState::GoertzelRatio {
                lo_hz,
                hi_hz,
                rate_hz,
                planned_len,
                probes,
            } => {
                let window = input.as_vector().ok_or(type_err)?;
                replan_probes(
                    probes,
                    planned_len,
                    window.len(),
                    *rate_hz,
                    *lo_hz,
                    *hi_hz,
                    true,
                );
                if let Some((peak, sum)) = goertzel::magnitude_max_and_sum(window, probes, *rate_hz)
                {
                    // The replaced chain divides the peak by the mean over
                    // all n/2 non-DC bins; the out-of-band bins it averages
                    // in are rounding residue of the filters, so the
                    // in-band sum stands in for the total. A zero sum
                    // mirrors `dominantRatio`'s no-emission guard.
                    let bins = (window.len() / 2) as f64;
                    if sum > 0.0 && bins > 0.0 {
                        out.set_scalar(seq, peak * bins / sum);
                    }
                }
            }
            AlgoState::MinThreshold { threshold } => {
                let x = input.as_scalar().ok_or(type_err)?;
                if x >= *threshold {
                    out.set_scalar(seq, x);
                }
            }
            AlgoState::MaxThreshold { threshold } => {
                let x = input.as_scalar().ok_or(type_err)?;
                if x <= *threshold {
                    out.set_scalar(seq, x);
                }
            }
            AlgoState::BandThreshold { lo, hi } => {
                let x = input.as_scalar().ok_or(type_err)?;
                if x >= *lo && x <= *hi {
                    out.set_scalar(seq, x);
                }
            }
            AlgoState::OutsideThreshold { lo, hi } => {
                let x = input.as_scalar().ok_or(type_err)?;
                if x < *lo || x > *hi {
                    out.set_scalar(seq, x);
                }
            }
            AlgoState::Sustained {
                count,
                max_gap,
                streak,
                last_seq,
            } => {
                let x = input.as_scalar().ok_or(type_err)?;
                let consecutive = match last_seq {
                    Some(prev) => seq.saturating_sub(*prev) <= *max_gap,
                    None => false,
                };
                *streak = if consecutive { *streak + 1 } else { 1 };
                *last_seq = Some(seq);
                if *streak >= *count {
                    out.set_scalar(seq, x);
                }
            }
            AlgoState::AllOf { latest } => {
                let x = input.as_scalar().ok_or(type_err)?;
                let slot = latest
                    .get_mut(port)
                    .ok_or(ExecError::BadPort { id, port })?;
                *slot = Some((seq, x));
                // AND-join over the same window: all branches must have
                // passed their admission control for this seq.
                if latest
                    .iter()
                    .all(|v| matches!(v, Some((s, _)) if *s == seq))
                {
                    out.set_scalar(seq, x);
                }
            }
            AlgoState::AnyOf => {
                let x = input.as_scalar().ok_or(type_err)?;
                out.set_scalar(seq, x);
            }
        }
        Ok(())
    }

    /// Resets all mutable state (buffered windows, averages, streaks) while
    /// keeping the configuration; used when an application re-arms a
    /// condition.
    pub fn reset(&mut self) {
        self.clear_result();
        match &mut self.state {
            AlgoState::Window(w) => w.reset(),
            AlgoState::MovingAvg(ma) => ma.reset(),
            AlgoState::ExpMovingAvg(ema) => ema.reset(),
            AlgoState::VectorMagnitude { latest } | AlgoState::AllOf { latest } => {
                latest.iter_mut().for_each(|v| *v = None);
            }
            AlgoState::Sustained {
                streak, last_seq, ..
            } => {
                *streak = 0;
                *last_seq = None;
            }
            _ => {}
        }
    }
}

/// Returns the cached transform plan, (re)building it when the incoming
/// window length differs from the planned length.
fn ensure_fft_plan(
    slot: &mut Option<FftPlan>,
    len: usize,
    id: NodeId,
) -> Result<&FftPlan, ExecError> {
    if slot.as_ref().map(FftPlan::len) != Some(len) {
        *slot =
            Some(FftPlan::new(len).map_err(|e| ExecError::BadTransformLength { id, len: e.len })?);
    }
    Ok(slot.as_ref().expect("just ensured"))
}

/// Returns the cached band-filter plan, (re)building it when the incoming
/// window length differs from the planned length.
fn ensure_band_plan(
    slot: &mut Option<BandFilterPlan>,
    len: usize,
    shape: BandShape,
    rate_hz: f64,
    id: NodeId,
) -> Result<&BandFilterPlan, ExecError> {
    if slot.as_ref().map(BandFilterPlan::len) != Some(len) {
        *slot = Some(
            BandFilterPlan::new(len, shape, rate_hz)
                .map_err(|e| ExecError::BadTransformLength { id, len: e.len })?,
        );
    }
    Ok(slot.as_ref().expect("just ensured"))
}

/// Rebuilds a goertzel-family node's cached probe grid when the observed
/// window length changes: one probe per DFT bin of an `n`-point window
/// whose center frequency lies in `[lo_hz, hi_hz]` (inclusive edges,
/// mirroring the fft-filter keep masks these nodes replace). `skip_dc`
/// drops bin 0 — the dominant-feature chains search `mags[1..]`, so
/// their strength-reduced forms never probe DC.
fn replan_probes(
    probes: &mut Vec<f64>,
    planned_len: &mut usize,
    n: usize,
    rate_hz: f64,
    lo_hz: f64,
    hi_hz: f64,
    skip_dc: bool,
) {
    if *planned_len == n {
        return;
    }
    *planned_len = n;
    probes.clear();
    if rate_hz > 0.0 && n > 0 {
        for k in usize::from(skip_dc)..=n / 2 {
            let f = fft::bin_to_frequency(k, n, rate_hz);
            if lo_hz <= f && f <= hi_hz {
                probes.push(f);
            }
        }
    }
}

fn convert_shape(shape: WindowShapeParam) -> WindowShape {
    match shape {
        WindowShapeParam::Rectangular => WindowShape::Rectangular,
        WindowShapeParam::Hamming => WindowShape::Hamming,
        WindowShapeParam::Hann => WindowShape::Hann,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(seq: u64, x: f64) -> Tagged {
        Tagged::new(seq, x)
    }

    fn feed_scalar(inst: &mut AlgoInstance, seq: u64, x: f64) -> Option<f64> {
        inst.feed(0, &scalar(seq, x)).unwrap();
        inst.take_result().and_then(|t| t.value.as_scalar())
    }

    #[test]
    fn moving_avg_warms_up_like_the_paper_says() {
        // §3.5: "A moving average with a window size of N will not produce
        // a result until it has received N data points."
        let mut inst =
            AlgoInstance::new(NodeId(1), &AlgorithmKind::MovingAvg { window: 3 }, 1, 50.0).unwrap();
        assert!(!inst.has_result());
        assert_eq!(feed_scalar(&mut inst, 0, 3.0), None);
        assert_eq!(feed_scalar(&mut inst, 1, 6.0), None);
        assert_eq!(feed_scalar(&mut inst, 2, 9.0), Some(6.0));
    }

    #[test]
    fn threshold_only_produces_when_met() {
        let mut inst = AlgoInstance::new(
            NodeId(1),
            &AlgorithmKind::MinThreshold { threshold: 5.0 },
            1,
            50.0,
        )
        .unwrap();
        assert_eq!(feed_scalar(&mut inst, 0, 4.9), None);
        assert_eq!(feed_scalar(&mut inst, 1, 5.0), Some(5.0));
        assert_eq!(feed_scalar(&mut inst, 2, 7.5), Some(7.5));
    }

    #[test]
    fn max_band_and_outside_thresholds() {
        let mut max = AlgoInstance::new(
            NodeId(1),
            &AlgorithmKind::MaxThreshold { threshold: -3.75 },
            1,
            50.0,
        )
        .unwrap();
        assert_eq!(feed_scalar(&mut max, 0, -1.0), None);
        assert_eq!(feed_scalar(&mut max, 1, -5.0), Some(-5.0));

        let mut band = AlgoInstance::new(
            NodeId(2),
            &AlgorithmKind::BandThreshold { lo: 2.5, hi: 4.5 },
            1,
            50.0,
        )
        .unwrap();
        assert_eq!(feed_scalar(&mut band, 0, 2.0), None);
        assert_eq!(feed_scalar(&mut band, 1, 3.0), Some(3.0));
        assert_eq!(feed_scalar(&mut band, 2, 5.0), None);

        let mut outside = AlgoInstance::new(
            NodeId(3),
            &AlgorithmKind::OutsideThreshold { lo: -1.0, hi: 1.0 },
            1,
            50.0,
        )
        .unwrap();
        assert_eq!(feed_scalar(&mut outside, 0, 0.0), None);
        assert_eq!(feed_scalar(&mut outside, 1, 2.0), Some(2.0));
        assert_eq!(feed_scalar(&mut outside, 2, -2.0), Some(-2.0));
    }

    #[test]
    fn vector_magnitude_waits_for_all_ports() {
        let mut vm =
            AlgoInstance::new(NodeId(4), &AlgorithmKind::VectorMagnitude, 3, 50.0).unwrap();
        vm.feed(0, &scalar(0, 3.0)).unwrap();
        assert!(!vm.has_result());
        vm.feed(1, &scalar(0, 4.0)).unwrap();
        assert!(!vm.has_result());
        vm.feed(2, &scalar(0, 0.0)).unwrap();
        let r = vm.take_result().unwrap();
        assert_eq!(r.value.as_scalar(), Some(5.0));
        // After emitting, all ports must update again before the next one.
        vm.feed(0, &scalar(1, 1.0)).unwrap();
        assert!(!vm.has_result());
    }

    #[test]
    fn window_emits_every_hop() {
        let mut w = AlgoInstance::new(
            NodeId(1),
            &AlgorithmKind::Window {
                size: 4,
                hop: 4,
                shape: WindowShapeParam::Rectangular,
            },
            1,
            8000.0,
        )
        .unwrap();
        let mut windows = 0;
        for i in 0..12 {
            w.feed(0, &scalar(i, i as f64)).unwrap();
            if let Some(t) = w.take_result() {
                windows += 1;
                assert_eq!(t.value.as_vector().unwrap().len(), 4);
                assert_eq!(t.seq, i);
            }
        }
        assert_eq!(windows, 3);
    }

    #[test]
    fn fft_pipeline_extracts_dominant_frequency() {
        let rate = 8000.0;
        let n = 256;
        let freq = 1000.0;
        let mut window = AlgoInstance::new(
            NodeId(1),
            &AlgorithmKind::Window {
                size: n,
                hop: n,
                shape: WindowShapeParam::Rectangular,
            },
            1,
            rate,
        )
        .unwrap();
        let mut fft_node = AlgoInstance::new(NodeId(2), &AlgorithmKind::Fft, 1, rate).unwrap();
        let mut mag =
            AlgoInstance::new(NodeId(3), &AlgorithmKind::SpectralMagnitude, 1, rate).unwrap();
        let mut dom = AlgoInstance::new(NodeId(4), &AlgorithmKind::DominantFreq, 1, rate).unwrap();

        let mut freq_out = None;
        for i in 0..n as u64 {
            let x = (2.0 * std::f64::consts::PI * freq * i as f64 / rate).sin();
            window.feed(0, &scalar(i, x)).unwrap();
            if let Some(w) = window.take_result() {
                fft_node.feed(0, &w).unwrap();
                let s = fft_node.take_result().unwrap();
                mag.feed(0, &s).unwrap();
                let m = mag.take_result().unwrap();
                assert_eq!(m.value.as_vector().unwrap().len(), 129);
                dom.feed(0, &m).unwrap();
                freq_out = dom.take_result().and_then(|t| t.value.as_scalar());
            }
        }
        let f = freq_out.expect("a full window must yield a dominant frequency");
        assert!((f - freq).abs() < rate / n as f64, "freq = {f}");
    }

    #[test]
    fn dominant_ratio_flags_pitched_windows() {
        let rate = 8000.0;
        let mut ratio =
            AlgoInstance::new(NodeId(1), &AlgorithmKind::DominantRatio, 1, rate).unwrap();
        // Peaked magnitude spectrum (as if from a siren).
        let mut mags = vec![0.1; 129];
        mags[40] = 30.0;
        ratio.feed(0, &Tagged::new(0, mags)).unwrap();
        let pitched = ratio.take_result().unwrap().value.as_scalar().unwrap();
        assert!(pitched > 20.0);
        // Flat spectrum (noise).
        ratio.feed(0, &Tagged::new(1, vec![1.0; 129])).unwrap();
        let noisy = ratio.take_result().unwrap().value.as_scalar().unwrap();
        assert!((noisy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sustained_requires_consecutive_arrivals() {
        // Windows arrive every 256 samples; require 3 consecutive.
        let mut s = AlgoInstance::new(
            NodeId(1),
            &AlgorithmKind::Sustained {
                count: 3,
                max_gap: 256,
            },
            1,
            8000.0,
        )
        .unwrap();
        assert_eq!(feed_scalar(&mut s, 256, 1.0), None);
        assert_eq!(feed_scalar(&mut s, 512, 1.0), None);
        assert_eq!(feed_scalar(&mut s, 768, 1.0), Some(1.0));
        // A gap resets the streak.
        assert_eq!(feed_scalar(&mut s, 2048, 1.0), None);
        assert_eq!(feed_scalar(&mut s, 2304, 1.0), None);
        assert_eq!(feed_scalar(&mut s, 2560, 1.0), Some(1.0));
    }

    #[test]
    fn all_of_and_any_of_join_semantics() {
        let mut all = AlgoInstance::new(NodeId(1), &AlgorithmKind::AllOf, 2, 50.0).unwrap();
        all.feed(0, &scalar(0, 1.0)).unwrap();
        assert!(!all.has_result());
        all.feed(1, &scalar(0, 2.0)).unwrap();
        assert_eq!(all.take_result().unwrap().value.as_scalar(), Some(2.0));

        let mut any = AlgoInstance::new(NodeId(2), &AlgorithmKind::AnyOf, 2, 50.0).unwrap();
        any.feed(1, &scalar(0, 7.0)).unwrap();
        assert_eq!(any.take_result().unwrap().value.as_scalar(), Some(7.0));
    }

    #[test]
    fn stats_reduce_windows() {
        let window = Tagged::new(0, vec![1.0, 2.0, 3.0, 4.0]);
        let cases = [
            (StatFn::Mean, 2.5),
            (StatFn::Variance, 1.25),
            (StatFn::Min, 1.0),
            (StatFn::Max, 4.0),
            (StatFn::PeakToPeak, 3.0),
            (StatFn::Energy, 30.0),
        ];
        for (s, expected) in cases {
            let mut inst = AlgoInstance::new(NodeId(1), &AlgorithmKind::Stat(s), 1, 50.0).unwrap();
            inst.feed(0, &window).unwrap();
            let got = inst.take_result().unwrap().value.as_scalar().unwrap();
            assert!((got - expected).abs() < 1e-9, "{s:?}: {got} != {expected}");
        }
    }

    #[test]
    fn zcr_variance_distinguishes_modulated_windows() {
        let mut inst = AlgoInstance::new(
            NodeId(1),
            &AlgorithmKind::ZcrVariance { sub_windows: 4 },
            1,
            8000.0,
        )
        .unwrap();
        // Half alternating, half constant → non-zero variance.
        let mut samples: Vec<f64> = (0..32)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        samples.extend(std::iter::repeat_n(1.0, 32));
        inst.feed(0, &Tagged::new(0, samples)).unwrap();
        let v = inst.take_result().unwrap().value.as_scalar().unwrap();
        assert!(v > 0.0);
    }

    #[test]
    fn type_errors_are_reported() {
        let mut fft_node = AlgoInstance::new(NodeId(9), &AlgorithmKind::Fft, 1, 8000.0).unwrap();
        let err = fft_node.feed(0, &scalar(0, 1.0)).unwrap_err();
        assert_eq!(err, ExecError::TypeError { id: NodeId(9) });
        assert!(err.to_string().contains("node 9"));
    }

    #[test]
    fn bad_transform_length_is_reported() {
        let mut fft_node = AlgoInstance::new(NodeId(3), &AlgorithmKind::Fft, 1, 8000.0).unwrap();
        let err = fft_node
            .feed(0, &Tagged::new(0, vec![0.0; 100]))
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::BadTransformLength {
                id: NodeId(3),
                len: 100
            }
        );
    }

    #[test]
    fn bad_port_is_reported() {
        let mut vm =
            AlgoInstance::new(NodeId(5), &AlgorithmKind::VectorMagnitude, 2, 50.0).unwrap();
        let err = vm.feed(5, &scalar(0, 1.0)).unwrap_err();
        assert_eq!(
            err,
            ExecError::BadPort {
                id: NodeId(5),
                port: 5
            }
        );
    }

    #[test]
    fn ifft_round_trips_through_fft() {
        let n = 64;
        let mut fft_node = AlgoInstance::new(NodeId(1), &AlgorithmKind::Fft, 1, 8000.0).unwrap();
        let mut ifft_node = AlgoInstance::new(NodeId(2), &AlgorithmKind::Ifft, 1, 8000.0).unwrap();
        let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        fft_node.feed(0, &Tagged::new(0, signal.clone())).unwrap();
        let spectrum = fft_node.take_result().unwrap();
        ifft_node.feed(0, &spectrum).unwrap();
        let back = ifft_node.take_result().unwrap();
        for (a, b) in back.value.as_vector().unwrap().iter().zip(&signal) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut ma =
            AlgoInstance::new(NodeId(1), &AlgorithmKind::MovingAvg { window: 2 }, 1, 50.0).unwrap();
        feed_scalar(&mut ma, 0, 100.0);
        ma.reset();
        assert_eq!(feed_scalar(&mut ma, 1, 1.0), None);
        assert_eq!(feed_scalar(&mut ma, 2, 3.0), Some(2.0));

        let mut s = AlgoInstance::new(
            NodeId(2),
            &AlgorithmKind::Sustained {
                count: 2,
                max_gap: 1,
            },
            1,
            50.0,
        )
        .unwrap();
        feed_scalar(&mut s, 0, 1.0);
        s.reset();
        assert_eq!(feed_scalar(&mut s, 1, 1.0), None);
    }

    #[test]
    fn bad_parameters_error_instead_of_panicking() {
        // These kinds are rejected by validation, but a malformed program
        // that bypasses it (the shape a corrupted re-download produces)
        // must surface a typed error, not panic the hub.
        let zero_window = AlgorithmKind::Window {
            size: 0,
            hop: 0,
            shape: WindowShapeParam::Rectangular,
        };
        assert_eq!(
            AlgoInstance::<f64>::new(NodeId(1), &zero_window, 1, 50.0).unwrap_err(),
            ExecError::BadParameter {
                id: NodeId(1),
                what: "window size and hop must be positive",
            }
        );
        let zero_avg = AlgorithmKind::MovingAvg { window: 0 };
        assert_eq!(
            AlgoInstance::<f64>::new(NodeId(2), &zero_avg, 1, 50.0).unwrap_err(),
            ExecError::BadParameter {
                id: NodeId(2),
                what: "moving-average window must be positive",
            }
        );
        let bad_alpha = AlgorithmKind::ExpMovingAvg { alpha: f64::NAN };
        let err = AlgoInstance::<f64>::new(NodeId(3), &bad_alpha, 1, 50.0).unwrap_err();
        assert!(err.to_string().contains("node 3"), "{err}");
    }

    #[test]
    fn mean_abs_on_empty_window_does_not_panic() {
        let mut inst =
            AlgoInstance::new(NodeId(1), &AlgorithmKind::Stat(StatFn::MeanAbs), 1, 50.0).unwrap();
        // An empty window yields no summary, hence no result — and must
        // never reach the unchecked reduction that used to unwrap.
        inst.feed(0, &Tagged::new(0, Vec::<f64>::new())).unwrap();
        assert!(!inst.has_result());
        inst.feed(0, &Tagged::new(1, vec![-2.0, 2.0])).unwrap();
        assert_eq!(inst.take_result().unwrap().value.as_scalar(), Some(2.0));
    }

    #[test]
    fn goertzel_matches_fft_band_peak_on_bin_tones() {
        let rate = 8000.0;
        let n = 1024usize;
        // A tone exactly on bin 128 (1000 Hz at 8 kHz / 1024).
        let tone: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 1000.0 * i as f64 / rate).sin())
            .collect();

        let mut g = AlgoInstance::new(
            NodeId(1),
            &AlgorithmKind::Goertzel {
                lo_hz: 980.0,
                hi_hz: 1020.0,
            },
            1,
            rate,
        )
        .unwrap();
        g.feed(0, &Tagged::new(0, tone.clone())).unwrap();
        let probe = g.take_result().unwrap().value.as_scalar().unwrap();

        // Reference: fft → spectralMagnitude, max over bins in band.
        let mut fft_node = AlgoInstance::new(NodeId(2), &AlgorithmKind::Fft, 1, rate).unwrap();
        let mut mag =
            AlgoInstance::new(NodeId(3), &AlgorithmKind::SpectralMagnitude, 1, rate).unwrap();
        fft_node.feed(0, &Tagged::new(0, tone)).unwrap();
        mag.feed(0, &fft_node.take_result().unwrap()).unwrap();
        let mags = mag.take_result().unwrap();
        let mags = mags.value.as_vector().unwrap();
        let peak = mags
            .iter()
            .enumerate()
            .filter(|(k, _)| {
                let f = *k as f64 * rate / n as f64;
                (980.0..=1020.0).contains(&f)
            })
            .map(|(_, &m)| m)
            .fold(0.0f64, f64::max);

        assert!(
            (probe - peak).abs() / peak < 1e-9,
            "goertzel {probe} vs fft peak {peak}"
        );
    }

    #[test]
    fn goertzel_freq_and_ratio_match_the_dominant_chain_on_bin_tones() {
        let rate = 8000.0;
        let n = 1024usize;
        // Two in-band tones: the stronger one at bin 128 (1000 Hz) must
        // win the argmax; a weaker one at bin 130 pads the in-band sum.
        let tone: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / rate;
                (2.0 * std::f64::consts::PI * 1000.0 * t).sin()
                    + 0.3 * (2.0 * std::f64::consts::PI * 1015.625 * t).sin()
            })
            .collect();
        let band = (980.0, 1020.0);

        let mut gf = AlgoInstance::new(
            NodeId(1),
            &AlgorithmKind::GoertzelFreq {
                lo_hz: band.0,
                hi_hz: band.1,
            },
            1,
            rate,
        )
        .unwrap();
        gf.feed(0, &Tagged::new(0, tone.clone())).unwrap();
        let freq = gf.take_result().unwrap().value.as_scalar().unwrap();
        assert!(
            (freq - 1000.0).abs() < 1e-9,
            "strongest in-band probe should sit on the 1000 Hz bin, got {freq}"
        );

        let mut gr = AlgoInstance::new(
            NodeId(2),
            &AlgorithmKind::GoertzelRatio {
                lo_hz: band.0,
                hi_hz: band.1,
            },
            1,
            rate,
        )
        .unwrap();
        gr.feed(0, &Tagged::new(0, tone.clone())).unwrap();
        let ratio = gr.take_result().unwrap().value.as_scalar().unwrap();

        // Reference: the chain this node strength-reduces, with an ideal
        // band filter (out-of-band bins zeroed exactly).
        let mut fft_node = AlgoInstance::new(NodeId(3), &AlgorithmKind::Fft, 1, rate).unwrap();
        let mut mag =
            AlgoInstance::new(NodeId(4), &AlgorithmKind::SpectralMagnitude, 1, rate).unwrap();
        fft_node.feed(0, &Tagged::new(0, tone)).unwrap();
        mag.feed(0, &fft_node.take_result().unwrap()).unwrap();
        let mags = mag.take_result().unwrap();
        let mags = mags.value.as_vector().unwrap();
        let in_band: Vec<f64> = mags
            .iter()
            .enumerate()
            .filter(|(k, _)| {
                let f = *k as f64 * rate / n as f64;
                *k > 0 && (band.0..=band.1).contains(&f)
            })
            .map(|(_, &m)| m)
            .collect();
        let peak = in_band.iter().copied().fold(0.0f64, f64::max);
        let mean = in_band.iter().sum::<f64>() / (n / 2) as f64;
        let expected = peak / mean;
        assert!(
            (ratio - expected).abs() / expected < 1e-6,
            "goertzelRatio {ratio} vs chain ratio {expected}"
        );
    }

    #[test]
    fn goertzel_freq_and_ratio_skip_dc_and_empty_bands() {
        // A DC-only "signal": the band covers only bin 0, which the
        // dominant-feature probes skip, so neither node may emit.
        for kind in [
            AlgorithmKind::GoertzelFreq {
                lo_hz: 0.0,
                hi_hz: 100.0,
            },
            AlgorithmKind::GoertzelRatio {
                lo_hz: 0.0,
                hi_hz: 100.0,
            },
        ] {
            let mut g = AlgoInstance::new(NodeId(1), &kind, 1, 8000.0).unwrap();
            g.feed(0, &Tagged::new(0, vec![1.0; 64])).unwrap();
            assert!(!g.has_result(), "{kind:?} probed the DC bin");
        }
    }

    #[test]
    fn goertzel_with_empty_band_never_emits() {
        // 100–101 Hz at 8 kHz / 64-point windows: bins are 125 Hz apart,
        // so no bin center lands in the band.
        let mut g = AlgoInstance::new(
            NodeId(1),
            &AlgorithmKind::Goertzel {
                lo_hz: 100.0,
                hi_hz: 101.0,
            },
            1,
            8000.0,
        )
        .unwrap();
        g.feed(0, &Tagged::new(0, vec![1.0; 64])).unwrap();
        assert!(!g.has_result());
    }

    #[test]
    fn goertzel_rejects_bad_band() {
        let bad = AlgorithmKind::Goertzel {
            lo_hz: 500.0,
            hi_hz: 100.0,
        };
        let err = AlgoInstance::<f64>::new(NodeId(7), &bad, 1, 8000.0).unwrap_err();
        assert!(err.to_string().contains("node 7"), "{err}");
    }

    #[test]
    fn f32_instances_run_the_vector_pipeline_at_single_precision() {
        let rate = 8000.0;
        let n = 256;
        let freq = 1000.0;
        let mut window = AlgoInstance::<f32>::new(
            NodeId(1),
            &AlgorithmKind::Window {
                size: n,
                hop: n,
                shape: WindowShapeParam::Rectangular,
            },
            1,
            rate,
        )
        .unwrap();
        let mut fft_node =
            AlgoInstance::<f32>::new(NodeId(2), &AlgorithmKind::Fft, 1, rate).unwrap();
        let mut mag =
            AlgoInstance::<f32>::new(NodeId(3), &AlgorithmKind::SpectralMagnitude, 1, rate)
                .unwrap();
        let mut dom =
            AlgoInstance::<f32>::new(NodeId(4), &AlgorithmKind::DominantFreq, 1, rate).unwrap();

        let mut freq_out = None;
        for i in 0..n as u64 {
            let x = (2.0 * std::f64::consts::PI * freq * i as f64 / rate).sin();
            // Scalars are fed as f64 and narrow inside the window node.
            window.feed(0, &Tagged::new(i, x)).unwrap();
            if let Some(w) = window.take_result() {
                assert!(matches!(w.value, crate::value::Value::Vector(ref v)
                    if v.len() == n as usize));
                fft_node.feed(0, &w).unwrap();
                let s = fft_node.take_result().unwrap();
                mag.feed(0, &s).unwrap();
                let m = mag.take_result().unwrap();
                dom.feed(0, &m).unwrap();
                freq_out = dom.take_result().and_then(|t| t.value.as_scalar());
            }
        }
        let f = freq_out.expect("a full f32 window must yield a dominant frequency");
        assert!((f - freq).abs() < rate / f64::from(n), "freq = {f}");
    }

    #[test]
    fn f32_stats_track_f64_within_single_precision() {
        let window: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let tagged64 = Tagged::<f64>::new(0, window.clone());
        let tagged32 =
            Tagged::<f32>::new(0, window.iter().map(|&x| x as f32).collect::<Vec<f32>>());
        for s in [StatFn::Mean, StatFn::Rms, StatFn::Energy, StatFn::Max] {
            let mut i64_ =
                AlgoInstance::<f64>::new(NodeId(1), &AlgorithmKind::Stat(s), 1, 50.0).unwrap();
            let mut i32_ =
                AlgoInstance::<f32>::new(NodeId(1), &AlgorithmKind::Stat(s), 1, 50.0).unwrap();
            i64_.feed(0, &tagged64).unwrap();
            i32_.feed(0, &tagged32).unwrap();
            let a = i64_.take_result().unwrap().value.as_scalar().unwrap();
            let b = i32_.take_result().unwrap().value.as_scalar().unwrap();
            let scale = a.abs().max(1.0);
            assert!((a - b).abs() / scale < 1e-4, "{s:?}: f64 {a} vs f32 {b}");
        }
    }

    #[test]
    fn lowpass_instance_filters_window() {
        let rate = 8000.0;
        let n = 256;
        let mut lp = AlgoInstance::new(
            NodeId(1),
            &AlgorithmKind::LowPass { cutoff_hz: 500.0 },
            1,
            rate,
        )
        .unwrap();
        let high_tone: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 3000.0 * i as f64 / rate).sin())
            .collect();
        lp.feed(0, &Tagged::new(0, high_tone)).unwrap();
        let out = lp.take_result().unwrap();
        let filtered = out.value.as_vector().unwrap();
        let rms = (filtered.iter().map(|x| x * x).sum::<f64>() / n as f64).sqrt();
        assert!(rms < 0.01, "high tone should be removed, rms = {rms}");
    }
}
