//! Arena layout for [`McuImage`]s: the one walk that decides where a
//! program's buffers live, and the `no_std` half of the `swcert`
//! resource certifier.
//!
//! `carve` walks the nodes in load order. For each node, `node_plan`
//! (the only code that maps a [`NodeKind`] to buffer sizes) checks the
//! parameters and sizes the buffers; the walk places them at the running
//! per-arena totals and hands the placed spans to its caller.
//! [`McuCore::load`](crate::McuCore::load) stores those spans;
//! [`image_footprint`] and [`check_fit`] keep only the tallies. Because
//! load and certificate read the same walk, the certified occupancy is
//! what load carves by construction. [`check_fit`] names the first node
//! that would push any arena past `cap`; `load` raises the same error
//! before it stores anything, which is what makes a failed load
//! side-effect free.

use crate::exec::McuExecError;
use crate::fft;
use crate::image::{McuImage, NodeKind, PortSource, MAX_NODES};
use core::ops::Range;

/// The seven fixed arenas a [`McuCore`](crate::McuCore) carves at load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaKind {
    /// `arena_p`: window rings, taper tables, vector payloads.
    Sample,
    /// `arena_f`: moving-average rings, probe tables, widening scratch.
    Scalar,
    /// `arena_c`: twiddle tables and spectrum payloads.
    Complex,
    /// `arena_s`: bit-reversal swap tables.
    Swap,
    /// `arena_b`: band-filter keep masks.
    Mask,
    /// `stage_p`: staging copy of the largest fed vector payload.
    StageSample,
    /// `stage_c`: staging copy of the largest fed spectrum payload.
    StageSpectrum,
}

impl ArenaKind {
    /// Every arena, in declaration order.
    pub const ALL: [ArenaKind; 7] = [
        ArenaKind::Sample,
        ArenaKind::Scalar,
        ArenaKind::Complex,
        ArenaKind::Swap,
        ArenaKind::Mask,
        ArenaKind::StageSample,
        ArenaKind::StageSpectrum,
    ];

    /// Position in [`ImageFootprint::arenas`].
    pub fn index(self) -> usize {
        match self {
            ArenaKind::Sample => 0,
            ArenaKind::Scalar => 1,
            ArenaKind::Complex => 2,
            ArenaKind::Swap => 3,
            ArenaKind::Mask => 4,
            ArenaKind::StageSample => 5,
            ArenaKind::StageSpectrum => 6,
        }
    }

    /// The name `load`'s capacity errors use for this arena.
    pub fn name(self) -> &'static str {
        match self {
            ArenaKind::Sample => "sample arena",
            ArenaKind::Scalar => "scalar arena",
            ArenaKind::Complex => "complex arena",
            ArenaKind::Swap => "swap arena",
            ArenaKind::Mask => "mask arena",
            ArenaKind::StageSample => "sample staging arena",
            ArenaKind::StageSpectrum => "spectrum staging arena",
        }
    }

    /// Bytes one element occupies, given the sample-payload width
    /// (`8` for `f64` cores, `4` for `f32`).
    pub fn element_bytes(self, sample_bytes: usize) -> usize {
        match self {
            ArenaKind::Sample | ArenaKind::StageSample => sample_bytes,
            ArenaKind::Scalar => 8,
            ArenaKind::Complex | ArenaKind::StageSpectrum => 16,
            ArenaKind::Swap => 8,
            ArenaKind::Mask => 1,
        }
    }
}

/// One arena's certified occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaUse {
    /// Total elements the program carves from (or stages through) the
    /// arena.
    pub elements: usize,
    /// Dense index of the node contributing the most elements.
    pub peak_node: u16,
    /// That node's contribution.
    pub peak_elements: usize,
}

impl ArenaUse {
    fn add(&mut self, node: u16, elements: usize) {
        self.elements = self.elements.saturating_add(elements);
        if elements > self.peak_elements {
            self.peak_elements = elements;
            self.peak_node = node;
        }
    }

    /// Staging arenas hold one payload at a time, so their occupancy is
    /// the maximum, not the sum.
    fn stage(&mut self, node: u16, elements: usize) {
        if elements > self.elements {
            self.elements = elements;
        }
        if elements > self.peak_elements {
            self.peak_elements = elements;
            self.peak_node = node;
        }
    }
}

/// Exact per-arena element occupancy of one image, in load order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImageFootprint {
    /// Occupancy per arena, indexed by [`ArenaKind::index`].
    pub arenas: [ArenaUse; 7],
}

impl ImageFootprint {
    /// Occupancy of one arena.
    pub fn arena(&self, kind: ArenaKind) -> ArenaUse {
        self.arenas[kind.index()]
    }

    /// The largest single-arena occupancy — the smallest `CAP` a
    /// `McuCore<_, CAP>` needs to load the image.
    pub fn required_capacity(&self) -> usize {
        let mut max = 0;
        let mut i = 0;
        while i < self.arenas.len() {
            if self.arenas[i].elements > max {
                max = self.arenas[i].elements;
            }
            i += 1;
        }
        max
    }

    /// Whether every arena fits a core of capacity `cap`.
    pub fn fits(&self, cap: usize) -> bool {
        self.required_capacity() <= cap
    }

    /// Total bytes across all arenas for the given sample-payload
    /// width — the RAM the carved program actually occupies. Saturates,
    /// like the element counts it sums.
    pub fn total_bytes(&self, sample_bytes: usize) -> usize {
        ArenaKind::ALL.iter().fold(0usize, |total, &k| {
            total.saturating_add(
                self.arena(k)
                    .elements
                    .saturating_mul(k.element_bytes(sample_bytes)),
            )
        })
    }
}

/// A `[start, start + cap)` slice of one arena, placed by [`carve`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) cap: u32,
}

impl Span {
    pub(crate) const EMPTY: Span = Span { start: 0, cap: 0 };

    /// An unplaced span of `cap` elements. Every buffer size derives
    /// from a `u32` image parameter, so the narrowing is lossless.
    fn sized(cap: usize) -> Span {
        Span {
            start: 0,
            cap: cap as u32,
        }
    }

    pub(crate) fn range(self, len: usize) -> Range<usize> {
        let start = self.start as usize;
        start..start + len
    }

    pub(crate) fn full(self) -> Range<usize> {
        self.range(self.cap as usize)
    }

    pub(crate) fn cap(self) -> usize {
        self.cap as usize
    }
}

/// Where one node's buffers live: the spans `McuCore::load` stores in
/// the node's state and result slot. Fields are grouped by arena, each
/// group in carve order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeCarve {
    /// Sample arena: window ring or zcr-variance scratch.
    pub(crate) aux_p: Span,
    /// Sample arena: taper table.
    pub(crate) coeffs: Span,
    /// Sample arena: vector payload.
    pub(crate) vec: Span,
    /// Scalar arena: moving-average ring or Goertzel probe table.
    pub(crate) aux_f: Span,
    /// Scalar arena: widening scratch for `f32` pipelines.
    pub(crate) wide_in: Span,
    /// Complex arena: forward twiddle table.
    pub(crate) fwd: Span,
    /// Complex arena: inverse twiddle table.
    pub(crate) inv: Span,
    /// Complex arena: spectrum payload.
    pub(crate) spec: Span,
    /// Swap arena: bit-reversal table.
    pub(crate) swaps: Span,
    /// Mask arena: band-filter keep mask.
    pub(crate) mask: Span,
}

/// One node's unplaced buffers and the payload it emits.
struct NodePlan {
    carve: NodeCarve,
    /// Payload length the node emits (0 for scalar producers).
    out_len: usize,
    /// Whether the emitted payload is a spectrum (complex) rather than
    /// a sample vector.
    spectral_out: bool,
}

/// Swap-table capacity to reserve for a predicted transform length.
/// Non-power-of-two predictions reserve nothing: the plan will fail
/// with `BadTransformLength` before the table is needed.
fn plan_swap_cap(n: usize) -> usize {
    if fft::is_power_of_two(n) {
        fft::swap_count(n)
    } else {
        0
    }
}

/// Twiddle-table capacity to reserve for a predicted transform length.
fn plan_twiddle_cap(n: usize) -> usize {
    if fft::is_power_of_two(n) {
        fft::twiddle_count(n)
    } else {
        0
    }
}

/// Checks node `node`'s parameters and sizes its buffers, given its
/// incoming payload length: the one map from a [`NodeKind`] to arena
/// sizes.
fn node_plan(node: u16, kind: &NodeKind, in_len: usize) -> Result<NodePlan, McuExecError> {
    let mut c = NodeCarve::default();
    let mut out_len = 0;
    let mut spectral_out = false;
    match *kind {
        NodeKind::Window { size, hop, .. } => {
            if size == 0 || hop == 0 || hop > size {
                return Err(McuExecError::BadParameter {
                    node,
                    what: "window size and hop must be positive",
                });
            }
            let size = size as usize;
            c.aux_p = Span::sized(size);
            c.coeffs = Span::sized(size);
            c.vec = Span::sized(size);
            out_len = size;
        }
        NodeKind::Fft => {
            c.swaps = Span::sized(plan_swap_cap(in_len));
            c.fwd = Span::sized(plan_twiddle_cap(in_len));
            c.wide_in = Span::sized(in_len);
            c.spec = Span::sized(in_len);
            out_len = in_len;
            spectral_out = true;
        }
        NodeKind::Ifft => {
            c.swaps = Span::sized(plan_swap_cap(in_len));
            c.inv = Span::sized(plan_twiddle_cap(in_len));
            c.spec = Span::sized(in_len);
            c.vec = Span::sized(in_len);
            out_len = in_len;
        }
        NodeKind::SpectralMagnitude => {
            out_len = if in_len > 0 { in_len / 2 + 1 } else { 0 };
            c.vec = Span::sized(out_len);
        }
        NodeKind::MovingAvg { window } => {
            if window == 0 {
                return Err(McuExecError::BadParameter {
                    node,
                    what: "moving-average window must be positive",
                });
            }
            c.aux_f = Span::sized(window as usize);
        }
        NodeKind::ExpMovingAvg { alpha } => {
            if !(alpha > 0.0 && alpha <= 1.0) {
                return Err(McuExecError::BadParameter {
                    node,
                    what: "smoothing factor must be in (0, 1]",
                });
            }
        }
        NodeKind::LowPass { .. } | NodeKind::HighPass { .. } => {
            c.swaps = Span::sized(plan_swap_cap(in_len));
            c.fwd = Span::sized(plan_twiddle_cap(in_len));
            c.inv = Span::sized(plan_twiddle_cap(in_len));
            c.mask = Span::sized(in_len);
            c.wide_in = Span::sized(in_len);
            c.spec = Span::sized(in_len);
            c.vec = Span::sized(in_len);
            out_len = in_len;
        }
        NodeKind::ZcrVariance { sub_windows } => {
            c.aux_p = Span::sized(sub_windows as usize);
        }
        NodeKind::Goertzel { lo_hz, hi_hz }
        | NodeKind::GoertzelFreq { lo_hz, hi_hz }
        | NodeKind::GoertzelRatio { lo_hz, hi_hz } => {
            if !(lo_hz.is_finite() && hi_hz.is_finite() && 0.0 <= lo_hz && lo_hz <= hi_hz) {
                return Err(McuExecError::BadParameter {
                    node,
                    what: "goertzel band must be finite with 0 <= lo <= hi",
                });
            }
            c.aux_f = Span::sized(if in_len > 0 { in_len / 2 + 1 } else { 0 });
        }
        NodeKind::VectorMagnitude
        | NodeKind::Zcr
        | NodeKind::Stat(_)
        | NodeKind::DominantRatio
        | NodeKind::DominantFreq
        | NodeKind::MinThreshold { .. }
        | NodeKind::MaxThreshold { .. }
        | NodeKind::BandThreshold { .. }
        | NodeKind::OutsideThreshold { .. }
        | NodeKind::Sustained { .. }
        | NodeKind::AllOf
        | NodeKind::AnyOf => {}
    }
    Ok(NodePlan {
        carve: c,
        out_len,
        spectral_out,
    })
}

/// Computes the exact per-arena occupancy of `image`, walking nodes in
/// load order.
///
/// # Errors
///
/// [`McuExecError::BadParameter`] on exactly the parameters
/// [`McuCore::load`](crate::McuCore::load) rejects, at the same node.
pub fn image_footprint(image: &McuImage) -> Result<ImageFootprint, McuExecError> {
    carve(image, usize::MAX, |_, _| {})
}

/// [`image_footprint`] plus an admission check against a core of
/// capacity `cap`: the first node whose carve would overflow any arena
/// is reported with the arena's name, exactly as `McuCore::load`
/// reports it.
///
/// # Errors
///
/// [`McuExecError::BadParameter`] as [`image_footprint`];
/// [`McuExecError::ArenaOverflow`] naming the arena and the offending
/// node when the image does not fit.
pub fn check_fit(image: &McuImage, cap: usize) -> Result<ImageFootprint, McuExecError> {
    carve(image, cap, |_, _| {})
}

/// The load-order walk: sizes each node of `image` with `node_plan`,
/// places its buffers at the running per-arena totals, hands the placed
/// spans to `place` (with the node's dense index) and tallies the
/// footprint. The per-node step is [`FootprintWalk`]'s. The spans
/// handed to `place` are meaningful only when the walk returns `Ok`.
///
/// # Errors
///
/// [`McuExecError::BadParameter`] at the first invalid node, even past
/// an overflow; otherwise [`McuExecError::ArenaOverflow`] naming the
/// first node and arena to cross `cap`.
pub(crate) fn carve(
    image: &McuImage,
    cap: usize,
    mut place: impl FnMut(usize, &NodeCarve),
) -> Result<ImageFootprint, McuExecError> {
    let mut walk = FootprintWalk::new(cap);
    let mut lens = [0usize; MAX_NODES];
    for (i, spec) in image.nodes().iter().enumerate() {
        let in_len = match spec.sources[0] {
            PortSource::Channel(_) => 0,
            PortSource::Node(src) => lens[src as usize],
        };
        let (carve, out_len) = walk.step(&spec.kind, in_len, spec.consumer_mask != 0)?;
        lens[i] = out_len;
        place(i, &carve);
    }
    walk.finish()
}

/// The load-order walk one node at a time, for callers that hold no
/// [`McuImage`]: the host loader sizes its node table with it, which has
/// no [`MAX_NODES`] bound. Fed the nodes of an image in order, it
/// computes exactly [`image_footprint`] / [`check_fit`].
///
/// Every sum saturates, so a program too large for the address space
/// reaches `usize::MAX` elements (an overflow against any real `cap`)
/// instead of wrapping to a small total that would seem to fit.
#[derive(Debug, Clone)]
pub struct FootprintWalk {
    fp: ImageFootprint,
    cap: usize,
    /// The first arena crossing of `cap`, reported by `finish`.
    overflow: Option<McuExecError>,
    /// Dense index of the next node.
    next: u16,
}

impl FootprintWalk {
    /// An empty walk against arenas of `cap` elements each (`usize::MAX`
    /// for a plain footprint).
    pub const fn new(cap: usize) -> FootprintWalk {
        FootprintWalk {
            fp: ImageFootprint {
                arenas: [ArenaUse {
                    elements: 0,
                    peak_node: 0,
                    peak_elements: 0,
                }; 7],
            },
            cap,
            overflow: None,
            next: 0,
        }
    }

    /// Adds the next node in load order: `kind`, fed a payload of
    /// `in_len` elements on its first port (0 for a channel), whose
    /// payload is `consumed` by some later node (so staged on the MCU).
    /// Returns the length of the payload the node emits, the `in_len` of
    /// its consumers (0 for scalar producers).
    ///
    /// # Errors
    ///
    /// [`McuExecError::BadParameter`] when the node's parameters are
    /// invalid, exactly as [`McuCore::load`](crate::McuCore::load)
    /// rejects them.
    pub fn push(
        &mut self,
        kind: &NodeKind,
        in_len: usize,
        consumed: bool,
    ) -> Result<usize, McuExecError> {
        self.step(kind, in_len, consumed)
            .map(|(_, out_len)| out_len)
    }

    /// [`FootprintWalk::push`], also returning the node's placed spans.
    fn step(
        &mut self,
        kind: &NodeKind,
        in_len: usize,
        consumed: bool,
    ) -> Result<(NodeCarve, usize), McuExecError> {
        let node = self.next;
        self.next = self.next.saturating_add(1);
        let mut plan = node_plan(node, kind, in_len)?;
        let (fp, cap, overflow) = (&mut self.fp, self.cap, &mut self.overflow);
        let c = &mut plan.carve;
        let arenas: [(ArenaKind, &mut [&mut Span]); 5] = [
            (
                ArenaKind::Sample,
                &mut [&mut c.aux_p, &mut c.coeffs, &mut c.vec],
            ),
            (ArenaKind::Scalar, &mut [&mut c.aux_f, &mut c.wide_in]),
            (
                ArenaKind::Complex,
                &mut [&mut c.fwd, &mut c.inv, &mut c.spec],
            ),
            (ArenaKind::Swap, &mut [&mut c.swaps]),
            (ArenaKind::Mask, &mut [&mut c.mask]),
        ];
        for (kind, spans) in arenas {
            let arena = &mut fp.arenas[kind.index()];
            // One entry per node and arena: a window's ring, taper and
            // payload count as one 3 x size contribution.
            let mut elements = 0usize;
            for span in spans.iter_mut() {
                span.start = arena.elements.saturating_add(elements) as u32;
                elements = elements.saturating_add(span.cap());
            }
            arena.add(node, elements);
            *overflow = overflow.or(crossing(kind, arena, node, cap));
        }
        // A consumed payload is copied through the matching staging
        // arena on every feed; unconsumed payloads (the OUT node's) are
        // never staged.
        if consumed && plan.out_len > 0 {
            let kind = if plan.spectral_out {
                ArenaKind::StageSpectrum
            } else {
                ArenaKind::StageSample
            };
            let arena = &mut fp.arenas[kind.index()];
            arena.stage(node, plan.out_len);
            *overflow = overflow.or(crossing(kind, arena, node, cap));
        }
        Ok((plan.carve, plan.out_len))
    }

    /// The footprint of the nodes pushed so far.
    ///
    /// # Errors
    ///
    /// [`McuExecError::ArenaOverflow`] naming the first node and arena
    /// to cross the walk's `cap`.
    pub fn finish(self) -> Result<ImageFootprint, McuExecError> {
        match self.overflow {
            Some(err) => Err(err),
            None => Ok(self.fp),
        }
    }
}

/// The overflow error when `arena` has grown past `cap`.
fn crossing(kind: ArenaKind, arena: &ArenaUse, node: u16, cap: usize) -> Option<McuExecError> {
    (arena.elements > cap).then_some(McuExecError::ArenaOverflow {
        arena: kind.name(),
        node,
        needed: arena.elements,
        capacity: cap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;
    use crate::window::WindowShape;

    fn window_image(size: u32) -> McuImage {
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size,
                    hop: size,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let stat = b
            .push_node(
                NodeKind::Stat(crate::image::StatKind::Mean),
                &[PortSource::Node(win)],
                50.0,
            )
            .unwrap();
        b.finish(stat).unwrap()
    }

    #[test]
    fn window_chain_counts_ring_taper_payload_and_staging() {
        let fp = image_footprint(&window_image(64)).unwrap();
        assert_eq!(fp.arena(ArenaKind::Sample).elements, 3 * 64);
        assert_eq!(fp.arena(ArenaKind::StageSample).elements, 64);
        assert_eq!(fp.arena(ArenaKind::Scalar).elements, 0);
        assert_eq!(fp.required_capacity(), 192);
        assert!(fp.fits(192));
        assert!(!fp.fits(191));
    }

    #[test]
    fn unconsumed_payload_is_not_staged() {
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 16,
                    hop: 16,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let image = b.finish(win).unwrap();
        let fp = image_footprint(&image).unwrap();
        assert_eq!(fp.arena(ArenaKind::StageSample).elements, 0);
    }

    #[test]
    fn check_fit_names_arena_and_node() {
        let err = check_fit(&window_image(64), 100).unwrap_err();
        assert_eq!(
            err,
            McuExecError::ArenaOverflow {
                arena: "sample arena",
                node: 0,
                needed: 192,
                capacity: 100,
            }
        );
        let text = std::format!("{err}");
        assert!(text.contains("sample arena"), "{text}");
        assert!(text.contains("node 0"), "{text}");
    }

    #[test]
    fn bad_parameters_surface_at_the_same_node_as_load() {
        let mut b = ImageBuilder::new();
        b.push_node(
            NodeKind::MovingAvg { window: 0 },
            &[PortSource::Channel(0)],
            50.0,
        )
        .unwrap();
        let image = b.finish(0).unwrap();
        assert_eq!(
            image_footprint(&image).unwrap_err(),
            McuExecError::BadParameter {
                node: 0,
                what: "moving-average window must be positive",
            }
        );
    }

    #[test]
    fn spans_follow_each_arena_in_carve_order() {
        // window(16) -> fft -> spectralMagnitude: the sample arena holds
        // ring, taper, window payload, then the magnitude payload; the
        // complex arena holds the twiddles, then the spectrum.
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 16,
                    hop: 16,
                    shape: WindowShape::Hamming,
                },
                &[PortSource::Channel(0)],
                64.0,
            )
            .unwrap();
        let fft = b
            .push_node(NodeKind::Fft, &[PortSource::Node(win)], 64.0)
            .unwrap();
        let mag = b
            .push_node(NodeKind::SpectralMagnitude, &[PortSource::Node(fft)], 64.0)
            .unwrap();
        let image = b.finish(mag).unwrap();
        let mut spans = [NodeCarve::default(); 3];
        let fp = carve(&image, 128, |i, c| spans[i] = *c).unwrap();
        let at = |s: Span| (s.start, s.cap);
        assert_eq!(at(spans[0].aux_p), (0, 16));
        assert_eq!(at(spans[0].coeffs), (16, 16));
        assert_eq!(at(spans[0].vec), (32, 16));
        assert_eq!(at(spans[1].fwd), (0, 15));
        assert_eq!(at(spans[1].spec), (15, 16));
        assert_eq!(at(spans[1].wide_in), (0, 16));
        assert_eq!(at(spans[2].vec), (48, 9));
        assert_eq!(fp.arena(ArenaKind::Sample).elements, 57);
        assert_eq!(fp.arena(ArenaKind::Sample).peak_elements, 48);
        assert_eq!(fp.arena(ArenaKind::Complex).elements, 31);
    }
}
