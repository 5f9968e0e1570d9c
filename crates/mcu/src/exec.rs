//! The fixed-capacity wake-condition interpreter — the MCU core proper.
//!
//! [`McuCore`] executes an [`McuImage`] with zero allocation: every
//! buffer the host runtime's `Vec`-backed node instances would grow on
//! demand is carved at `load` time out of a handful of const-generic
//! arenas (samples, scalars, complex values, swap tables, keep masks).
//! The steady-state pass is the exact mirror of the host runtime's
//! masked interpreter pass — same feed order, same per-node arithmetic,
//! same emission guards — so on valid programs the `f64` instantiation
//! produces bit-identical wake sequences to `sidewinder-hub`, which
//! `hub/tests/mcu_equivalence.rs` pins fixture by fixture.
//!
//! Capacity model: one `CAP`-element arena per element type, shared by
//! all nodes in the order the footprint walk places them at `load`.
//! Programs that do not fit report a typed
//! [`McuExecError::ArenaOverflow`] instead of failing at runtime; after
//! a successful `load`, steady-state execution touches no allocator and
//! no `std`.

use crate::complex::Complex;
use crate::fft;
use crate::filter::{self, BandShape};
use crate::footprint::{self, Span};
use crate::goertzel;
use crate::image::{
    CapacityError, McuImage, NodeKind, NodeSpec, PortSource, StatKind, MAX_CHANNELS, MAX_NODES,
    MAX_PORTS,
};
use crate::math;
use crate::sample::Sample;
use crate::spectral;
use crate::stats;
use crate::window::{self, WindowShape};
use crate::zcr;
use core::ops::Range;

/// Default arena capacity (elements per arena). Sized for host-side
/// equivalence testing; MCU deployments instantiate `McuCore<f32, N>`
/// with `N` matched to their program and RAM budget.
pub const DEFAULT_ARENA: usize = 4096;

/// A wake-up event: the triggering sample's per-channel sequence number
/// and the value that crossed the output node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WakeEvent {
    /// Sequence number of the sample that completed the emission.
    pub seq: u64,
    /// The scalar value produced at the output node.
    pub value: f64,
}

/// Execution-time observability hooks for the soundness harness.
///
/// The interpreter threads an `ExecProbe` through its staging and
/// result paths so a harness can measure what a run *actually* touched
/// and compare it against the statically certified bounds. The same
/// statically-dispatched `const ENABLED` pattern as the host `obs`
/// crate's `EventSink` makes the hooks zero-cost when disabled: with
/// [`NoProbe`] every call site constant-folds away, which is what keeps
/// `push_sample` on the frozen-digest fast path byte-for-byte intact.
pub trait ExecProbe {
    /// Whether the probe is live. `false` lets the compiler delete
    /// every hook.
    const ENABLED: bool;

    /// A vector payload of `len` elements was copied through the
    /// sample staging arena from `node`'s result slot.
    fn staged_vector(&mut self, node: u16, len: usize);

    /// A spectrum payload of `len` elements was copied through the
    /// spectrum staging arena from `node`'s result slot.
    fn staged_spectrum(&mut self, node: u16, len: usize);

    /// Node `node` produced a fresh result during this pass.
    fn emitted(&mut self, node: u16);
}

/// The default probe: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl ExecProbe for NoProbe {
    const ENABLED: bool = false;
    fn staged_vector(&mut self, _node: u16, _len: usize) {}
    fn staged_spectrum(&mut self, _node: u16, _len: usize) {}
    fn emitted(&mut self, _node: u16) {}
}

/// Records staging high-water marks and per-node emission counts — the
/// measured side of the `measured ≤ certified` soundness pins.
#[derive(Debug, Clone, Copy)]
pub struct HighWaterProbe {
    /// Largest vector payload staged through `stage_p`, in elements.
    pub stage_sample_peak: usize,
    /// Largest spectrum payload staged through `stage_c`, in elements.
    pub stage_spectrum_peak: usize,
    /// Fresh results per node since construction.
    pub emissions: [u64; MAX_NODES],
}

impl HighWaterProbe {
    /// A probe with every mark at zero.
    pub const fn new() -> HighWaterProbe {
        HighWaterProbe {
            stage_sample_peak: 0,
            stage_spectrum_peak: 0,
            emissions: [0; MAX_NODES],
        }
    }
}

impl Default for HighWaterProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecProbe for HighWaterProbe {
    const ENABLED: bool = true;

    fn staged_vector(&mut self, _node: u16, len: usize) {
        if len > self.stage_sample_peak {
            self.stage_sample_peak = len;
        }
    }

    fn staged_spectrum(&mut self, _node: u16, len: usize) {
        if len > self.stage_spectrum_peak {
            self.stage_spectrum_peak = len;
        }
    }

    fn emitted(&mut self, node: u16) {
        self.emissions[node as usize] += 1;
    }
}

/// Errors raised while loading or executing an image.
///
/// The `Display` strings of the execution-time variants mirror the host
/// runtime's `ExecError`, with the dense node index in place of the IR
/// identifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum McuExecError {
    /// `push_sample` before a successful `load`.
    NotLoaded,
    /// A channel index at or above [`MAX_CHANNELS`].
    BadChannel {
        /// The offending channel index.
        channel: u8,
    },
    /// A transform node received a window whose length is not a power
    /// of two.
    BadTransformLength {
        /// The node's dense index.
        node: u16,
        /// The offending length.
        len: usize,
    },
    /// A node received a value of the wrong type (scalar where a vector
    /// was expected, and so on).
    TypeError {
        /// The node's dense index.
        node: u16,
    },
    /// A value arrived on a port the node does not have.
    BadPort {
        /// The node's dense index.
        node: u16,
        /// The offending port.
        port: usize,
    },
    /// A node parameter failed validation at load time.
    BadParameter {
        /// The node's dense index.
        node: u16,
        /// What was wrong.
        what: &'static str,
    },
    /// A node's carve would overflow one of the fixed arenas — detected
    /// by the pre-flight footprint check, before anything is carved.
    ArenaOverflow {
        /// The arena that would overflow (see
        /// [`ArenaKind::name`](crate::footprint::ArenaKind::name)).
        arena: &'static str,
        /// Dense index of the node whose carve crosses the capacity.
        node: u16,
        /// Elements the program needs by the end of that node's carve.
        needed: usize,
        /// Elements the core provides per arena.
        capacity: usize,
    },
    /// The program needs more arena storage than the core provides.
    Capacity(CapacityError),
}

impl core::fmt::Display for McuExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            McuExecError::NotLoaded => write!(f, "no program image loaded"),
            McuExecError::BadChannel { channel } => {
                write!(f, "channel {channel} beyond the core's channel limit")
            }
            McuExecError::BadTransformLength { node, len } => {
                write!(f, "node {node}: window length {len} is not a power of two")
            }
            McuExecError::TypeError { node } => {
                write!(f, "node {node}: received a value of the wrong type")
            }
            McuExecError::BadPort { node, port } => {
                write!(f, "node {node}: no input port {port}")
            }
            McuExecError::BadParameter { node, what } => {
                write!(f, "node {node}: invalid parameter: {what}")
            }
            McuExecError::ArenaOverflow {
                arena,
                node,
                needed,
                capacity,
            } => write!(
                f,
                "node {node}: {arena} exhausted: needs {needed} elements, capacity {capacity}"
            ),
            McuExecError::Capacity(e) => write!(f, "{e}"),
        }
    }
}

impl core::error::Error for McuExecError {}

impl From<CapacityError> for McuExecError {
    fn from(e: CapacityError) -> Self {
        McuExecError::Capacity(e)
    }
}

/// Per-node mutable state plus the arena spans its kind was assigned.
/// One flat struct for all kinds keeps the state table a plain array;
/// each kind touches only its own fields.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    /// Window ring buffer / zcr-variance scratch (sample arena).
    aux_p: Span,
    /// Tabulated taper coefficients (sample arena).
    coeffs: Span,
    /// Moving-average ring / Goertzel probe table (scalar arena).
    aux_f: Span,
    /// Bit-reversal swap table (swap arena).
    swaps: Span,
    /// Live entries in `swaps` once planned.
    swaps_len: u32,
    /// Forward twiddle table (complex arena).
    fwd: Span,
    /// Inverse twiddle table (complex arena).
    inv: Span,
    /// Band-filter keep mask (mask arena).
    mask: Span,
    /// Widening scratch for `f32` pipelines (scalar arena).
    wide_in: Span,
    /// Planned transform length / probed window length; `u32::MAX`
    /// until first planned (mirrors the host's lazily built plans).
    planned_len: u32,
    /// Live probe count in `aux_f` for Goertzel kinds.
    probe_len: u32,
    /// Ring head (windower / moving average).
    head: u32,
    /// Ring fill (windower / moving average).
    fill: u32,
    /// Samples since the last emission (sliding windower).
    since_emit: u32,
    /// Whether the sliding windower has emitted its first window.
    primed: bool,
    /// EMA state value.
    ema: f64,
    /// Whether `ema` holds a previous output.
    ema_set: bool,
    /// Per-port latest sequence tags (joins).
    latest_seq: [u64; MAX_PORTS],
    /// Per-port latest values (joins).
    latest_val: [f64; MAX_PORTS],
    /// Bitmask of ports that have received a value (joins).
    latest_set: u8,
    /// Current streak length (`sustained`).
    streak: u32,
    /// Last arrival sequence (`sustained`).
    last_seq: u64,
    /// Whether `last_seq` is valid.
    has_last: bool,
}

impl NodeState {
    const EMPTY: NodeState = NodeState {
        aux_p: Span::EMPTY,
        coeffs: Span::EMPTY,
        aux_f: Span::EMPTY,
        swaps: Span::EMPTY,
        swaps_len: 0,
        fwd: Span::EMPTY,
        inv: Span::EMPTY,
        mask: Span::EMPTY,
        wide_in: Span::EMPTY,
        planned_len: u32::MAX,
        probe_len: 0,
        head: 0,
        fill: 0,
        since_emit: 0,
        primed: false,
        ema: 0.0,
        ema_set: false,
        latest_seq: [0; MAX_PORTS],
        latest_val: [0.0; MAX_PORTS],
        latest_set: 0,
        streak: 0,
        last_seq: 0,
        has_last: false,
    };

    /// Clears the mutable execution state while keeping spans and plans
    /// — the per-node half of [`McuCore::reset`], mirroring the host
    /// instances' `reset`.
    fn reset(&mut self) {
        self.head = 0;
        self.fill = 0;
        self.since_emit = 0;
        self.primed = false;
        self.ema = 0.0;
        self.ema_set = false;
        self.latest_seq = [0; MAX_PORTS];
        self.latest_val = [0.0; MAX_PORTS];
        self.latest_set = 0;
        self.streak = 0;
        self.last_seq = 0;
        self.has_last = false;
    }
}

/// The type of value a result slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    Empty,
    Scalar,
    Vector,
    Spectrum,
}

/// One node's result slot: the fixed-capacity twin of the host
/// runtime's `ResultSlot`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    kind: SlotKind,
    seq: u64,
    scalar: f64,
    /// Vector payload span (sample arena) and live length.
    vec: Span,
    vec_len: u32,
    /// Spectrum payload span (complex arena) and live length.
    spec: Span,
    spec_len: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        kind: SlotKind::Empty,
        seq: 0,
        scalar: 0.0,
        vec: Span::EMPTY,
        vec_len: 0,
        spec: Span::EMPTY,
        spec_len: 0,
    };

    fn set_scalar(&mut self, seq: u64, value: f64) {
        self.kind = SlotKind::Scalar;
        self.seq = seq;
        self.scalar = value;
    }
}

/// A staged input on its way into a node: scalars by value, payloads by
/// length into the staging arrays they were copied to.
enum Staged {
    Scalar(f64),
    Vector(usize),
    Spectrum(usize),
}

/// A borrowed input value, the mirror of the host's `ValueRef`.
enum In<'a, P: Sample> {
    Scalar(f64),
    Vector(&'a [P]),
    Spectrum(&'a [Complex]),
}

impl<'a, P: Sample> In<'a, P> {
    fn as_scalar(&self) -> Option<f64> {
        match *self {
            In::Scalar(x) => Some(x),
            _ => None,
        }
    }

    fn as_vector(&self) -> Option<&'a [P]> {
        match *self {
            In::Vector(v) => Some(v),
            _ => None,
        }
    }

    fn as_spectrum(&self) -> Option<&'a [Complex]> {
        match *self {
            In::Spectrum(s) => Some(s),
            _ => None,
        }
    }
}

/// Mutable views over every arena, handed to the per-kind executor.
struct Arenas<'a, P: Sample> {
    p: &'a mut [P],
    f: &'a mut [f64],
    c: &'a mut [Complex],
    s: &'a mut [(u32, u32)],
    b: &'a mut [bool],
}

/// Identity of one feed: which node, which port, at what sequence.
#[derive(Clone, Copy)]
struct FeedCtx {
    node: u16,
    port: usize,
    seq: u64,
}

/// What a lazily built transform plan must provide.
struct PlanNeeds {
    fwd: bool,
    inv: bool,
    band: Option<(BandShape, f64)>,
}

/// The `no_std` hub interpreter: loads an [`McuImage`] into
/// fixed-capacity arenas and executes it sample by sample.
///
/// `P` is the vector-payload precision (`f64` for host bit-equivalence,
/// `f32` for hardware-faithful deployments); `CAP` is the per-arena
/// element capacity. The struct is large (roughly `7 * CAP * 8` bytes
/// at `P = f64`); embed it in a `static` or a `Box` rather than the
/// stack for big capacities.
pub struct McuCore<P: Sample = f64, const CAP: usize = DEFAULT_ARENA> {
    image: McuImage,
    loaded: bool,
    states: [NodeState; MAX_NODES],
    slots: [Slot; MAX_NODES],
    channel_seq: [u64; MAX_CHANNELS],
    /// Per channel: every node the channel feeds is a single-source
    /// window, so `push_samples` may fill their rings a stretch at a
    /// time.
    window_fill: [bool; MAX_CHANNELS],
    wake_count: u64,
    /// Sample-typed arena: window rings, taper tables, vector payloads.
    arena_p: [P; CAP],
    /// f64 arena: moving-average rings, probe tables, widening scratch.
    arena_f: [f64; CAP],
    /// Complex arena: twiddle tables and spectrum payloads.
    arena_c: [Complex; CAP],
    /// Bit-reversal swap tables.
    arena_s: [(u32, u32); CAP],
    /// Band-filter keep masks.
    arena_b: [bool; CAP],
    /// Staging copy of a producer's vector payload while it is fed.
    stage_p: [P; CAP],
    /// Staging copy of a producer's spectrum payload while it is fed.
    stage_c: [Complex; CAP],
}

impl<P: Sample, const CAP: usize> Default for McuCore<P, CAP> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Sample, const CAP: usize> McuCore<P, CAP> {
    /// Creates an empty core. `const`, so a core can live in a
    /// `static` — the zero-heap deployment shape for MCU targets.
    pub const fn new() -> Self {
        McuCore {
            image: McuImage::EMPTY,
            loaded: false,
            states: [NodeState::EMPTY; MAX_NODES],
            slots: [Slot::EMPTY; MAX_NODES],
            channel_seq: [0; MAX_CHANNELS],
            window_fill: [false; MAX_CHANNELS],
            wake_count: 0,
            arena_p: [P::ZERO; CAP],
            arena_f: [0.0; CAP],
            arena_c: [Complex::ZERO; CAP],
            arena_s: [(0, 0); CAP],
            arena_b: [false; CAP],
            stage_p: [P::ZERO; CAP],
            stage_c: [Complex::ZERO; CAP],
        }
    }

    /// Whether an image has been loaded.
    pub fn is_loaded(&self) -> bool {
        self.loaded
    }

    /// Total wake-ups since load (or the last [`reset`](Self::reset)).
    pub fn wake_count(&self) -> u64 {
        self.wake_count
    }

    /// The loaded image.
    pub fn image(&self) -> &McuImage {
        &self.image
    }

    /// Loads an image: validates node parameters and carves every
    /// buffer the program needs out of the arenas.
    ///
    /// The spans come from the footprint walk the certifier also runs
    /// ([`check_fit`](crate::footprint::check_fit)), so what `load`
    /// carves is the certified footprint. Parameter validation mirrors
    /// the host loader's checks and messages.
    ///
    /// # Errors
    ///
    /// [`McuExecError::BadParameter`] on invalid node parameters,
    /// [`McuExecError::ArenaOverflow`] when the program's footprint
    /// exceeds `CAP`, naming the arena and the offending node. Either
    /// way no arena is touched and the core stays unloaded.
    pub fn load(&mut self, image: &McuImage) -> Result<(), McuExecError> {
        self.loaded = false;
        self.states = [NodeState::EMPTY; MAX_NODES];
        self.slots = [Slot::EMPTY; MAX_NODES];
        self.channel_seq = [0; MAX_CHANNELS];
        self.window_fill = [false; MAX_CHANNELS];
        self.wake_count = 0;

        let McuCore { states, slots, .. } = self;
        footprint::carve(image, CAP, |i, c| {
            states[i] = NodeState {
                aux_p: c.aux_p,
                coeffs: c.coeffs,
                aux_f: c.aux_f,
                swaps: c.swaps,
                fwd: c.fwd,
                inv: c.inv,
                mask: c.mask,
                wide_in: c.wide_in,
                ..NodeState::EMPTY
            };
            slots[i].vec = c.vec;
            slots[i].spec = c.spec;
        })?;
        for (st, spec) in self.states.iter().zip(image.nodes()) {
            if let NodeKind::Window { shape, .. } = spec.kind {
                shape.fill_coefficients(&mut self.arena_p[st.coeffs.full()]);
            }
        }
        for (ci, fill) in self.window_fill.iter_mut().enumerate() {
            let mut direct = image.direct_feed_mask(ci);
            *fill = image.entry_mask(ci) == 0;
            while direct != 0 {
                let i = direct.trailing_zeros() as usize;
                direct &= direct - 1;
                *fill &= matches!(image.nodes()[i].kind, NodeKind::Window { .. });
            }
        }
        self.image = *image;
        self.loaded = true;
        Ok(())
    }

    /// Ingests one sample on a channel, running a full interpreter pass
    /// and invoking `on_wake` for each wake-up it produces — the mirror
    /// of the host runtime's masked pass.
    ///
    /// # Errors
    ///
    /// [`McuExecError::NotLoaded`] before a `load`, otherwise the
    /// execution errors of the nodes the sample reaches.
    pub fn push_sample(
        &mut self,
        channel: u8,
        sample: f64,
        on_wake: &mut impl FnMut(WakeEvent),
    ) -> Result<(), McuExecError> {
        self.push_sample_probed(channel, sample, on_wake, &mut NoProbe)
    }

    /// [`push_sample`](Self::push_sample) with an [`ExecProbe`]
    /// observing staging copies and fresh results. With [`NoProbe`]
    /// this *is* `push_sample` — the hooks compile away.
    ///
    /// # Errors
    ///
    /// As [`push_sample`](Self::push_sample).
    pub fn push_sample_probed<Pr: ExecProbe>(
        &mut self,
        channel: u8,
        sample: f64,
        on_wake: &mut impl FnMut(WakeEvent),
        probe: &mut Pr,
    ) -> Result<(), McuExecError> {
        if !self.loaded {
            return Err(McuExecError::NotLoaded);
        }
        let ci = channel as usize;
        if ci >= MAX_CHANNELS {
            return Err(McuExecError::BadChannel { channel });
        }
        let seq = self.channel_seq[ci];
        self.channel_seq[ci] += 1;

        let mut ready = self.image.entry_mask(ci);
        let mut fresh: u128 = 0;
        // Single-source entry nodes first, in increasing index order,
        // without consulting the ready set — exactly the host pass.
        let mut direct = self.image.direct_feed_mask(ci);
        while direct != 0 {
            let i = direct.trailing_zeros() as usize;
            direct &= direct - 1;
            self.slots[i].kind = SlotKind::Empty;
            self.dispatch(i, 0, seq, Staged::Scalar(sample))?;
            self.note_result(i, &mut ready, &mut fresh, on_wake, probe);
        }
        while ready != 0 {
            let i = ready.trailing_zeros() as usize;
            ready &= ready - 1;
            self.slots[i].kind = SlotKind::Empty;
            let spec = self.image.nodes()[i];
            for port in 0..spec.port_count as usize {
                match spec.sources[port] {
                    PortSource::Channel(c) if c == channel => {
                        self.dispatch(i, port, seq, Staged::Scalar(sample))?;
                    }
                    PortSource::Channel(_) => {}
                    PortSource::Node(src) => {
                        if fresh & (1u128 << src) != 0 {
                            self.feed_from(i, port, src as usize, probe)?;
                        }
                    }
                }
            }
            self.note_result(i, &mut ready, &mut fresh, on_wake, probe);
        }
        Ok(())
    }

    /// Ingests a batch of samples on one channel: the same wakes, in the
    /// same order, as pushing each sample.
    ///
    /// When every node the channel feeds is a single-source window, the
    /// samples that complete no window are copied straight into the
    /// rings (see [`window::quiet_len`]); only a sample that completes
    /// a window runs a pass.
    ///
    /// # Errors
    ///
    /// Stops at the first failing sample; see [`push_sample`](Self::push_sample).
    pub fn push_samples(
        &mut self,
        channel: u8,
        samples: &[f64],
        on_wake: &mut impl FnMut(WakeEvent),
    ) -> Result<(), McuExecError> {
        let ci = channel as usize;
        if !(self.loaded && self.window_fill.get(ci) == Some(&true)) {
            for &x in samples {
                self.push_sample(channel, x, on_wake)?;
            }
            return Ok(());
        }
        let mut rest = samples;
        while !rest.is_empty() {
            let (quiet, tail) = rest.split_at(self.quiet_run(ci).min(rest.len()));
            if !quiet.is_empty() {
                self.fill_windows(ci, quiet);
            }
            let Some((&x, tail)) = tail.split_first() else {
                break;
            };
            self.push_sample(channel, x, on_wake)?;
            rest = tail;
        }
        Ok(())
    }

    /// How many samples channel `ci`, which qualifies for the fill, can
    /// take before one of them completes a window.
    fn quiet_run(&self, ci: usize) -> usize {
        let mut quiet = usize::MAX;
        let mut direct = self.image.direct_feed_mask(ci);
        while direct != 0 {
            let i = direct.trailing_zeros() as usize;
            direct &= direct - 1;
            if let NodeKind::Window { size, hop, .. } = self.image.nodes()[i].kind {
                let st = &self.states[i];
                quiet = quiet.min(window::quiet_len(
                    size as usize,
                    hop as usize,
                    st.fill as usize,
                    st.primed,
                    st.since_emit as usize,
                ));
            }
        }
        quiet
    }

    /// Appends `samples`, none of which completes a window (at most
    /// [`quiet_run`](Self::quiet_run) of them), to the ring of every
    /// window channel `ci` feeds, narrowing each to `P` as the
    /// per-sample feed does, and advances the channel's sequence. The
    /// windows' result slots are cleared, as each pass would.
    fn fill_windows(&mut self, ci: usize, samples: &[f64]) {
        let n = samples.len();
        let mut direct = self.image.direct_feed_mask(ci);
        while direct != 0 {
            let i = direct.trailing_zeros() as usize;
            direct &= direct - 1;
            let NodeKind::Window { size, .. } = self.image.nodes()[i].kind else {
                continue;
            };
            let len = size as usize;
            let st = &mut self.states[i];
            let ring = &mut self.arena_p[st.aux_p.range(len)];
            // A full ring (a primed sliding window) overwrites its oldest
            // sample at `head`; a filling one appends after its `fill`.
            let full = st.fill as usize == len;
            let start = if full {
                st.head as usize
            } else {
                (st.head as usize + st.fill as usize) % len
            };
            let first = (len - start).min(n);
            for (slot, &x) in ring[start..start + first].iter_mut().zip(samples) {
                *slot = P::from_f64(x);
            }
            for (slot, &x) in ring.iter_mut().zip(&samples[first..]) {
                *slot = P::from_f64(x);
            }
            if full {
                st.head = ((st.head as usize + n) % len) as u32;
                st.since_emit += n as u32;
            } else {
                st.fill += n as u32;
            }
            self.slots[i].kind = SlotKind::Empty;
        }
        self.channel_seq[ci] += n as u64;
    }

    /// [`push_samples`](Self::push_samples) with an [`ExecProbe`].
    ///
    /// # Errors
    ///
    /// Stops at the first failing sample; see [`push_sample`](Self::push_sample).
    pub fn push_samples_probed<Pr: ExecProbe>(
        &mut self,
        channel: u8,
        samples: &[f64],
        on_wake: &mut impl FnMut(WakeEvent),
        probe: &mut Pr,
    ) -> Result<(), McuExecError> {
        for &x in samples {
            self.push_sample_probed(channel, x, on_wake, probe)?;
        }
        Ok(())
    }

    /// Resets all mutable execution state (rings, averages, streaks,
    /// sequence counters) while keeping the image, arena layout, and
    /// built transform plans — the mirror of the host runtime's
    /// `reset`.
    pub fn reset(&mut self) {
        for st in self.states.iter_mut() {
            st.reset();
        }
        for slot in self.slots.iter_mut() {
            slot.kind = SlotKind::Empty;
        }
        self.channel_seq = [0; MAX_CHANNELS];
        self.wake_count = 0;
    }

    /// Books node `i`'s result into the ready/fresh sets and fires the
    /// wake callback when it is the scalar-producing output node.
    fn note_result<Pr: ExecProbe>(
        &mut self,
        i: usize,
        ready: &mut u128,
        fresh: &mut u128,
        on_wake: &mut impl FnMut(WakeEvent),
        probe: &mut Pr,
    ) {
        let slot = self.slots[i];
        if slot.kind == SlotKind::Empty {
            return;
        }
        if Pr::ENABLED {
            probe.emitted(i as u16);
        }
        *fresh |= 1u128 << i;
        *ready |= self.image.nodes()[i].consumer_mask;
        if i == self.image.out_index() && slot.kind == SlotKind::Scalar {
            self.wake_count += 1;
            on_wake(WakeEvent {
                seq: slot.seq,
                value: slot.scalar,
            });
        }
    }

    /// Copies producer `src`'s result into the staging arrays and feeds
    /// it to node `i` on `port`, tagged with the producer's sequence.
    fn feed_from<Pr: ExecProbe>(
        &mut self,
        i: usize,
        port: usize,
        src: usize,
        probe: &mut Pr,
    ) -> Result<(), McuExecError> {
        let slot = self.slots[src];
        let staged = match slot.kind {
            SlotKind::Empty => return Ok(()),
            SlotKind::Scalar => Staged::Scalar(slot.scalar),
            SlotKind::Vector => {
                let len = slot.vec_len as usize;
                if Pr::ENABLED {
                    probe.staged_vector(src as u16, len);
                }
                self.stage_p[..len].copy_from_slice(&self.arena_p[slot.vec.range(len)]);
                Staged::Vector(len)
            }
            SlotKind::Spectrum => {
                let len = slot.spec_len as usize;
                if Pr::ENABLED {
                    probe.staged_spectrum(src as u16, len);
                }
                self.stage_c[..len].copy_from_slice(&self.arena_c[slot.spec.range(len)]);
                Staged::Spectrum(len)
            }
        };
        self.dispatch(i, port, slot.seq, staged)
    }

    /// Resolves the staged input into a borrowed value and runs the
    /// node's kind over the arenas.
    fn dispatch(
        &mut self,
        i: usize,
        port: usize,
        seq: u64,
        staged: Staged,
    ) -> Result<(), McuExecError> {
        let McuCore {
            image,
            states,
            slots,
            arena_p,
            arena_f,
            arena_c,
            arena_s,
            arena_b,
            stage_p,
            stage_c,
            ..
        } = self;
        let spec = image.nodes()[i];
        let input = match staged {
            Staged::Scalar(x) => In::Scalar(x),
            Staged::Vector(len) => In::Vector(&stage_p[..len]),
            Staged::Spectrum(len) => In::Spectrum(&stage_c[..len]),
        };
        exec_kind(
            FeedCtx {
                node: i as u16,
                port,
                seq,
            },
            &spec,
            &mut states[i],
            &mut slots[i],
            Arenas {
                p: &mut arena_p[..],
                f: &mut arena_f[..],
                c: &mut arena_c[..],
                s: &mut arena_s[..],
                b: &mut arena_b[..],
            },
            input,
        )
    }
}

/// Two disjoint mutable subslices of one slice, in either order.
fn two_ranges<T>(s: &mut [T], a: Range<usize>, b: Range<usize>) -> (&mut [T], &mut [T]) {
    if a.end <= b.start {
        let (lo, hi) = s.split_at_mut(b.start);
        let b_len = b.end - b.start;
        (&mut lo[a], &mut hi[..b_len])
    } else {
        debug_assert!(b.end <= a.start, "overlapping arena spans");
        let (lo, hi) = s.split_at_mut(a.start);
        let a_len = a.end - a.start;
        (&mut hi[..a_len], &mut lo[b])
    }
}

/// Three disjoint mutable subslices; `c` must lie after `a` and `b`
/// (the footprint walk places each arena's spans in ascending order,
/// so per-node span triples always satisfy this).
fn tri_ranges<T>(
    s: &mut [T],
    a: Range<usize>,
    b: Range<usize>,
    c: Range<usize>,
) -> (&mut [T], &mut [T], &mut [T]) {
    debug_assert!(a.end <= c.start && b.end <= c.start, "span order violated");
    let (rest, tail) = s.split_at_mut(c.start);
    let c_len = c.end - c.start;
    let (a_s, b_s) = two_ranges(rest, a, b);
    (a_s, b_s, &mut tail[..c_len])
}

/// (Re)builds a node's transform tables when the incoming window length
/// differs from the planned length — the fixed-capacity mirror of the
/// host's `ensure_fft_plan` / `ensure_band_plan`.
fn ensure_plan(
    node: u16,
    st: &mut NodeState,
    n: usize,
    s: &mut [(u32, u32)],
    c: &mut [Complex],
    b: &mut [bool],
    needs: &PlanNeeds,
) -> Result<(), McuExecError> {
    if st.planned_len == n as u32 {
        return Ok(());
    }
    fft::check_len(n).map_err(|e| McuExecError::BadTransformLength { node, len: e.len })?;
    let sc = fft::swap_count(n);
    let tc = fft::twiddle_count(n);
    if sc > st.swaps.cap() {
        return Err(arena_overflow("swap arena", sc, st.swaps.cap()));
    }
    if needs.fwd && tc > st.fwd.cap() {
        return Err(arena_overflow("complex arena", tc, st.fwd.cap()));
    }
    if needs.inv && tc > st.inv.cap() {
        return Err(arena_overflow("complex arena", tc, st.inv.cap()));
    }
    if needs.band.is_some() && n > st.mask.cap() {
        return Err(arena_overflow("mask arena", n, st.mask.cap()));
    }
    {
        let swaps = &mut s[st.swaps.range(sc)];
        let mut k = 0;
        fft::for_each_swap(n, |i, j| {
            swaps[k] = (i, j);
            k += 1;
        });
        st.swaps_len = sc as u32;
    }
    if needs.fwd {
        let table = &mut c[st.fwd.range(tc)];
        let mut k = 0;
        fft::for_each_twiddle(n, -1.0, |w| {
            table[k] = w;
            k += 1;
        });
    }
    if needs.inv {
        let table = &mut c[st.inv.range(tc)];
        let mut k = 0;
        fft::for_each_twiddle(n, 1.0, |w| {
            table[k] = w;
            k += 1;
        });
    }
    if let Some((shape, rate)) = needs.band {
        filter::fill_keep_mask(&mut b[st.mask.range(n)], rate, shape);
    }
    st.planned_len = n as u32;
    Ok(())
}

/// Rebuilds a Goertzel node's probe table when the window length
/// changes — the mirror of the host's `replan_probes`.
fn replan_probes(
    st: &mut NodeState,
    f: &mut [f64],
    n: usize,
    rate_hz: f64,
    lo_hz: f64,
    hi_hz: f64,
    skip_dc: bool,
) -> Result<(), McuExecError> {
    if st.planned_len == n as u32 {
        return Ok(());
    }
    st.planned_len = n as u32;
    st.probe_len = 0;
    if rate_hz > 0.0 && n > 0 {
        let dst = &mut f[st.aux_f.full()];
        let mut count = 0usize;
        for k in usize::from(skip_dc)..=n / 2 {
            let freq = fft::bin_to_frequency(k, n, rate_hz);
            if lo_hz <= freq && freq <= hi_hz {
                if count >= dst.len() {
                    return Err(arena_overflow("scalar arena", count + 1, dst.len()));
                }
                dst[count] = freq;
                count += 1;
            }
        }
        st.probe_len = count as u32;
    }
    Ok(())
}

fn arena_overflow(what: &'static str, needed: usize, capacity: usize) -> McuExecError {
    McuExecError::Capacity(CapacityError {
        what,
        needed,
        capacity,
    })
}

/// Copies the window ring (in logical order starting at `head`) into
/// the node's output span and applies the tabulated taper — the mirror
/// of the host `Windower::emit_into`.
fn emit_window<P: Sample>(
    p: &mut [P],
    st: &NodeState,
    slot: &Slot,
    len: usize,
    shape: WindowShape,
    head: usize,
) {
    let (ring, coeffs, out) = tri_ranges(
        p,
        st.aux_p.range(len),
        st.coeffs.range(len),
        slot.vec.range(len),
    );
    for (k, slot) in out.iter_mut().enumerate() {
        *slot = ring[(head + k) % len];
    }
    if shape != WindowShape::Rectangular {
        for (x, &cf) in out.iter_mut().zip(coeffs.iter()) {
            *x = *x * cf;
        }
    }
}

/// Executes one feed against one node — every per-kind body is the
/// operation-for-operation mirror of the host `AlgoInstance::feed_ref`.
fn exec_kind<P: Sample>(
    ctx: FeedCtx,
    spec: &NodeSpec,
    st: &mut NodeState,
    slot: &mut Slot,
    ar: Arenas<'_, P>,
    input: In<'_, P>,
) -> Result<(), McuExecError> {
    let Arenas { p, f, c, s, b } = ar;
    let node = ctx.node;
    let seq = ctx.seq;
    let type_err = McuExecError::TypeError { node };
    match spec.kind {
        NodeKind::Window { size, hop, shape } => {
            let x = input.as_scalar().ok_or(type_err)?;
            // The precision boundary: samples narrow to `P` as they
            // enter the ring, exactly like the host windower.
            let x = P::from_f64(x);
            let (len, hop) = (size as usize, hop as usize);
            let ring_start = st.aux_p.start as usize;
            if hop == len {
                // Non-overlapping windows partition the stream:
                // sequential fill, emit, restart.
                p[ring_start + st.fill as usize] = x;
                st.fill += 1;
                if (st.fill as usize) < len {
                    return Ok(());
                }
                emit_window(p, st, slot, len, shape, 0);
                st.fill = 0;
            } else {
                if st.fill as usize == len {
                    st.head = ((st.head as usize + 1) % len) as u32;
                    st.fill -= 1;
                }
                p[ring_start + (st.head as usize + st.fill as usize) % len] = x;
                st.fill += 1;
                if (st.fill as usize) < len {
                    return Ok(());
                }
                let emit = if !st.primed {
                    st.primed = true;
                    st.since_emit = 0;
                    true
                } else {
                    st.since_emit += 1;
                    if st.since_emit as usize == hop {
                        st.since_emit = 0;
                        true
                    } else {
                        false
                    }
                };
                if !emit {
                    return Ok(());
                }
                emit_window(p, st, slot, len, shape, st.head as usize);
            }
            slot.kind = SlotKind::Vector;
            slot.vec_len = len as u32;
            slot.seq = seq;
        }
        NodeKind::Fft => {
            let window = input.as_vector().ok_or(type_err)?;
            let n = window.len();
            ensure_plan(
                node,
                st,
                n,
                s,
                c,
                b,
                &PlanNeeds {
                    fwd: true,
                    inv: false,
                    band: None,
                },
            )?;
            if n > st.wide_in.cap() {
                return Err(arena_overflow("scalar arena", n, st.wide_in.cap()));
            }
            if n > slot.spec.cap() {
                return Err(arena_overflow("complex arena", n, slot.spec.cap()));
            }
            let wide = P::widen_slice_into(window, &mut f[st.wide_in.full()]);
            let (spec_s, fwd_s) =
                two_ranges(c, slot.spec.range(n), st.fwd.range(fft::twiddle_count(n)));
            for (z, &x) in spec_s.iter_mut().zip(wide.iter()) {
                *z = Complex::from_real(x);
            }
            fft::run_butterflies(spec_s, &s[st.swaps.range(st.swaps_len as usize)], fwd_s);
            slot.kind = SlotKind::Spectrum;
            slot.spec_len = n as u32;
            slot.seq = seq;
        }
        NodeKind::Ifft => {
            let spectrum = input.as_spectrum().ok_or(type_err)?;
            let n = spectrum.len();
            ensure_plan(
                node,
                st,
                n,
                s,
                c,
                b,
                &PlanNeeds {
                    fwd: false,
                    inv: true,
                    band: None,
                },
            )?;
            if n > slot.spec.cap() {
                return Err(arena_overflow("complex arena", n, slot.spec.cap()));
            }
            if n > slot.vec.cap() {
                return Err(arena_overflow("sample arena", n, slot.vec.cap()));
            }
            // The spectrum span doubles as the inverse-transform
            // scratch; the result itself is the real part, a vector.
            let (spec_s, inv_s) =
                two_ranges(c, slot.spec.range(n), st.inv.range(fft::twiddle_count(n)));
            spec_s.copy_from_slice(spectrum);
            fft::run_butterflies(spec_s, &s[st.swaps.range(st.swaps_len as usize)], inv_s);
            fft::scale_inverse(spec_s);
            for (o, z) in p[slot.vec.range(n)].iter_mut().zip(spec_s.iter()) {
                *o = P::from_f64(z.re);
            }
            slot.kind = SlotKind::Vector;
            slot.vec_len = n as u32;
            slot.seq = seq;
        }
        NodeKind::SpectralMagnitude => {
            let spectrum = input.as_spectrum().ok_or(type_err)?;
            if !spectrum.is_empty() {
                let m = spectrum.len() / 2 + 1;
                if m > slot.vec.cap() {
                    return Err(arena_overflow("sample arena", m, slot.vec.cap()));
                }
                for (o, z) in p[slot.vec.range(m)].iter_mut().zip(spectrum[..m].iter()) {
                    *o = P::from_f64(z.magnitude());
                }
                slot.kind = SlotKind::Vector;
                slot.vec_len = m as u32;
                slot.seq = seq;
            }
        }
        NodeKind::MovingAvg { window } => {
            let x = input.as_scalar().ok_or(type_err)?;
            let w = window as usize;
            let ring = &mut f[st.aux_f.range(w)];
            if st.fill as usize == w {
                st.head = ((st.head as usize + 1) % w) as u32;
                st.fill -= 1;
            }
            ring[(st.head as usize + st.fill as usize) % w] = x;
            st.fill += 1;
            if st.fill as usize == w {
                // Oldest-to-newest sum from zero, then divide: the
                // exact reduction order of the host moving average.
                let mut sum = 0.0;
                for k in 0..w {
                    sum += ring[(st.head as usize + k) % w];
                }
                slot.set_scalar(seq, sum / w as f64);
            }
        }
        NodeKind::ExpMovingAvg { alpha } => {
            let x = input.as_scalar().ok_or(type_err)?;
            let y = if st.ema_set {
                alpha * x + (1.0 - alpha) * st.ema
            } else {
                x
            };
            st.ema = y;
            st.ema_set = true;
            slot.set_scalar(seq, y);
        }
        NodeKind::LowPass { cutoff_hz } | NodeKind::HighPass { cutoff_hz } => {
            let window = input.as_vector().ok_or(type_err)?;
            let n = window.len();
            let shape = if matches!(spec.kind, NodeKind::LowPass { .. }) {
                BandShape::LowPass { cutoff_hz }
            } else {
                BandShape::HighPass { cutoff_hz }
            };
            ensure_plan(
                node,
                st,
                n,
                s,
                c,
                b,
                &PlanNeeds {
                    fwd: true,
                    inv: true,
                    band: Some((shape, spec.rate_hz)),
                },
            )?;
            if n > st.wide_in.cap() {
                return Err(arena_overflow("scalar arena", n, st.wide_in.cap()));
            }
            if n > slot.spec.cap() {
                return Err(arena_overflow("complex arena", n, slot.spec.cap()));
            }
            if n > slot.vec.cap() {
                return Err(arena_overflow("sample arena", n, slot.vec.cap()));
            }
            let tc = fft::twiddle_count(n);
            let wide = P::widen_slice_into(window, &mut f[st.wide_in.full()]);
            {
                let (spec_s, fwd_s) = two_ranges(c, slot.spec.range(n), st.fwd.range(tc));
                for (z, &x) in spec_s.iter_mut().zip(wide.iter()) {
                    *z = Complex::from_real(x);
                }
                fft::run_butterflies(spec_s, &s[st.swaps.range(st.swaps_len as usize)], fwd_s);
                for (z, &keep) in spec_s.iter_mut().zip(b[st.mask.range(n)].iter()) {
                    if !keep {
                        *z = Complex::ZERO;
                    }
                }
            }
            {
                let (spec_s, inv_s) = two_ranges(c, slot.spec.range(n), st.inv.range(tc));
                fft::run_butterflies(spec_s, &s[st.swaps.range(st.swaps_len as usize)], inv_s);
                fft::scale_inverse(spec_s);
                for (o, z) in p[slot.vec.range(n)].iter_mut().zip(spec_s.iter()) {
                    *o = P::from_f64(z.re);
                }
            }
            slot.kind = SlotKind::Vector;
            slot.vec_len = n as u32;
            slot.seq = seq;
        }
        NodeKind::VectorMagnitude => {
            let x = input.as_scalar().ok_or(type_err)?;
            let ports = spec.port_count as usize;
            if ctx.port >= ports {
                return Err(McuExecError::BadPort {
                    node,
                    port: ctx.port,
                });
            }
            st.latest_seq[ctx.port] = seq;
            st.latest_val[ctx.port] = x;
            st.latest_set |= 1 << ctx.port;
            // Emit only when every branch has produced a value from
            // the same source samples: a stale axis must never be
            // combined with a fresh one.
            let all = (0..ports).all(|k| st.latest_set & (1 << k) != 0 && st.latest_seq[k] == seq);
            if all {
                let mut energy = 0.0;
                for k in 0..ports {
                    let v = st.latest_val[k];
                    energy += v * v;
                }
                slot.set_scalar(seq, math::sqrt(energy));
            }
        }
        NodeKind::Zcr => {
            let window = input.as_vector().ok_or(type_err)?;
            if let Some(r) = zcr::zero_crossing_rate(window) {
                slot.set_scalar(seq, r.to_f64());
            }
        }
        NodeKind::ZcrVariance { sub_windows } => {
            let window = input.as_vector().ok_or(type_err)?;
            let scratch = &mut p[st.aux_p.full()];
            if let Some(v) = zcr::zcr_variance_into(window, sub_windows as usize, scratch) {
                slot.set_scalar(seq, v.to_f64());
            }
        }
        NodeKind::Stat(sf) => {
            let window = input.as_vector().ok_or(type_err)?;
            if let Some(summary) = stats::Summary::of(window) {
                let y = match sf {
                    StatKind::Mean => summary.mean,
                    StatKind::Variance => summary.variance,
                    StatKind::StdDev => summary.std_dev(),
                    StatKind::MeanAbs => stats::mean_abs(window).ok_or(type_err)?,
                    StatKind::Rms => summary.rms,
                    StatKind::Energy => stats::energy(window),
                    StatKind::Min => summary.min,
                    StatKind::Max => summary.max,
                    StatKind::PeakToPeak => summary.peak_to_peak(),
                };
                slot.set_scalar(seq, y.to_f64());
            }
        }
        NodeKind::DominantRatio => {
            let mags = input.as_vector().ok_or(type_err)?;
            // Skip DC: pitched-sound detection must not be fooled by
            // offset.
            if mags.len() > 1 {
                if let Some(r) = spectral::dominant_to_mean_ratio(&mags[1..]) {
                    slot.set_scalar(seq, r.to_f64());
                }
            }
        }
        NodeKind::DominantFreq => {
            let mags = input.as_vector().ok_or(type_err)?;
            if mags.len() > 1 {
                if let Some(peak) = spectral::dominant_bin(&mags[1..]) {
                    // One-sided magnitudes of an N-point transform have
                    // N/2+1 entries.
                    let n = (mags.len() - 1) * 2;
                    let freq = fft::bin_to_frequency(peak.bin + 1, n, spec.rate_hz);
                    slot.set_scalar(seq, freq);
                }
            }
        }
        NodeKind::Goertzel { lo_hz, hi_hz } => {
            let window = input.as_vector().ok_or(type_err)?;
            replan_probes(st, f, window.len(), spec.rate_hz, lo_hz, hi_hz, false)?;
            let probes = &f[st.aux_f.range(st.probe_len as usize)];
            if let Some(m) = goertzel::strongest_magnitude(window, probes, spec.rate_hz) {
                slot.set_scalar(seq, m);
            }
        }
        NodeKind::GoertzelFreq { lo_hz, hi_hz } => {
            let window = input.as_vector().ok_or(type_err)?;
            replan_probes(st, f, window.len(), spec.rate_hz, lo_hz, hi_hz, true)?;
            let probes = &f[st.aux_f.range(st.probe_len as usize)];
            if let Some((freq, _)) = goertzel::strongest_of(window, probes, spec.rate_hz) {
                slot.set_scalar(seq, freq);
            }
        }
        NodeKind::GoertzelRatio { lo_hz, hi_hz } => {
            let window = input.as_vector().ok_or(type_err)?;
            replan_probes(st, f, window.len(), spec.rate_hz, lo_hz, hi_hz, true)?;
            let probes = &f[st.aux_f.range(st.probe_len as usize)];
            if let Some((peak, sum)) = goertzel::magnitude_max_and_sum(window, probes, spec.rate_hz)
            {
                // Peak over the mean of all n/2 non-DC bins, with the
                // in-band sum standing in for the total; a zero sum
                // mirrors `dominantRatio`'s no-emission guard.
                let bins = (window.len() / 2) as f64;
                if sum > 0.0 && bins > 0.0 {
                    slot.set_scalar(seq, peak * bins / sum);
                }
            }
        }
        NodeKind::MinThreshold { threshold } => {
            let x = input.as_scalar().ok_or(type_err)?;
            if x >= threshold {
                slot.set_scalar(seq, x);
            }
        }
        NodeKind::MaxThreshold { threshold } => {
            let x = input.as_scalar().ok_or(type_err)?;
            if x <= threshold {
                slot.set_scalar(seq, x);
            }
        }
        NodeKind::BandThreshold { lo, hi } => {
            let x = input.as_scalar().ok_or(type_err)?;
            if x >= lo && x <= hi {
                slot.set_scalar(seq, x);
            }
        }
        NodeKind::OutsideThreshold { lo, hi } => {
            let x = input.as_scalar().ok_or(type_err)?;
            if x < lo || x > hi {
                slot.set_scalar(seq, x);
            }
        }
        NodeKind::Sustained { count, max_gap } => {
            let x = input.as_scalar().ok_or(type_err)?;
            let consecutive = st.has_last && seq.saturating_sub(st.last_seq) <= max_gap;
            st.streak = if consecutive { st.streak + 1 } else { 1 };
            st.last_seq = seq;
            st.has_last = true;
            if st.streak >= count {
                slot.set_scalar(seq, x);
            }
        }
        NodeKind::AllOf => {
            let x = input.as_scalar().ok_or(type_err)?;
            let ports = spec.port_count as usize;
            if ctx.port >= ports {
                return Err(McuExecError::BadPort {
                    node,
                    port: ctx.port,
                });
            }
            st.latest_seq[ctx.port] = seq;
            st.latest_val[ctx.port] = x;
            st.latest_set |= 1 << ctx.port;
            // AND-join over the same window: all branches must have
            // passed their admission control for this seq.
            let all = (0..ports).all(|k| st.latest_set & (1 << k) != 0 && st.latest_seq[k] == seq);
            if all {
                slot.set_scalar(seq, x);
            }
        }
        NodeKind::AnyOf => {
            let x = input.as_scalar().ok_or(type_err)?;
            slot.set_scalar(seq, x);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::image_footprint;
    use crate::image::ImageBuilder;
    use std::string::ToString;
    use std::vec::Vec;

    fn collect_wakes<P: Sample, const CAP: usize>(
        core: &mut McuCore<P, CAP>,
        channel: u8,
        samples: &[f64],
    ) -> Vec<WakeEvent> {
        let mut wakes = Vec::new();
        core.push_samples(channel, samples, &mut |w| wakes.push(w))
            .unwrap();
        wakes
    }

    #[test]
    fn const_init_lives_in_a_static() {
        static CORE: McuCore<f64, 16> = McuCore::new();
        assert!(!CORE.is_loaded());
        assert_eq!(CORE.wake_count(), 0);
    }

    #[test]
    fn push_before_load_is_an_error() {
        let mut core: McuCore<f64, 16> = McuCore::new();
        let err = core.push_sample(0, 1.0, &mut |_| {}).unwrap_err();
        assert_eq!(err, McuExecError::NotLoaded);
        assert!(err.to_string().contains("no program image"));
    }

    #[test]
    fn moving_average_threshold_chain_wakes() {
        let mut b = ImageBuilder::new();
        let avg = b
            .push_node(
                NodeKind::MovingAvg { window: 4 },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let thr = b
            .push_node(
                NodeKind::MinThreshold { threshold: 3.0 },
                &[PortSource::Node(avg)],
                50.0,
            )
            .unwrap();
        let image = b.finish(thr).unwrap();
        let mut core: McuCore<f64, 64> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (1..=8).map(f64::from).collect();
        let wakes = collect_wakes(&mut core, 0, &samples);
        // Averages 2.5, 3.5, 4.5, 5.5, 6.5 at seqs 3..=7; >= 3.0 from
        // the second on.
        assert_eq!(wakes.len(), 4);
        assert_eq!(wakes[0], WakeEvent { seq: 4, value: 3.5 });
        assert_eq!(wakes[3], WakeEvent { seq: 7, value: 6.5 });
        assert_eq!(core.wake_count(), 4);
    }

    #[test]
    fn window_mean_pipeline_emits_window_means() {
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 4,
                    hop: 4,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let stat = b
            .push_node(
                NodeKind::Stat(StatKind::Mean),
                &[PortSource::Node(win)],
                50.0,
            )
            .unwrap();
        let image = b.finish(stat).unwrap();
        let mut core: McuCore<f64, 64> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (0..8).map(f64::from).collect();
        let wakes = collect_wakes(&mut core, 0, &samples);
        assert_eq!(wakes.len(), 2);
        assert_eq!(wakes[0], WakeEvent { seq: 3, value: 1.5 });
        assert_eq!(wakes[1], WakeEvent { seq: 7, value: 5.5 });
    }

    #[test]
    fn sliding_window_hop_and_taper_match_the_host_windower() {
        // hop 2 over size 4 with a Hamming taper: first emission at
        // seq 3, then every 2 samples, each window tapered.
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 4,
                    hop: 2,
                    shape: WindowShape::Hamming,
                },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let stat = b
            .push_node(
                NodeKind::Stat(StatKind::Mean),
                &[PortSource::Node(win)],
                50.0,
            )
            .unwrap();
        let image = b.finish(stat).unwrap();
        let mut core: McuCore<f64, 64> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (1..=8).map(f64::from).collect();
        let wakes = collect_wakes(&mut core, 0, &samples);
        assert_eq!(
            wakes.iter().map(|w| w.seq).collect::<Vec<_>>(),
            [3, 5, 7],
            "hop-2 emission schedule"
        );
        let coeffs = WindowShape::Hamming.coefficients(4);
        for (w, start) in wakes.iter().zip([1.0f64, 3.0, 5.0]) {
            let expect = (0..4).map(|k| (start + k as f64) * coeffs[k]).sum::<f64>() / 4.0;
            assert_eq!(w.value.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn fft_pipeline_is_bit_identical_to_reference_kernels() {
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 8,
                    hop: 8,
                    shape: WindowShape::Hamming,
                },
                &[PortSource::Channel(0)],
                80.0,
            )
            .unwrap();
        let fft_n = b
            .push_node(NodeKind::Fft, &[PortSource::Node(win)], 80.0)
            .unwrap();
        let mag = b
            .push_node(
                NodeKind::SpectralMagnitude,
                &[PortSource::Node(fft_n)],
                80.0,
            )
            .unwrap();
        let stat = b
            .push_node(
                NodeKind::Stat(StatKind::Max),
                &[PortSource::Node(mag)],
                80.0,
            )
            .unwrap();
        let image = b.finish(stat).unwrap();
        let mut core: McuCore<f64, 256> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (0..8).map(|i| (i as f64 * 0.9).sin()).collect();
        let wakes = collect_wakes(&mut core, 0, &samples);
        assert_eq!(wakes.len(), 1);
        assert_eq!(wakes[0].seq, 7);

        let coeffs = WindowShape::Hamming.coefficients(8);
        let mut data: Vec<Complex> = samples
            .iter()
            .zip(&coeffs)
            .map(|(&x, &cf)| Complex::from_real(x * cf))
            .collect();
        fft::transform(&mut data, false);
        let mags: Vec<f64> = data[..5].iter().map(|z| z.magnitude()).collect();
        let expect = stats::Summary::of(&mags).unwrap().max;
        assert_eq!(wakes[0].value.to_bits(), expect.to_bits());
    }

    #[test]
    fn lowpass_pipeline_matches_manual_band_filter() {
        let n = 16;
        let rate = 1600.0;
        let cutoff = 300.0;
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: n as u32,
                    hop: n as u32,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                rate,
            )
            .unwrap();
        let lp = b
            .push_node(
                NodeKind::LowPass { cutoff_hz: cutoff },
                &[PortSource::Node(win)],
                rate,
            )
            .unwrap();
        let stat = b
            .push_node(NodeKind::Stat(StatKind::Rms), &[PortSource::Node(lp)], rate)
            .unwrap();
        let image = b.finish(stat).unwrap();
        let mut core: McuCore<f64, 512> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / rate;
                (2.0 * core::f64::consts::PI * 100.0 * t).sin()
                    + (2.0 * core::f64::consts::PI * 600.0 * t).sin()
            })
            .collect();
        let wakes = collect_wakes(&mut core, 0, &samples);
        assert_eq!(wakes.len(), 1);

        // Manual reference: forward transform, zero masked bins,
        // inverse, scale, take real parts, RMS.
        let mut mask = std::vec![false; n];
        filter::fill_keep_mask(&mut mask, rate, BandShape::LowPass { cutoff_hz: cutoff });
        let mut data: Vec<Complex> = samples.iter().map(|&x| Complex::from_real(x)).collect();
        fft::transform(&mut data, false);
        for (z, &keep) in data.iter_mut().zip(&mask) {
            if !keep {
                *z = Complex::ZERO;
            }
        }
        fft::transform(&mut data, true);
        fft::scale_inverse(&mut data);
        let filtered: Vec<f64> = data.iter().map(|z| z.re).collect();
        let expect = stats::Summary::of(&filtered).unwrap().rms;
        assert_eq!(wakes[0].value.to_bits(), expect.to_bits());
    }

    #[test]
    fn goertzel_node_matches_direct_probing() {
        let n = 32;
        let rate = 3200.0;
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: n as u32,
                    hop: n as u32,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                rate,
            )
            .unwrap();
        let g = b
            .push_node(
                NodeKind::Goertzel {
                    lo_hz: 200.0,
                    hi_hz: 500.0,
                },
                &[PortSource::Node(win)],
                rate,
            )
            .unwrap();
        let image = b.finish(g).unwrap();
        let mut core: McuCore<f64, 256> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (0..n)
            .map(|i| (2.0 * core::f64::consts::PI * 300.0 * i as f64 / rate).sin())
            .collect();
        let wakes = collect_wakes(&mut core, 0, &samples);
        assert_eq!(wakes.len(), 1);
        let probes = [200.0, 300.0, 400.0, 500.0];
        let expect = goertzel::strongest_magnitude(&samples, &probes, rate).unwrap();
        assert_eq!(wakes[0].value.to_bits(), expect.to_bits());
    }

    #[test]
    fn vector_magnitude_joins_two_channels() {
        let mut b = ImageBuilder::new();
        let vm = b
            .push_node(
                NodeKind::VectorMagnitude,
                &[PortSource::Channel(0), PortSource::Channel(1)],
                50.0,
            )
            .unwrap();
        let image = b.finish(vm).unwrap();
        let mut core: McuCore<f64, 16> = McuCore::new();
        core.load(&image).unwrap();
        let mut wakes = Vec::new();
        core.push_sample(0, 3.0, &mut |w| wakes.push(w)).unwrap();
        assert!(wakes.is_empty(), "one axis alone must not emit");
        core.push_sample(1, 4.0, &mut |w| wakes.push(w)).unwrap();
        assert_eq!(wakes, [WakeEvent { seq: 0, value: 5.0 }]);
    }

    #[test]
    fn allof_join_requires_equal_sequences() {
        let mut b = ImageBuilder::new();
        let lo = b
            .push_node(
                NodeKind::MinThreshold { threshold: 0.0 },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let hi = b
            .push_node(
                NodeKind::MaxThreshold { threshold: 10.0 },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let both = b
            .push_node(
                NodeKind::AllOf,
                &[PortSource::Node(lo), PortSource::Node(hi)],
                50.0,
            )
            .unwrap();
        let image = b.finish(both).unwrap();
        let mut core: McuCore<f64, 16> = McuCore::new();
        core.load(&image).unwrap();
        let wakes = collect_wakes(&mut core, 0, &[5.0, 20.0, -3.0, 7.0]);
        assert_eq!(
            wakes,
            [
                WakeEvent { seq: 0, value: 5.0 },
                WakeEvent { seq: 3, value: 7.0 }
            ]
        );
    }

    #[test]
    fn sustained_streaks_respect_gaps() {
        let mut b = ImageBuilder::new();
        let thr = b
            .push_node(
                NodeKind::MinThreshold { threshold: 0.5 },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let sus = b
            .push_node(
                NodeKind::Sustained {
                    count: 2,
                    max_gap: 1,
                },
                &[PortSource::Node(thr)],
                50.0,
            )
            .unwrap();
        let image = b.finish(sus).unwrap();
        let mut core: McuCore<f64, 16> = McuCore::new();
        core.load(&image).unwrap();
        let wakes = collect_wakes(&mut core, 0, &[1.0, 1.0, 0.0, 1.0, 1.0]);
        assert_eq!(
            wakes.iter().map(|w| w.seq).collect::<Vec<_>>(),
            [1, 4],
            "a 2-sample gap must break the streak"
        );
    }

    #[test]
    fn ema_emits_from_the_first_sample() {
        let mut b = ImageBuilder::new();
        let ema = b
            .push_node(
                NodeKind::ExpMovingAvg { alpha: 0.5 },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let image = b.finish(ema).unwrap();
        let mut core: McuCore<f64, 16> = McuCore::new();
        core.load(&image).unwrap();
        let wakes = collect_wakes(&mut core, 0, &[4.0, 8.0]);
        assert_eq!(wakes[0].value, 4.0);
        assert_eq!(wakes[1].value, 6.0);
    }

    #[test]
    fn reset_replays_identically() {
        let mut b = ImageBuilder::new();
        let avg = b
            .push_node(
                NodeKind::MovingAvg { window: 4 },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let image = b.finish(avg).unwrap();
        let mut core: McuCore<f64, 16> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (1..=4).map(f64::from).collect();
        let first = collect_wakes(&mut core, 0, &samples);
        assert_eq!(first, [WakeEvent { seq: 3, value: 2.5 }]);
        core.reset();
        assert_eq!(core.wake_count(), 0);
        let again = collect_wakes(&mut core, 0, &samples);
        assert_eq!(again, first, "reset must restart sequences and rings");
    }

    #[test]
    fn f32_core_runs_the_same_pipelines() {
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 4,
                    hop: 4,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let stat = b
            .push_node(
                NodeKind::Stat(StatKind::Mean),
                &[PortSource::Node(win)],
                50.0,
            )
            .unwrap();
        let image = b.finish(stat).unwrap();
        let mut core: McuCore<f32, 64> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (0..4).map(f64::from).collect();
        let wakes = collect_wakes(&mut core, 0, &samples);
        assert_eq!(wakes.len(), 1);
        assert!((wakes[0].value - 1.5).abs() < 1e-6);
    }

    #[test]
    fn oversized_programs_fail_at_load_with_capacity_errors() {
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 64,
                    hop: 64,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let image = b.finish(win).unwrap();
        let mut core: McuCore<f64, 8> = McuCore::new();
        match core.load(&image).unwrap_err() {
            McuExecError::ArenaOverflow {
                arena,
                node,
                needed,
                capacity,
            } => {
                assert_eq!(arena, "sample arena");
                assert_eq!(node, 0);
                assert!(needed > 8, "needed = {needed}");
                assert_eq!(capacity, 8);
            }
            other => panic!("expected arena-overflow error, got {other:?}"),
        }
        assert!(!core.is_loaded());
    }

    #[test]
    fn failed_load_leaves_the_core_reusable() {
        // A rejected image must not leave partial carve state behind: a
        // subsequent load of a fitting image runs exactly as if the
        // failed load never happened.
        let oversized = {
            let mut b = ImageBuilder::new();
            let win = b
                .push_node(
                    NodeKind::Window {
                        size: 64,
                        hop: 64,
                        shape: WindowShape::Rectangular,
                    },
                    &[PortSource::Channel(0)],
                    50.0,
                )
                .unwrap();
            b.finish(win).unwrap()
        };
        let fitting = {
            let mut b = ImageBuilder::new();
            let avg = b
                .push_node(
                    NodeKind::MovingAvg { window: 4 },
                    &[PortSource::Channel(0)],
                    50.0,
                )
                .unwrap();
            let thr = b
                .push_node(
                    NodeKind::MinThreshold { threshold: 5.0 },
                    &[PortSource::Node(avg)],
                    50.0,
                )
                .unwrap();
            b.finish(thr).unwrap()
        };

        let mut fresh: McuCore<f64, 16> = McuCore::new();
        fresh.load(&fitting).unwrap();
        let samples: Vec<f64> = (0..16).map(f64::from).collect();
        let expected = collect_wakes(&mut fresh, 0, &samples);
        assert!(!expected.is_empty());

        let mut reused: McuCore<f64, 16> = McuCore::new();
        assert!(matches!(
            reused.load(&oversized).unwrap_err(),
            McuExecError::ArenaOverflow { .. }
        ));
        assert!(!reused.is_loaded());
        assert!(matches!(
            reused.push_sample(0, 1.0, &mut |_| {}),
            Err(McuExecError::NotLoaded)
        ));
        reused.load(&fitting).unwrap();
        assert_eq!(collect_wakes(&mut reused, 0, &samples), expected);
        assert_eq!(
            image_footprint(reused.image()).unwrap(),
            image_footprint(&fitting).unwrap()
        );
    }

    #[test]
    fn window_sizes_past_the_address_space_overflow_instead_of_wrapping() {
        // 3 x u32::MAX wraps a 32-bit usize; the walk must saturate so
        // the sum reads as an overflow, never as a small total that fits.
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: u32::MAX,
                    hop: u32::MAX,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let stat = b
            .push_node(
                NodeKind::Stat(StatKind::Mean),
                &[PortSource::Node(win)],
                50.0,
            )
            .unwrap();
        let huge = b.finish(stat).unwrap();
        let mut core: McuCore<f64, 16> = McuCore::new();
        assert_eq!(
            core.load(&huge).unwrap_err(),
            McuExecError::ArenaOverflow {
                arena: "sample arena",
                node: 0,
                needed: usize::try_from(3 * u64::from(u32::MAX)).unwrap_or(usize::MAX),
                capacity: 16,
            }
        );
        assert!(!core.is_loaded());

        let mut b = ImageBuilder::new();
        let avg = b
            .push_node(
                NodeKind::MovingAvg { window: 2 },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        core.load(&b.finish(avg).unwrap()).unwrap();
        assert_eq!(
            collect_wakes(&mut core, 0, &[1.0, 3.0]),
            [WakeEvent { seq: 1, value: 2.0 }]
        );
    }

    #[test]
    fn invalid_parameters_are_rejected_at_load() {
        let mut b = ImageBuilder::new();
        b.push_node(
            NodeKind::ExpMovingAvg { alpha: 1.5 },
            &[PortSource::Channel(0)],
            50.0,
        )
        .unwrap();
        let image = b.finish(0).unwrap();
        let mut core: McuCore<f64, 16> = McuCore::new();
        let err = core.load(&image).unwrap_err();
        assert_eq!(
            err,
            McuExecError::BadParameter {
                node: 0,
                what: "smoothing factor must be in (0, 1]",
            }
        );
        assert!(err.to_string().contains("smoothing factor"));
    }

    #[test]
    fn bad_channel_is_rejected_at_push() {
        let mut b = ImageBuilder::new();
        b.push_node(NodeKind::AnyOf, &[PortSource::Channel(0)], 50.0)
            .unwrap();
        let image = b.finish(0).unwrap();
        let mut core: McuCore<f64, 16> = McuCore::new();
        core.load(&image).unwrap();
        let err = core.push_sample(200, 1.0, &mut |_| {}).unwrap_err();
        assert_eq!(err, McuExecError::BadChannel { channel: 200 });
    }
}
