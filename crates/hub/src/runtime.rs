//! The hub interpreter.
//!
//! [`HubRuntime`] is this reproduction's equivalent of the paper's C
//! interpreter (§3.5): "Upon receiving a new configuration, the runtime
//! allocates memory for each algorithm in the configuration. The
//! interpreter then waits for sensor data to be available and feeds the
//! data into the appropriate algorithm. If the algorithm produces a
//! result, it sets a flag. The interpreter checks the flag and if
//! necessary sends the result to the next algorithm. … The final algorithm
//! feeds into OUT, indicating that the main processor should be woken up."
//!
//! Because the textual IR is define-before-use, statement order is a
//! topological order of the dataflow graph, and one pass over the node
//! list per incoming sample propagates every derived result.

use crate::instance::{AlgoInstance, ExecError};
use crate::mcu_image::node_kind;
use crate::value::ValueRef;
use sidewinder_dsp::Sample;
use sidewinder_ir::{AlgorithmKind, NodeId, Program, Source, ValidateError};
use sidewinder_mcu::{ArenaKind, FootprintWalk, McuExecError};
use sidewinder_obs::{Event, EventSink, NullSink};
use sidewinder_sensors::SensorChannel;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-channel sample rates used to configure frequency-aware stages.
///
/// `Default` yields each channel's [`SensorChannel::default_rate_hz`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelRates {
    rates: BTreeMap<SensorChannel, f64>,
}

impl Default for ChannelRates {
    fn default() -> Self {
        ChannelRates {
            rates: SensorChannel::ALL
                .into_iter()
                .map(|c| (c, c.default_rate_hz()))
                .collect(),
        }
    }
}

impl ChannelRates {
    /// Overrides one channel's rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not positive and finite.
    pub fn with_rate(mut self, channel: SensorChannel, rate_hz: f64) -> Self {
        assert!(
            rate_hz.is_finite() && rate_hz > 0.0,
            "sample rate must be positive, got {rate_hz}"
        );
        self.rates.insert(channel, rate_hz);
        self
    }

    /// The rate configured for `channel`.
    pub fn rate_of(&self, channel: SensorChannel) -> f64 {
        self.rates
            .get(&channel)
            .copied()
            .unwrap_or_else(|| channel.default_rate_hz())
    }
}

/// A wake-up raised by the hub: a value reached `OUT`.
#[derive(Debug, Clone, PartialEq)]
pub struct WakeEvent {
    /// Sequence number (source-sample index) the triggering value derives
    /// from.
    pub seq: u64,
    /// The scalar value delivered to `OUT`.
    pub value: f64,
}

/// Errors raised while loading or running a program on the hub.
#[derive(Debug, Clone, PartialEq)]
pub enum HubError {
    /// The program failed structural validation.
    Invalid(ValidateError),
    /// The program passed (or bypassed) validation but could not be
    /// assembled into a runnable pipeline.
    Load(LoadError),
    /// The program does not fit the MCU core's fixed-capacity image
    /// (raised by [`compile_image`](crate::mcu_image::compile_image)).
    Image(sidewinder_mcu::ImageError),
    /// An algorithm instance failed at run time, or a node's parameters
    /// were rejected at load.
    Exec(ExecError),
    /// The program's buffers would take more than [`HOST_LOAD_BUDGET`]
    /// bytes; the loader refuses it before allocating any of them.
    TooLarge {
        /// Bytes the program's buffers would take (saturating).
        needed: usize,
        /// The budget they exceed.
        budget: usize,
        /// The node with the largest single buffer.
        node: NodeId,
    },
}

/// The most bytes of buffers [`HubRuntime`] allocates for one program:
/// the sum of the program's arena footprint
/// ([`sidewinder_mcu::footprint`]'s walk, the one the MCU core and the
/// certifier use) at the runtime's sample width. Every evaluation
/// condition and suite in this repository takes well under 1 MiB; the
/// budget only stops a validated program from asking for gigabytes.
pub const HOST_LOAD_BUDGET: usize = 64 << 20;

/// Errors raised while assembling a validated program into the loaded
/// node table.
///
/// Validation makes these unreachable for programs that went through
/// [`Program::validate`], but the loader must not *trust* that: a program
/// assembled directly from [`Program::push_node`] (or a validator that
/// drifts out of sync with the loader) has to surface a typed error, not
/// a `BTreeMap` indexing panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadError {
    /// A node references a source node the loader has not yet indexed
    /// (undefined or defined later — the IR is define-before-use).
    UnknownSource {
        /// The consuming node.
        at: NodeId,
        /// The missing producer.
        source: NodeId,
    },
    /// The `OUT` statement references a node the loader never indexed.
    UnknownOut {
        /// The missing producer.
        source: NodeId,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::UnknownSource { at, source } => {
                write!(
                    f,
                    "node {at}: source node {source} is not defined before use"
                )
            }
            LoadError::UnknownOut { source } => {
                write!(f, "OUT references undefined node {source}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl std::fmt::Display for HubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HubError::Invalid(e) => write!(f, "invalid program: {e}"),
            HubError::Load(e) => write!(f, "load failed: {e}"),
            HubError::Image(e) => write!(f, "image compilation failed: {e}"),
            HubError::Exec(e) => write!(f, "execution failed: {e}"),
            HubError::TooLarge {
                needed,
                budget,
                node,
            } => write!(
                f,
                "program needs {needed} bytes of buffers, over the host budget of \
                 {budget} (largest: node {node})"
            ),
        }
    }
}

impl std::error::Error for HubError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HubError::Invalid(e) => Some(e),
            HubError::Load(e) => Some(e),
            HubError::Image(e) => Some(e),
            HubError::Exec(e) => Some(e),
            HubError::TooLarge { .. } => None,
        }
    }
}

impl From<ValidateError> for HubError {
    fn from(e: ValidateError) -> Self {
        HubError::Invalid(e)
    }
}

impl From<LoadError> for HubError {
    fn from(e: LoadError) -> Self {
        HubError::Load(e)
    }
}

impl From<sidewinder_mcu::ImageError> for HubError {
    fn from(e: sidewinder_mcu::ImageError) -> Self {
        HubError::Image(e)
    }
}

impl From<ExecError> for HubError {
    fn from(e: ExecError) -> Self {
        HubError::Exec(e)
    }
}

/// An input edge resolved to the dense node index space: either a sensor
/// channel or the position of the producing node in statement order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PortSource {
    Channel(SensorChannel),
    Node(usize),
}

/// One statement of a program, resolved by [`resolve_program`].
pub(crate) struct ResolvedNode<'p> {
    pub(crate) id: NodeId,
    pub(crate) kind: &'p AlgorithmKind,
    /// Sample rate inherited from the first source.
    pub(crate) rate: f64,
    /// Input edges in the dense index space, one per port.
    pub(crate) sources: Vec<PortSource>,
}

/// The traversal behind both loaders, [`HubRuntime::load_generic`] and
/// [`compile_image`](crate::mcu_image::compile_image): walks `program`
/// in statement order, gives each node the rate of its first source,
/// resolves every edge to the producer's dense define-before-use index,
/// and hands the node to `visit`. Returns the dense index of the node
/// feeding `OUT`.
///
/// Validation makes the errors below unreachable, but a program that
/// bypasses it must surface a typed error, not panic.
///
/// # Errors
///
/// [`ValidateError::BadArity`] for a node without sources,
/// [`LoadError::UnknownSource`] for an edge to a node not yet defined,
/// [`ValidateError::MissingOut`] and [`LoadError::UnknownOut`] for a
/// missing or dangling `OUT`, and whatever `visit` returns, each at the
/// first statement that raises it.
pub(crate) fn resolve_program<'p>(
    program: &'p Program,
    rates: &ChannelRates,
    mut visit: impl FnMut(ResolvedNode<'p>) -> Result<(), HubError>,
) -> Result<usize, HubError> {
    let mut index_of: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut node_rates: Vec<f64> = Vec::new();
    for (sources, id, kind) in program.nodes() {
        let dense: Vec<PortSource> = sources
            .iter()
            .map(|s| match s {
                Source::Channel(c) => Ok(PortSource::Channel(*c)),
                Source::Node(src) => index_of.get(src).map(|&i| PortSource::Node(i)).ok_or(
                    LoadError::UnknownSource {
                        at: id,
                        source: *src,
                    },
                ),
            })
            .collect::<Result<_, _>>()?;
        let rate = match dense.first() {
            None => {
                return Err(HubError::Invalid(ValidateError::BadArity {
                    id,
                    algorithm: kind.ir_name(),
                    got: 0,
                }))
            }
            Some(PortSource::Channel(c)) => rates.rate_of(*c),
            Some(PortSource::Node(i)) => node_rates[*i],
        };
        index_of.insert(id, node_rates.len());
        node_rates.push(rate);
        visit(ResolvedNode {
            id,
            kind,
            rate,
            sources: dense,
        })?;
    }
    let out_id = program
        .out_source()
        .ok_or(HubError::Invalid(ValidateError::MissingOut))?;
    Ok(*index_of
        .get(&out_id)
        .ok_or(LoadError::UnknownOut { source: out_id })?)
}

/// One loaded node: its instance, its resolved input edges, and the dense
/// indices of the nodes consuming its output (for readiness propagation).
#[derive(Debug, Clone)]
struct LoadedNode<P: Sample> {
    instance: AlgoInstance<P>,
    sources: Vec<PortSource>,
    consumers: Vec<usize>,
    /// `consumers` as a bitmask over dense indices; meaningful only when
    /// the program fits [`MASK_BITS`] nodes (the mask-based fast pass).
    consumer_mask: u128,
}

/// Node-count ceiling for the bitmask pass; larger programs fall back to
/// the flag-vector scan.
const MASK_BITS: usize = 128;

/// The hub interpreter: a loaded wake-up condition ready to consume
/// samples.
///
/// Because the IR is define-before-use, statement order is a topological
/// order of the dataflow graph, so nodes live in a dense `Vec` in that
/// order and each pass walks it once: per-pass bookkeeping is two `bool`
/// flags per node (`ready`, `fresh`) instead of a per-sample map, and
/// values move between nodes as borrows of the producers' reusable result
/// slots. After warm-up, a pass performs no heap allocation.
///
/// The runtime is generic over an observability [`EventSink`]. The
/// default [`NullSink`] has `ENABLED = false`, and every instrumentation
/// site is guarded on that associated constant, so the unobserved runtime
/// compiles to exactly the uninstrumented interpreter — no timing calls,
/// no event construction, no extra branches (pinned by
/// `tests/zero_alloc.rs` and the sim conformance suites). Pass a
/// [`CounterSink`](sidewinder_obs::CounterSink) or
/// [`TimelineSink`](sidewinder_obs::TimelineSink) via
/// [`HubRuntime::load_with_sink`] to observe node executions, wake
/// emissions, and resets.
///
/// The runtime is also generic over the vector sample precision `P`
/// (default `f64`). In `f32` mode (the [`HubRuntime32`] alias, loaded
/// via [`HubRuntime32::load_f32`]) windows and magnitude spectra are
/// buffered and reduced at single precision — the hardware-faithful
/// hub mode, since the paper's MCUs have at most an f32 FPU — while
/// sensor ingestion, scalar features, thresholds, and [`WakeEvent`]s
/// stay `f64` end to end.
#[derive(Debug, Clone)]
pub struct HubRuntime<S: EventSink = NullSink, P: Sample = f64> {
    nodes: Vec<LoadedNode<P>>,
    /// Dense index of the node feeding `OUT`.
    out_index: usize,
    /// For each channel (by [`SensorChannel::index`]): the nodes with at
    /// least one port fed directly by it.
    channel_entries: [Vec<usize>; SensorChannel::COUNT],
    /// Nodes whose only input is the channel itself (the common entry
    /// shape: a window or moving average hanging off a sensor). The mask
    /// pass feeds these directly, skipping the ready-set machinery.
    direct_feeds: [Vec<usize>; SensorChannel::COUNT],
    /// Remaining channel-fed nodes (joins, mixed sources) as bitmasks,
    /// seeding the mask-based pass.
    entry_masks: [u128; SensorChannel::COUNT],
    /// Per channel: the mask pass applies and every node the channel
    /// feeds is a single-source window, so [`HubRuntime::push_samples`]
    /// fills their rings a stretch at a time.
    window_fill: [bool; SensorChannel::COUNT],
    /// Whether passes use the `u128` mask fast path. Set iff the program
    /// fits [`MASK_BITS`] nodes — the guard that keeps `1u128 << i` from
    /// ever seeing `i >= 128` — and clearable via
    /// [`HubRuntime::force_dense_scan`] for conformance testing.
    use_mask: bool,
    channel_seq: [u64; SensorChannel::COUNT],
    wake_count: u64,
    /// Per-pass flag: node has at least one active input this pass.
    ready: Vec<bool>,
    /// Per-pass flag: node produced a result this pass.
    fresh: Vec<bool>,
    /// Wake events accumulated by the current `push_samples` batch.
    wake_buf: Vec<WakeEvent>,
    /// Observability sink; [`NullSink`] by default, in which case every
    /// use below is guarded out at compile time.
    sink: S,
}

impl HubRuntime {
    /// Validates `program` and allocates one algorithm instance per node,
    /// with observability disabled ([`NullSink`]).
    ///
    /// # Errors
    ///
    /// Returns [`HubError::Invalid`] if the program fails validation and
    /// [`HubError::TooLarge`] if its buffers exceed [`HOST_LOAD_BUDGET`].
    pub fn load(program: &Program, rates: &ChannelRates) -> Result<Self, HubError> {
        Self::load_with_sink(program, rates, NullSink)
    }
}

/// The hub interpreter in single-precision (`f32`) vector mode.
pub type HubRuntime32<S = NullSink> = HubRuntime<S, f32>;

impl HubRuntime32 {
    /// Validates `program` and allocates instances whose vector payloads
    /// (windows, magnitude spectra) live at `f32`, with observability
    /// disabled ([`NullSink`]).
    ///
    /// # Errors
    ///
    /// Returns [`HubError::Invalid`] if the program fails validation and
    /// [`HubError::TooLarge`] if its buffers exceed [`HOST_LOAD_BUDGET`].
    pub fn load_f32(program: &Program, rates: &ChannelRates) -> Result<Self, HubError> {
        Self::load_f32_with_sink(program, rates, NullSink)
    }
}

impl<S: EventSink> HubRuntime<S, f32> {
    /// Like [`HubRuntime32::load_f32`], but events flow into `sink`.
    ///
    /// # Errors
    ///
    /// Returns [`HubError::Invalid`] if the program fails validation and
    /// [`HubError::TooLarge`] if its buffers exceed [`HOST_LOAD_BUDGET`].
    pub fn load_f32_with_sink(
        program: &Program,
        rates: &ChannelRates,
        sink: S,
    ) -> Result<Self, HubError> {
        Self::load_generic(program, rates, sink)
    }
}

impl<S: EventSink> HubRuntime<S, f64> {
    /// Like [`HubRuntime::load`], but events flow into `sink`.
    ///
    /// # Errors
    ///
    /// Returns [`HubError::Invalid`] if the program fails validation and
    /// [`HubError::TooLarge`] if its buffers exceed [`HOST_LOAD_BUDGET`].
    pub fn load_with_sink(
        program: &Program,
        rates: &ChannelRates,
        sink: S,
    ) -> Result<Self, HubError> {
        Self::load_generic(program, rates, sink)
    }
}

impl<S: EventSink, P: Sample> HubRuntime<S, P> {
    /// The precision-generic loader behind [`HubRuntime::load_with_sink`]
    /// and [`HubRuntime32::load_f32`]. Callers name the precision at the
    /// type level (`HubRuntime::<_, f32>::load_generic(..)`); the named
    /// loaders exist so ordinary call sites never need a turbofish.
    ///
    /// # Errors
    ///
    /// Returns [`HubError::Invalid`] if the program fails validation and
    /// [`HubError::TooLarge`] if its buffers exceed [`HOST_LOAD_BUDGET`].
    pub fn load_generic(
        program: &Program,
        rates: &ChannelRates,
        sink: S,
    ) -> Result<Self, HubError> {
        program.validate()?;
        Self::load_validated(program, rates, sink)
    }

    /// Assembles the node table without re-validating. Split from
    /// [`HubRuntime::load_generic`] so the defensive error paths below
    /// (unreachable for validated programs) stay testable.
    ///
    /// The program is resolved and its footprint checked against
    /// [`HOST_LOAD_BUDGET`] before any node allocates its buffers.
    pub(crate) fn load_validated(
        program: &Program,
        rates: &ChannelRates,
        sink: S,
    ) -> Result<Self, HubError> {
        let mut resolved: Vec<ResolvedNode<'_>> = Vec::new();
        let out_index = resolve_program(program, rates, |node| {
            resolved.push(node);
            Ok(())
        })?;
        check_footprint::<P>(&resolved)?;
        let mut nodes: Vec<LoadedNode<P>> = Vec::with_capacity(resolved.len());
        let mut channel_entries: [Vec<usize>; SensorChannel::COUNT] = Default::default();
        for node in resolved {
            let index = nodes.len();
            for source in &node.sources {
                match *source {
                    PortSource::Channel(c) => {
                        let entries = &mut channel_entries[c.index()];
                        if !entries.contains(&index) {
                            entries.push(index);
                        }
                    }
                    PortSource::Node(src) => nodes[src].consumers.push(index),
                }
            }
            nodes.push(LoadedNode {
                instance: AlgoInstance::new(node.id, node.kind, node.sources.len(), node.rate)?,
                sources: node.sources,
                consumers: Vec::new(),
                consumer_mask: 0,
            });
        }
        let count = nodes.len();
        if count <= MASK_BITS {
            for node in &mut nodes {
                for &consumer in &node.consumers {
                    node.consumer_mask |= 1u128 << consumer;
                }
            }
        }
        let mut direct_feeds: [Vec<usize>; SensorChannel::COUNT] = Default::default();
        let mut entry_masks = [0u128; SensorChannel::COUNT];
        if count <= MASK_BITS {
            for (i, node) in nodes.iter().enumerate() {
                if let [PortSource::Channel(c)] = node.sources[..] {
                    direct_feeds[c.index()].push(i);
                } else {
                    for source in &node.sources {
                        if let PortSource::Channel(c) = source {
                            entry_masks[c.index()] |= 1u128 << i;
                        }
                    }
                }
            }
        }
        let window_fill = std::array::from_fn(|c| {
            count <= MASK_BITS
                && entry_masks[c] == 0
                && direct_feeds[c]
                    .iter()
                    .all(|&i| nodes[i].instance.quiet_len().is_some())
        });
        Ok(HubRuntime {
            nodes,
            out_index,
            use_mask: count <= MASK_BITS,
            channel_entries,
            direct_feeds,
            entry_masks,
            window_fill,
            channel_seq: [0; SensorChannel::COUNT],
            wake_count: 0,
            ready: vec![false; count],
            fresh: vec![false; count],
            wake_buf: Vec::new(),
            sink,
        })
    }

    /// The observability sink (e.g. to read counters after a run).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the sink (e.g. to move its time cursor).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Number of algorithm instances allocated.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total wake-ups raised since load (or the last [`HubRuntime::reset`]).
    pub fn wake_count(&self) -> u64 {
        self.wake_count
    }

    /// Feeds one sensor sample and propagates it through the pipeline.
    ///
    /// Returns the wake events raised by this sample (at most one per
    /// `OUT`-feeding emission).
    ///
    /// # Errors
    ///
    /// Returns [`HubError::Exec`] if an instance fails; the runtime is
    /// left in a consistent state and may continue receiving samples.
    pub fn push_sample(
        &mut self,
        channel: SensorChannel,
        sample: f64,
    ) -> Result<Vec<WakeEvent>, HubError> {
        self.push_samples(channel, std::slice::from_ref(&sample))
            .map(<[WakeEvent]>::to_vec)
    }

    /// Feeds a batch of consecutive samples from one channel — the
    /// allocation-free bulk form of [`HubRuntime::push_sample`].
    ///
    /// Equivalent to pushing each sample in order; the returned slice
    /// holds every wake event the batch raised, in order, and borrows a
    /// buffer that the next push reuses.
    ///
    /// # Errors
    ///
    /// Returns the first [`HubError::Exec`] an instance reports; samples
    /// after the failing one are not consumed (wake events raised earlier
    /// in the batch are discarded with the failed call, exactly as if the
    /// caller had looped [`HubRuntime::push_sample`] and aborted on the
    /// error).
    pub fn push_samples(
        &mut self,
        channel: SensorChannel,
        samples: &[f64],
    ) -> Result<&[WakeEvent], HubError> {
        self.wake_buf.clear();
        if self.use_mask && self.window_fill[channel.index()] && !S::ENABLED {
            self.push_filling(channel, samples)?;
        } else if self.use_mask {
            for &sample in samples {
                self.run_pass_masked(channel, sample)?;
            }
        } else {
            for &sample in samples {
                self.run_pass_scan(channel, sample)?;
            }
        }
        Ok(&self.wake_buf)
    }

    /// [`HubRuntime::push_samples`] for a channel that feeds only
    /// single-source windows: the samples that complete no window go
    /// straight into the rings ([`AlgoInstance::push_quiet`]), advancing
    /// the channel's sequence as their passes would, and only a sample
    /// that completes a window runs the masked pass. Used only without
    /// an enabled sink, whose per-node events need every pass.
    fn push_filling(
        &mut self,
        channel: SensorChannel,
        mut samples: &[f64],
    ) -> Result<(), HubError> {
        let ci = channel.index();
        while !samples.is_empty() {
            let HubRuntime {
                nodes,
                direct_feeds,
                ..
            } = self;
            let quiet = direct_feeds[ci]
                .iter()
                .map(|&i| nodes[i].instance.quiet_len().unwrap_or(0))
                .fold(samples.len(), usize::min);
            let (quiet, rest) = samples.split_at(quiet);
            if !quiet.is_empty() {
                for &i in &direct_feeds[ci] {
                    nodes[i].instance.push_quiet(quiet);
                }
                self.channel_seq[ci] += quiet.len() as u64;
            }
            let Some((&sample, rest)) = rest.split_first() else {
                break;
            };
            self.run_pass_masked(channel, sample)?;
            samples = rest;
        }
        Ok(())
    }

    /// Forces every subsequent pass onto the dense-scan fallback, even for
    /// programs small enough for the `u128` mask path. The two paths must
    /// produce identical wakes; conformance tests pin that equivalence at
    /// the 128/129-node boundary.
    pub fn force_dense_scan(&mut self) {
        self.use_mask = false;
    }

    /// One interpreter pass for programs that fit [`MASK_BITS`] nodes: the
    /// ready/fresh flags live in two `u128` registers and the pass visits
    /// only ready nodes. `trailing_zeros` drains the ready set in
    /// increasing-index (topological) order, and a node's consumers always
    /// have larger indices, so newly-readied bits are still ahead of the
    /// cursor — this visits exactly the nodes the full scan would.
    fn run_pass_masked(&mut self, channel: SensorChannel, sample: f64) -> Result<(), HubError> {
        let ci = channel.index();
        let seq = self.channel_seq[ci];
        self.channel_seq[ci] += 1;

        let mut ready: u128 = self.entry_masks[ci];
        let mut fresh: u128 = 0;
        // Single-source entry nodes have no upstream producers and no
        // port to select, so feed them without consulting the ready set.
        // They sit ahead of their consumers in index order, so running
        // them first matches the scan pass's results exactly.
        for &i in &self.direct_feeds[ci] {
            let node = &mut self.nodes[i];
            node.instance.clear_result();
            let started = if S::ENABLED {
                Some(Instant::now())
            } else {
                None
            };
            node.instance.feed_ref(0, seq, ValueRef::Scalar(sample))?;
            let produced = node.instance.has_result();
            if S::ENABLED {
                self.sink.record(Event::NodeExecuted {
                    index: i,
                    node: node.instance.id(),
                    elapsed_ns: started.map_or(0, |t| t.elapsed().as_nanos() as u64),
                    produced,
                });
            }
            if produced {
                fresh |= 1u128 << i;
                ready |= node.consumer_mask;
                if i == self.out_index {
                    let (out_seq, value) = node
                        .instance
                        .result_ref()
                        .expect("has_result was just checked");
                    if let Some(value) = value.as_scalar() {
                        self.wake_buf.push(WakeEvent {
                            seq: out_seq,
                            value,
                        });
                        self.wake_count += 1;
                        if S::ENABLED {
                            self.sink.record(Event::Wake {
                                node: node.instance.id(),
                                seq: out_seq,
                                value,
                            });
                        }
                    }
                }
            }
        }
        while ready != 0 {
            let i = ready.trailing_zeros() as usize;
            ready &= ready - 1;
            // Producers precede consumers in statement order, so node i's
            // active sources all live in `before`.
            let (before, rest) = self.nodes.split_at_mut(i);
            let node = &mut rest[0];
            node.instance.clear_result();
            let started = if S::ENABLED {
                Some(Instant::now())
            } else {
                None
            };
            for (port, source) in node.sources.iter().enumerate() {
                match *source {
                    PortSource::Channel(c) if c == channel => {
                        node.instance
                            .feed_ref(port, seq, ValueRef::Scalar(sample))?;
                    }
                    PortSource::Channel(_) => {}
                    PortSource::Node(src) => {
                        if fresh & (1u128 << src) != 0 {
                            let (src_seq, value) = before[src]
                                .instance
                                .result_ref()
                                .expect("fresh producer holds a result");
                            node.instance.feed_ref(port, src_seq, value)?;
                        }
                    }
                }
            }
            let produced = node.instance.has_result();
            if S::ENABLED {
                self.sink.record(Event::NodeExecuted {
                    index: i,
                    node: node.instance.id(),
                    elapsed_ns: started.map_or(0, |t| t.elapsed().as_nanos() as u64),
                    produced,
                });
            }
            if produced {
                fresh |= 1u128 << i;
                ready |= node.consumer_mask;
                if i == self.out_index {
                    let (out_seq, value) = node
                        .instance
                        .result_ref()
                        .expect("has_result was just checked");
                    if let Some(value) = value.as_scalar() {
                        self.wake_buf.push(WakeEvent {
                            seq: out_seq,
                            value,
                        });
                        self.wake_count += 1;
                        if S::ENABLED {
                            self.sink.record(Event::Wake {
                                node: node.instance.id(),
                                seq: out_seq,
                                value,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// One interpreter pass: feed `sample` and propagate results down the
    /// topologically-ordered node list, appending any wake-ups to
    /// `wake_buf`. Fallback for programs too large for the mask pass.
    fn run_pass_scan(&mut self, channel: SensorChannel, sample: f64) -> Result<(), HubError> {
        let seq = self.channel_seq[channel.index()];
        self.channel_seq[channel.index()] += 1;

        self.ready.fill(false);
        self.fresh.fill(false);
        for &entry in &self.channel_entries[channel.index()] {
            self.ready[entry] = true;
        }

        for i in 0..self.nodes.len() {
            if !self.ready[i] {
                continue;
            }
            // Producers precede consumers in statement order, so node i's
            // active sources all live in `before`.
            let (before, rest) = self.nodes.split_at_mut(i);
            let node = &mut rest[0];
            node.instance.clear_result();
            let started = if S::ENABLED {
                Some(Instant::now())
            } else {
                None
            };
            for (port, source) in node.sources.iter().enumerate() {
                match *source {
                    PortSource::Channel(c) if c == channel => {
                        node.instance
                            .feed_ref(port, seq, ValueRef::Scalar(sample))?;
                    }
                    PortSource::Channel(_) => {}
                    PortSource::Node(src) => {
                        if self.fresh[src] {
                            let (src_seq, value) = before[src]
                                .instance
                                .result_ref()
                                .expect("fresh producer holds a result");
                            node.instance.feed_ref(port, src_seq, value)?;
                        }
                    }
                }
            }
            let produced = node.instance.has_result();
            if S::ENABLED {
                self.sink.record(Event::NodeExecuted {
                    index: i,
                    node: node.instance.id(),
                    elapsed_ns: started.map_or(0, |t| t.elapsed().as_nanos() as u64),
                    produced,
                });
            }
            if produced {
                self.fresh[i] = true;
                for &consumer in &node.consumers {
                    self.ready[consumer] = true;
                }
                if i == self.out_index {
                    let (out_seq, value) = node
                        .instance
                        .result_ref()
                        .expect("has_result was just checked");
                    if let Some(value) = value.as_scalar() {
                        self.wake_buf.push(WakeEvent {
                            seq: out_seq,
                            value,
                        });
                        self.wake_count += 1;
                        if S::ENABLED {
                            self.sink.record(Event::Wake {
                                node: node.instance.id(),
                                seq: out_seq,
                                value,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Clears all instance state and counters, keeping the configuration.
    pub fn reset(&mut self) {
        for node in &mut self.nodes {
            node.instance.reset();
        }
        self.channel_seq = [0; SensorChannel::COUNT];
        self.wake_count = 0;
        self.wake_buf.clear();
        if S::ENABLED {
            self.sink.record(Event::HubReset);
        }
    }
}

/// Checks the resolved program's buffers against [`HOST_LOAD_BUDGET`]
/// with the MCU's footprint walk, before anything is allocated: each
/// node is sized from its parameters and its first input's payload
/// length, exactly as [`sidewinder_mcu::footprint::image_footprint`]
/// sizes an image, and the total is taken at `P`'s width.
///
/// # Errors
///
/// [`ExecError::BadParameter`] at the first node whose parameters the
/// walk rejects (the checks and messages [`AlgoInstance::new`] uses),
/// then [`HubError::TooLarge`] over the budget.
fn check_footprint<P: Sample>(resolved: &[ResolvedNode<'_>]) -> Result<(), HubError> {
    let mut consumed = vec![false; resolved.len()];
    for node in resolved {
        for source in &node.sources {
            if let PortSource::Node(src) = *source {
                consumed[src] = true;
            }
        }
    }
    let mut walk = FootprintWalk::new(usize::MAX);
    let mut lens: Vec<usize> = Vec::with_capacity(resolved.len());
    for (node, &consumed) in resolved.iter().zip(&consumed) {
        let in_len = match node.sources[0] {
            PortSource::Channel(_) => 0,
            PortSource::Node(src) => lens[src],
        };
        let out_len = walk
            .push(&node_kind(node.kind), in_len, consumed)
            .map_err(|e| match e {
                McuExecError::BadParameter { what, .. } => {
                    ExecError::BadParameter { id: node.id, what }
                }
                other => unreachable!("the footprint walk only rejects parameters: {other}"),
            })?;
        lens.push(out_len);
    }
    let footprint = walk.finish().expect("an uncapped walk never overflows");
    let sample_bytes = std::mem::size_of::<P>();
    let needed = footprint.total_bytes(sample_bytes);
    if needed <= HOST_LOAD_BUDGET {
        return Ok(());
    }
    let peak = ArenaKind::ALL
        .into_iter()
        .map(|k| footprint.arena(k))
        .zip(ArenaKind::ALL)
        .max_by_key(|(arena, k)| {
            arena
                .peak_elements
                .saturating_mul(k.element_bytes(sample_bytes))
        })
        .map_or(0, |(arena, _)| usize::from(arena.peak_node));
    Err(HubError::TooLarge {
        needed,
        budget: HOST_LOAD_BUDGET,
        node: resolved.get(peak).map_or(resolved[0].id, |n| n.id),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidewinder_ir::Program;

    fn load(text: &str) -> HubRuntime {
        let program: Program = text.parse().unwrap();
        HubRuntime::load(&program, &ChannelRates::default()).unwrap()
    }

    #[test]
    fn load_rejects_invalid_programs() {
        let program: Program = "ACC_X -> movingAvg(id=1, params={10});".parse().unwrap();
        let err = HubRuntime::load(&program, &ChannelRates::default()).unwrap_err();
        assert!(matches!(err, HubError::Invalid(ValidateError::MissingOut)));
        assert!(err.to_string().contains("OUT"));
    }

    #[test]
    fn unvalidated_holes_are_the_same_typed_error_in_both_loaders() {
        // Programs assembled with `Program::push_node`, bypassing
        // validation: both loaders must report the same typed error,
        // never panic.
        use crate::mcu_image::compile_validated;
        use sidewinder_ir::{AlgorithmKind, NodeId, Source};
        let acc_x = || vec![Source::Channel(SensorChannel::AccX)];
        let avg = AlgorithmKind::MovingAvg { window: 4 };
        let mut cases: Vec<(&str, Program, HubError)> = Vec::new();

        // Node 1's rate comes from node 2, which is defined later.
        let mut p = Program::new();
        p.push_node(
            vec![Source::Node(NodeId(2))],
            NodeId(1),
            AlgorithmKind::AnyOf,
        );
        p.push_node(acc_x(), NodeId(2), avg);
        p.push_out(NodeId(1));
        let unknown = LoadError::UnknownSource {
            at: NodeId(1),
            source: NodeId(2),
        };
        cases.push(("forward rate reference", p, HubError::Load(unknown)));

        // A join whose second port (not the rate-defining first) is
        // undefined.
        let mut p = Program::new();
        p.push_node(acc_x(), NodeId(1), avg);
        p.push_node(
            vec![Source::Node(NodeId(1)), Source::Node(NodeId(9))],
            NodeId(2),
            AlgorithmKind::AllOf,
        );
        p.push_out(NodeId(2));
        let unknown = LoadError::UnknownSource {
            at: NodeId(2),
            source: NodeId(9),
        };
        cases.push(("undefined second-port source", p, HubError::Load(unknown)));

        let mut p = Program::new();
        p.push_node(acc_x(), NodeId(1), avg);
        p.push_out(NodeId(7));
        let unknown = LoadError::UnknownOut { source: NodeId(7) };
        cases.push(("undefined OUT", p, HubError::Load(unknown)));

        let mut p = Program::new();
        p.push_node(Vec::new(), NodeId(1), AlgorithmKind::AnyOf);
        p.push_out(NodeId(1));
        let arity = ValidateError::BadArity {
            id: NodeId(1),
            algorithm: "anyOf",
            got: 0,
        };
        cases.push(("node with no sources", p, HubError::Invalid(arity)));

        let mut p = Program::new();
        p.push_node(acc_x(), NodeId(1), avg);
        cases.push((
            "missing OUT",
            p,
            HubError::Invalid(ValidateError::MissingOut),
        ));

        for (name, program, expected) in cases {
            let rates = ChannelRates::default();
            let host =
                HubRuntime::<_, f64>::load_validated(&program, &rates, NullSink).unwrap_err();
            let image = compile_validated(&program, &rates).unwrap_err();
            assert_eq!(host, expected, "{name}: host loader");
            assert_eq!(image, expected, "{name}: image compiler");
        }
    }

    #[test]
    fn significant_motion_pipeline_wakes_on_vigorous_motion() {
        // The paper's Fig. 2 example, with a threshold above resting
        // gravity magnitude (~9.81).
        let mut hub = load(
            "ACC_X -> movingAvg(id=1, params={10});
             ACC_Y -> movingAvg(id=2, params={10});
             ACC_Z -> movingAvg(id=3, params={10});
             1,2,3 -> vectorMagnitude(id=4);
             4 -> minThreshold(id=5, params={15});
             5 -> OUT;",
        );
        assert_eq!(hub.node_count(), 5);

        // Resting: gravity only.
        for _ in 0..50 {
            for (c, v) in [
                (SensorChannel::AccX, 0.0),
                (SensorChannel::AccY, 0.0),
                (SensorChannel::AccZ, 9.81),
            ] {
                assert!(hub.push_sample(c, v).unwrap().is_empty());
            }
        }
        assert_eq!(hub.wake_count(), 0);

        // Vigorous shaking: large magnitude on all axes.
        let mut woke = false;
        for _ in 0..50 {
            for c in SensorChannel::ACCEL {
                woke |= !hub.push_sample(c, 12.0).unwrap().is_empty();
            }
        }
        assert!(woke);
        assert!(hub.wake_count() > 0);
    }

    #[test]
    fn wake_events_carry_value_and_seq() {
        let mut hub = load(
            "ACC_X -> movingAvg(id=1, params={2});
             1 -> minThreshold(id=2, params={5});
             2 -> OUT;",
        );
        hub.push_sample(SensorChannel::AccX, 6.0).unwrap();
        let wakes = hub.push_sample(SensorChannel::AccX, 8.0).unwrap();
        assert_eq!(wakes.len(), 1);
        assert_eq!(wakes[0].value, 7.0);
        assert_eq!(wakes[0].seq, 1);
    }

    #[test]
    fn irrelevant_channels_are_ignored() {
        let mut hub = load(
            "ACC_X -> movingAvg(id=1, params={1});
             1 -> minThreshold(id=2, params={0});
             2 -> OUT;",
        );
        // Mic samples never touch the accelerometer pipeline.
        assert!(hub
            .push_sample(SensorChannel::Mic, 99.0)
            .unwrap()
            .is_empty());
        assert!(!hub
            .push_sample(SensorChannel::AccX, 1.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn audio_window_pipeline_counts_windows() {
        let mut hub = load(
            "MIC -> window(id=1, params={64, 64, 0});
             1 -> rms(id=2);
             2 -> minThreshold(id=3, params={0.5});
             3 -> OUT;",
        );
        // 128 loud samples → two windows → two wakes.
        let mut wakes = 0;
        for i in 0..128u64 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            wakes += hub.push_sample(SensorChannel::Mic, x).unwrap().len();
        }
        assert_eq!(wakes, 2);
        // 128 quiet samples → no wakes.
        for _ in 0..128 {
            assert!(hub
                .push_sample(SensorChannel::Mic, 0.001)
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn branching_window_feeds_two_consumers() {
        // One window feeding both a variance branch and a ZCR branch,
        // joined by allOf — the music-journal shape (paper §3.7.2).
        let mut hub = load(
            "MIC -> window(id=1, params={64, 64, 0});
             1 -> variance(id=2);
             1 -> zcrVariance(id=3, params={4});
             2 -> minThreshold(id=4, params={0.01});
             3 -> minThreshold(id=5, params={0});
             4,5 -> allOf(id=6);
             6 -> OUT;",
        );
        let mut woke = false;
        for i in 0..256u64 {
            // Alternate loud high-ZCR and quiet segments within windows.
            let x = if (i / 8) % 2 == 0 {
                if i % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            } else {
                0.0
            };
            woke |= !hub.push_sample(SensorChannel::Mic, x).unwrap().is_empty();
        }
        assert!(woke);
    }

    #[test]
    fn sustained_siren_shape_requires_duration() {
        // Pitched windows must persist for 3 consecutive windows
        // (hop = 64) before OUT fires.
        let text = "MIC -> window(id=1, params={64, 64, 0});
             1 -> fft(id=2);
             2 -> spectralMagnitude(id=3);
             3 -> dominantRatio(id=4);
             4 -> minThreshold(id=5, params={5});
             5 -> sustained(id=6, params={3, 64});
             6 -> OUT;";
        let mut hub = load(text);
        let rate = 8000.0;
        let tone = |i: u64| (2.0 * std::f64::consts::PI * 1000.0 * i as f64 / rate).sin();

        // Two pitched windows: not enough.
        let mut wakes = 0;
        for i in 0..128u64 {
            wakes += hub.push_sample(SensorChannel::Mic, tone(i)).unwrap().len();
        }
        assert_eq!(wakes, 0);
        // A third consecutive pitched window triggers.
        for i in 128..192u64 {
            wakes += hub.push_sample(SensorChannel::Mic, tone(i)).unwrap().len();
        }
        assert_eq!(wakes, 1);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut hub = load(
            "ACC_X -> movingAvg(id=1, params={2});
             1 -> minThreshold(id=2, params={0});
             2 -> OUT;",
        );
        hub.push_sample(SensorChannel::AccX, 1.0).unwrap();
        hub.push_sample(SensorChannel::AccX, 1.0).unwrap();
        assert_eq!(hub.wake_count(), 1);
        hub.reset();
        assert_eq!(hub.wake_count(), 0);
        // Warm-up required again after reset.
        assert!(hub
            .push_sample(SensorChannel::AccX, 1.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn channel_rates_validation() {
        let rates = ChannelRates::default().with_rate(SensorChannel::Mic, 16_000.0);
        assert_eq!(rates.rate_of(SensorChannel::Mic), 16_000.0);
        assert_eq!(rates.rate_of(SensorChannel::AccX), 50.0);
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn channel_rates_reject_zero() {
        let _ = ChannelRates::default().with_rate(SensorChannel::Mic, 0.0);
    }

    #[test]
    fn fft_ifft_round_trip_inside_a_program() {
        // window → fft → ifft → rms reproduces the plain window → rms
        // pipeline (the inverse transform is exact).
        let text_roundtrip = "MIC -> window(id=1, params={64, 64, 0});
             1 -> fft(id=2);
             2 -> ifft(id=3);
             3 -> rms(id=4);
             4 -> minThreshold(id=5, params={0.5});
             5 -> OUT;";
        let text_direct = "MIC -> window(id=1, params={64, 64, 0});
             1 -> rms(id=2);
             2 -> minThreshold(id=3, params={0.5});
             3 -> OUT;";
        let mut roundtrip = load(text_roundtrip);
        let mut direct = load(text_direct);
        for i in 0..512u64 {
            let x = (i as f64 * 0.7).sin();
            let a = roundtrip.push_sample(SensorChannel::Mic, x).unwrap();
            let b = direct.push_sample(SensorChannel::Mic, x).unwrap();
            assert_eq!(a.len(), b.len(), "wake mismatch at sample {i}");
            for (wa, wb) in a.iter().zip(&b) {
                assert!((wa.value - wb.value).abs() < 1e-9);
            }
        }
        assert!(roundtrip.wake_count() > 0);
    }

    #[test]
    fn any_of_joins_with_or_semantics() {
        // Wake when either axis exceeds its own threshold.
        let mut hub = load(
            "ACC_X -> minThreshold(id=1, params={5});
             ACC_Y -> minThreshold(id=2, params={7});
             1,2 -> anyOf(id=3);
             3 -> OUT;",
        );
        // Only x exceeds: wakes.
        assert!(!hub
            .push_sample(SensorChannel::AccX, 6.0)
            .unwrap()
            .is_empty());
        assert!(hub
            .push_sample(SensorChannel::AccY, 6.0)
            .unwrap()
            .is_empty());
        // Only y exceeds: wakes.
        assert!(hub
            .push_sample(SensorChannel::AccX, 1.0)
            .unwrap()
            .is_empty());
        assert!(!hub
            .push_sample(SensorChannel::AccY, 8.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn exp_moving_average_runs_in_a_program() {
        let mut hub = load(
            "ACC_X -> expMovingAvg(id=1, params={0.5});
             1 -> minThreshold(id=2, params={3});
             2 -> OUT;",
        );
        // EMA of constant 4: first output 4 ≥ 3 → immediate wake.
        assert!(!hub
            .push_sample(SensorChannel::AccX, 4.0)
            .unwrap()
            .is_empty());
        // EMA decays from 4 toward 0: 2.0 at the next quiet sample.
        assert!(hub
            .push_sample(SensorChannel::AccX, 0.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn f32_runtime_agrees_with_f64_on_the_music_shape() {
        // The branching window/variance/zcr shape at both precisions:
        // identical wake decisions on a well-separated signal, with wake
        // values within single-precision tolerance.
        let text = "MIC -> window(id=1, params={64, 64, 0});
             1 -> variance(id=2);
             1 -> zcrVariance(id=3, params={4});
             2 -> minThreshold(id=4, params={0.01});
             3 -> minThreshold(id=5, params={0});
             4,5 -> allOf(id=6);
             6 -> OUT;";
        let program: Program = text.parse().unwrap();
        let mut h64 = HubRuntime::load(&program, &ChannelRates::default()).unwrap();
        let mut h32 = HubRuntime32::load_f32(&program, &ChannelRates::default()).unwrap();
        for i in 0..512u64 {
            let x = if (i / 8) % 2 == 0 {
                if i % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            } else {
                0.0
            };
            let a = h64.push_sample(SensorChannel::Mic, x).unwrap();
            let b = h32.push_sample(SensorChannel::Mic, x).unwrap();
            assert_eq!(a.len(), b.len(), "wake count diverged at sample {i}");
            for (wa, wb) in a.iter().zip(&b) {
                assert_eq!(wa.seq, wb.seq);
                assert!(
                    (wa.value - wb.value).abs() < 1e-4,
                    "{} vs {}",
                    wa.value,
                    wb.value
                );
            }
        }
        assert!(h64.wake_count() > 0, "the loud segments must wake");
        assert_eq!(h64.wake_count(), h32.wake_count());
    }

    #[test]
    fn runtime_survives_exec_error() {
        // A magnitude vector (length 33) flowing into lowPass triggers a
        // run-time transform-length error; the runtime reports it and can
        // keep going.
        let mut hub = load(
            "MIC -> window(id=1, params={64, 64, 0});
             1 -> fft(id=2);
             2 -> spectralMagnitude(id=3);
             3 -> lowPass(id=4, params={100});
             4 -> rms(id=5);
             5 -> minThreshold(id=6, params={0});
             6 -> OUT;",
        );
        let mut saw_error = false;
        for i in 0..64u64 {
            match hub.push_sample(SensorChannel::Mic, (i as f64 * 0.1).sin()) {
                Ok(_) => {}
                Err(HubError::Exec(ExecError::BadTransformLength { len: 33, .. })) => {
                    saw_error = true;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_error);
        // Still accepts samples afterwards.
        assert!(hub.push_sample(SensorChannel::Mic, 0.0).is_ok());
    }
}
