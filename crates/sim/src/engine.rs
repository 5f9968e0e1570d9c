//! The trace-driven simulation engine.
//!
//! [`simulate`] replays one trace through one application under one
//! strategy and produces the quantities the paper reports (§4.3): "the
//! amount of sleep and awake time, the total number of wake-up events,
//! and the recall and precision of the application", plus the average
//! power estimated from the Table 1 model.
//!
//! Hub-resident strategies run through one replay loop whatever the
//! fault schedule: the schedule is expanded into a [`FaultPlan`], and
//! with no faults configured the plan is empty — no resets, no outage or
//! dropout windows, every frame delivered on its first attempt — so the
//! loop pushes each channel's samples to the hub in whole batches.

use crate::app::Application;
use crate::intervals::IntervalSet;
use crate::metrics::{DetectionStats, FaultCounters};
use crate::power::{PhonePowerProfile, PowerBreakdown};
use crate::strategy::Strategy;
use sidewinder_hub::fault::{
    FaultPlan, FaultSchedule, FrameFate, HUB_REBOOT_TIME, PROBE_FRAME_BYTES, WAKE_FRAME_BYTES,
};
use sidewinder_hub::link::SerialLink;
use sidewinder_hub::runtime::{ChannelRates, HubRuntime};
use sidewinder_hub::{HubError, Sample};
use sidewinder_ir::Program;
use sidewinder_obs::{Event, EventSink, FrameOutcome, NullSink};
use sidewinder_sensors::{Micros, SensorChannel, SensorTrace, TimeSeries};
use std::ops::Range;

/// Tunable simulation constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// How long the phone stays awake per wake-up to sample and process
    /// (the paper uses 4 s chunks for duty cycling).
    pub awake_chunk: Micros,
    /// How long the phone stays awake after a *hub* wake-up: the hub
    /// hands over a buffer of already-collected data, so processing is
    /// brief; sustained events keep producing wake-ups that merge into a
    /// continuous awake span.
    pub hub_chunk: Micros,
    /// How much buffered raw data the hub hands to the application on a
    /// wake-up (§3.8 "our current implementation passes a buffer of raw
    /// sensor data").
    pub lookback: Micros,
    /// Awake periods closer than this merge into one (the phone cannot
    /// complete a sleep/wake round trip faster than the two 1 s
    /// transitions).
    pub merge_gap: Micros,
    /// Tolerance when matching detections to ground-truth events.
    pub match_tolerance: Micros,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            awake_chunk: Micros::from_secs(4),
            hub_chunk: Micros::from_millis(500),
            lookback: Micros::from_secs(4),
            merge_gap: Micros::from_secs(2),
            match_tolerance: Micros::from_secs(2),
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The hub rejected or failed to execute the wake-up condition.
    Hub(HubError),
    /// The trace lacks a channel the wake-up condition reads.
    MissingChannel(sidewinder_sensors::SensorChannel),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Hub(e) => write!(f, "hub failure: {e}"),
            SimError::MissingChannel(c) => {
                write!(f, "trace does not record channel {c}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<HubError> for SimError {
    fn from(e: HubError) -> Self {
        SimError::Hub(e)
    }
}

/// The outcome of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Strategy label (AA, DC-10, …).
    pub strategy: String,
    /// Application name.
    pub app: String,
    /// Trace name.
    pub trace: String,
    /// Time spent per phone state.
    pub breakdown: PowerBreakdown,
    /// Average power, mW, under the profile used.
    pub average_power_mw: f64,
    /// Number of disjoint awake periods (wake-up events).
    pub wake_ups: usize,
    /// Recall/precision against ground truth.
    pub stats: DetectionStats,
    /// De-duplicated detection timestamps.
    pub detections: Vec<Micros>,
    /// Per-detection discovery delay: how long after the event appeared
    /// in the data the application actually processed it. Zero for live
    /// strategies; up to one interval for batching — the paper's §5.4
    /// timeliness objection.
    pub discovery_delays: Vec<Micros>,
    /// Fault activity during the run; all zeros for fault-free runs.
    pub fault: FaultCounters,
}

impl SimResult {
    /// Recall shorthand.
    pub fn recall(&self) -> f64 {
        self.stats.recall()
    }

    /// Precision shorthand.
    pub fn precision(&self) -> f64 {
        self.stats.precision()
    }

    /// Mean discovery delay in seconds (zero when every detection was
    /// processed live).
    pub fn mean_discovery_delay_s(&self) -> f64 {
        if self.discovery_delays.is_empty() {
            return 0.0;
        }
        self.discovery_delays
            .iter()
            .map(|d| d.as_secs_f64())
            .sum::<f64>()
            / self.discovery_delays.len() as f64
    }

    /// Largest discovery delay in seconds.
    pub fn max_discovery_delay_s(&self) -> f64 {
        self.discovery_delays
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max)
    }
}

/// Replays `trace` through `app` under `strategy`.
///
/// # Errors
///
/// Returns [`SimError`] if a hub wake-up condition cannot be loaded or
/// executed on the trace.
pub fn simulate(
    trace: &SensorTrace,
    app: &dyn Application,
    strategy: &Strategy,
    profile: &PhonePowerProfile,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    simulate_with_faults(
        trace,
        app,
        strategy,
        profile,
        config,
        &FaultSchedule::none(),
    )
}

/// Replays `trace` through `app` under `strategy` while injecting the
/// faults described by `schedule`.
///
/// Faults live on the phone↔hub link and the hub itself, so only the
/// hub-resident strategies ([`Strategy::HubWake`],
/// [`Strategy::HubWakeDegraded`]) are affected. An empty schedule plans
/// no faults, so this is exactly [`simulate`]: the same replay, zeroed
/// [`FaultCounters`].
///
/// # Errors
///
/// Returns [`SimError`] if the wake-up condition cannot be loaded or
/// executed on the trace.
pub fn simulate_with_faults(
    trace: &SensorTrace,
    app: &dyn Application,
    strategy: &Strategy,
    profile: &PhonePowerProfile,
    config: &SimConfig,
    schedule: &FaultSchedule,
) -> Result<SimResult, SimError> {
    simulate_traced::<f64, _>(
        trace,
        app,
        strategy,
        profile,
        config,
        schedule,
        &mut NullSink,
    )
}

/// [`simulate_with_faults`] with the hub's vector precision `P` chosen
/// and an observability sink attached.
///
/// `P = f32` is the hardware-faithful hub mode (the paper's MCUs have at
/// most an f32 FPU). It only governs windows and spectra buffered *on
/// the hub*, so phone-side strategies (Always Awake, Duty Cycling,
/// Batching, Oracle) give the same results at either precision;
/// hub-resident strategies may wake at slightly different sample
/// positions when a feature value sits within single-precision rounding
/// of its threshold.
///
/// Hub-resident strategies thread `sink` into the [`HubRuntime`], so it
/// sees every node execution and wake emission; the engine moves the
/// sink's time cursor to each sample's trace time and reports every
/// link-frame attempt and its fate, lost frames, dropped samples, hub
/// resets with their program re-downloads, and degraded-mode entries and
/// exits. With [`NullSink`] the instrumentation compiles out and samples
/// reach the hub in batches (pinned equal by the obs conformance suite).
///
/// # Errors
///
/// Returns [`SimError`] if a hub wake-up condition cannot be loaded or
/// executed on the trace.
pub fn simulate_traced<P: Sample, S: EventSink>(
    trace: &SensorTrace,
    app: &dyn Application,
    strategy: &Strategy,
    profile: &PhonePowerProfile,
    config: &SimConfig,
    schedule: &FaultSchedule,
    sink: &mut S,
) -> Result<SimResult, SimError> {
    let duration = trace.duration();
    let mut discovery_delays = Vec::new();
    let mut fault = FaultCounters::default();
    let (awake, mut detections) = match strategy {
        Strategy::AlwaysAwake => {
            let detections = app.classify(trace, Micros::ZERO, duration);
            (
                IntervalSet::from_spans(vec![(Micros::ZERO, duration)], Micros::ZERO),
                detections,
            )
        }
        Strategy::DutyCycle { sleep } => duty_cycle(
            trace,
            app,
            (Micros::ZERO, duration),
            *sleep,
            profile,
            config,
        ),
        Strategy::Batching { interval, .. } => {
            let (awake, detections, delays) = batching(trace, app, *interval, profile, config);
            discovery_delays = delays;
            (awake, detections)
        }
        Strategy::HubWake { program, .. } | Strategy::HubWakeDegraded { program, .. } => {
            let fallback = match strategy {
                Strategy::HubWakeDegraded { fallback_sleep, .. } => Some(*fallback_sleep),
                _ => None,
            };
            let (awake, detections, counters) = hub_wake::<P, S>(
                trace, app, program, fallback, profile, config, schedule, sink,
            )?;
            fault = counters;
            (awake, detections)
        }
        Strategy::Oracle => {
            let spans: Vec<(Micros, Micros)> = app
                .target_kinds()
                .iter()
                .flat_map(|&k| trace.ground_truth().of_kind(k))
                .map(|iv| (iv.start(), iv.end()))
                .collect();
            let detections = spans.iter().map(|(s, e)| *s + (*e - *s) / 2).collect();
            (IntervalSet::from_spans(spans, config.merge_gap), detections)
        }
    };

    let awake = awake.clip(duration);
    detections.sort();
    detections.dedup();

    let stats = DetectionStats::match_events(
        trace.ground_truth(),
        &app.target_kinds(),
        &detections,
        config.match_tolerance,
    );

    let mut breakdown = integrate(&awake, duration, profile, strategy.hub_mw());
    // Recovery work (backoff waits, probes, retransmissions, program
    // re-downloads) keeps the phone out of sleep: move that time from the
    // sleep budget to awake, preserving the trace-time partition.
    let recovery_awake = fault.recovery_time.min(breakdown.asleep);
    breakdown.awake += recovery_awake;
    breakdown.asleep -= recovery_awake;
    Ok(SimResult {
        strategy: strategy.label(),
        app: app.name().to_string(),
        trace: trace.name().to_string(),
        average_power_mw: breakdown.average_power_mw(profile),
        wake_ups: awake.len(),
        breakdown,
        stats,
        detections,
        discovery_delays,
        fault,
    })
}

/// Converts awake spans into the per-state time breakdown, charging one
/// wake and one sleep transition per disjoint awake period out of the
/// sleep budget.
pub(crate) fn integrate(
    awake: &IntervalSet,
    duration: Micros,
    profile: &PhonePowerProfile,
    hub_mw: f64,
) -> PowerBreakdown {
    let t_awake = awake.total().min(duration);
    let sleep_budget = duration.saturating_sub(t_awake);
    let wanted_overhead = profile.transition_time * (2 * awake.len() as u64);
    let overhead = wanted_overhead.min(sleep_budget);
    PowerBreakdown {
        awake: t_awake,
        asleep: sleep_budget.saturating_sub(overhead),
        waking: overhead / 2,
        sleeping: overhead - overhead / 2,
        hub_mw,
    }
}

/// Duty cycling over `[start, end)`: wake, sample for one chunk, extend
/// while the classifier keeps detecting, then sleep.
fn duty_cycle(
    trace: &SensorTrace,
    app: &dyn Application,
    (start, end): (Micros, Micros),
    sleep: Micros,
    profile: &PhonePowerProfile,
    config: &SimConfig,
) -> (IntervalSet, Vec<Micros>) {
    let chunk = config.awake_chunk;
    let mut spans = Vec::new();
    let mut detections = Vec::new();
    let mut t = start;
    while t < end {
        let mut stop = (t + chunk).min(end);
        loop {
            let chunk_start = stop.saturating_sub(chunk).max(t);
            let found = app.classify(trace, chunk_start, stop);
            let fresh: Vec<Micros> = found
                .into_iter()
                .filter(|&d| d >= chunk_start && d < stop)
                .collect();
            let keep_going = !fresh.is_empty() && stop < end;
            detections.extend(fresh);
            if !keep_going {
                break;
            }
            stop = (stop + chunk).min(end);
        }
        spans.push((t, stop));
        // The sleep interval is the total gap between sampling windows;
        // the two 1 s transitions live inside it (and consume it
        // entirely at the paper's shortest 2 s interval, which is why
        // DC-2 costs *more* than Always Awake — §5.4's 339 mW).
        t = stop + sleep.max(profile.transition_time * 2);
    }
    // Duty-cycle spans are genuinely disjoint: the phone transitions
    // between every pair, so no gap merging applies.
    (IntervalSet::from_spans(spans, Micros::ZERO), detections)
}

/// Batching: the hub caches data while the phone sleeps; on each wake the
/// application processes the entire batch.
fn batching(
    trace: &SensorTrace,
    app: &dyn Application,
    interval: Micros,
    profile: &PhonePowerProfile,
    config: &SimConfig,
) -> (IntervalSet, Vec<Micros>, Vec<Micros>) {
    let duration = trace.duration();
    let mut spans = Vec::new();
    let mut detections = Vec::new();
    let mut delays = Vec::new();
    let mut processed_to = Micros::ZERO;
    let mut t = interval;
    while processed_to < duration {
        let wake_at = t.min(duration);
        // Process everything cached since the last batch; each detection
        // is only *discovered* now, a batch interval after the fact.
        for d in app.classify(trace, processed_to, wake_at) {
            delays.push(wake_at.saturating_sub(d));
            detections.push(d);
        }
        processed_to = wake_at;
        if wake_at >= duration {
            break;
        }
        spans.push((wake_at, (wake_at + config.awake_chunk).min(duration)));
        t = wake_at + config.awake_chunk + interval.max(profile.transition_time * 2);
    }
    (
        IntervalSet::from_spans(spans, Micros::ZERO),
        detections,
        delays,
    )
}

/// The series `channels` read from `trace`, in order.
pub(crate) fn channel_series<'t>(
    trace: &'t SensorTrace,
    channels: &[SensorChannel],
) -> Result<Vec<&'t TimeSeries>, SimError> {
    channels
        .iter()
        .map(|&c| trace.channel(c).ok_or(SimError::MissingChannel(c)))
        .collect()
}

/// Time-ordered replay of several series: yields `(position, samples)`
/// runs of consecutive samples from one series, in exactly the order a
/// serial pick would feed them one by one — the earliest next sample
/// first, and on equal times the series at the smaller position. Runs are
/// maximal, so consecutive runs come from different series.
///
/// The merge evaluates a timestamp only where the order is not already
/// known. A series with no other series left is one run to its end. When
/// [`index_ordered`] holds, the cursors alone decide the pick. Otherwise a
/// run ends at the first sample whose time loses the pick, found by
/// [`first_at_or_after`].
pub(crate) struct ChannelMerge<'s, 't> {
    series: &'s [&'t TimeSeries],
    cursors: Vec<usize>,
    /// Whether [`index_ordered`] holds, so `heads` is not kept.
    by_index: bool,
    /// Trace time of each series' next sample; `None` once it is used up.
    heads: Vec<Option<Micros>>,
}

impl<'s, 't> ChannelMerge<'s, 't> {
    pub(crate) fn new(series: &'s [&'t TimeSeries]) -> Self {
        let by_index = index_ordered(series);
        ChannelMerge {
            series,
            cursors: vec![0; series.len()],
            by_index,
            heads: if by_index {
                Vec::new()
            } else {
                // Every series starts at time zero.
                series
                    .iter()
                    .map(|s| (!s.is_empty()).then_some(Micros::ZERO))
                    .collect()
            },
        }
    }

    /// Index order: the live series with the smallest cursor, the
    /// smaller position on equal cursors, feeds one sample. Every other
    /// live series then wins the next pick: one at a smaller position
    /// waits at the index the picked series moves to and wins the tie,
    /// one at a larger position waits at the index just fed. So a run
    /// longer than one sample needs every other series used up, and is
    /// then the rest of the series.
    fn next_by_index(&mut self) -> Option<(usize, Range<usize>)> {
        let mut pick: Option<usize> = None;
        let mut live = 0;
        for (j, s) in self.series.iter().enumerate() {
            let cursor = self.cursors[j];
            if cursor < s.len() {
                live += 1;
                if pick.is_none_or(|p| cursor < self.cursors[p]) {
                    pick = Some(j);
                }
            }
        }
        let i = pick?;
        let start = self.cursors[i];
        let end = if live == 1 {
            self.series[i].len()
        } else {
            start + 1
        };
        self.cursors[i] = end;
        Some((i, start..end))
    }

    fn next_clocked(&mut self) -> Option<(usize, Range<usize>)> {
        let mut best: Option<(usize, Micros)> = None;
        for (j, head) in self.heads.iter().enumerate() {
            if let Some(t) = *head {
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((j, t));
                }
            }
        }
        let (i, _) = best?;
        // The other series' next-sample times are fixed while this one
        // runs, so the run extends as long as it keeps winning the serial
        // pick: strictly earlier than series at a smaller position, no
        // later than series at a larger one. So it ends at the first
        // sample at or past `before` or `after` + 1 µs, whichever is
        // sooner; with no other series left, the rest is one run.
        let before = self.heads[..i].iter().flatten().min().copied();
        let after = self.heads[i + 1..].iter().flatten().min().copied();
        let limit = before
            .into_iter()
            .chain(after.map(|m| m + Micros::from_micros(1)))
            .min();
        let series = self.series[i];
        let start = self.cursors[i];
        let end = limit.map_or(series.len(), |t| {
            first_at_or_after(series, start + 1..series.len(), t)
        });
        self.heads[i] = (end < series.len()).then(|| series.time_of(end));
        self.cursors[i] = end;
        Some((i, start..end))
    }
}

/// Whether every series shares one rate at which all their µs stamps
/// strictly increase. Equal indices then have equal stamps, so the serial
/// pick is index order, then position order, and needs no clock.
///
/// Stamp `k` is `round(fl(fl(k / rate) * 1e6))`, with `k` exact in an f64.
/// Each float operation errs by at most one part in 2^53, so below 1e9 s
/// (1e15 µs) the value rounded is within 0.23 µs of the exact
/// `k * 1e6 / rate`. At 500 kHz or less the exact values are at least
/// 2 µs apart, and rounding moves each by at most 0.5 µs, so consecutive
/// stamps differ by more than `2 - 2 * 0.23 - 1 > 0`. Above about 1 MHz
/// consecutive samples can share a stamp, so faster series take the
/// clocked path.
fn index_ordered(series: &[&TimeSeries]) -> bool {
    let Some(rate) = series.first().map(|s| s.rate_hz()) else {
        return false;
    };
    rate <= 500_000.0
        && series
            .iter()
            .all(|s| s.rate_hz() == rate && (s.len() as f64) < 1e9 * rate)
}

impl Iterator for ChannelMerge<'_, '_> {
    type Item = (usize, Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.by_index {
            self.next_by_index()
        } else {
            self.next_clocked()
        }
    }
}

/// The first index in `range` whose sample lies at or past `t`, or
/// `range.end`. Stamps never decrease along a series, so it gallops from
/// `range.start` — an answer `k` samples in costs about `2 log2 k` stamps,
/// and one at `range.start` costs one — then bisects the last step.
fn first_at_or_after(series: &TimeSeries, range: Range<usize>, t: Micros) -> usize {
    let (mut lo, mut hi) = (range.start, range.end);
    let mut step = 1;
    while lo < hi {
        let probe = (lo + step - 1).min(hi - 1);
        if series.time_of(probe) >= t {
            hi = probe;
            break;
        }
        lo = probe + 1;
        step *= 2;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if series.time_of(mid) >= t {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Which series index each hub sequence number on one channel came from,
/// as one `(first sequence number, first series index)` entry per
/// stretch of consumed samples since the last hub reset.
#[derive(Debug, Clone, Default)]
struct SeqMap {
    stretches: Vec<(u64, usize)>,
    consumed: u64,
}

impl SeqMap {
    /// Records that the hub consumed the series samples `indices` next.
    fn push(&mut self, indices: Range<usize>) {
        let continues = self.stretches.last().is_some_and(|&(seq, index)| {
            index as u64 + (self.consumed - seq) == indices.start as u64
        });
        if !continues {
            self.stretches.push((self.consumed, indices.start));
        }
        self.consumed += indices.len() as u64;
    }

    /// The series index of the sample the hub numbered `seq`.
    fn index_of(&self, seq: u64) -> usize {
        let k = self.stretches.partition_point(|&(first, _)| first <= seq);
        let (first, index) = self.stretches[k - 1];
        index + (seq - first) as usize
    }

    /// Forgets everything, as the hub restarts its sequence counters.
    fn clear(&mut self) {
        self.stretches.clear();
        self.consumed = 0;
    }
}

/// Hub-resident wake-up condition (Predefined Activity or Sidewinder),
/// interpreted at vector precision `P` under the faults `schedule` plans.
///
/// The serial link corrupts and drops frames, the hub resets and browns
/// out, sensor channels fall silent. The phone retries frames with capped
/// exponential backoff, probes hub health after timeouts, and
/// re-downloads the program after each reset; with a `fallback` sleep it
/// also duty-cycles on the main CPU through every window where the hub
/// is unusable. Between fault boundaries (the next reset, a downtime
/// edge, a dropout edge on the channel) nothing changes, so each such
/// stretch is dropped or pushed to the hub whole.
#[allow(clippy::too_many_arguments)]
fn hub_wake<P: Sample, S: EventSink>(
    trace: &SensorTrace,
    app: &dyn Application,
    program: &Program,
    fallback: Option<Micros>,
    profile: &PhonePowerProfile,
    config: &SimConfig,
    schedule: &FaultSchedule,
    sink: &mut S,
) -> Result<(IntervalSet, Vec<Micros>, FaultCounters), SimError> {
    let duration = trace.duration();
    // Configure hub channel rates from the trace itself.
    let channels = program.channels();
    let series = channel_series(trace, &channels)?;
    let rates = channels
        .iter()
        .zip(&series)
        .fold(ChannelRates::default(), |rates, (&c, s)| {
            rates.with_rate(c, s.rate_hz())
        });
    let mut hub = HubRuntime::<_, P>::load_generic(program, &rates, &mut *sink)?;

    // Link-cost model: every transfer is CRC-framed; a health probe is a
    // round trip; a retry costs a probe and a fresh frame on top of its
    // backoff; recovering from a hub reset takes the reboot, a program
    // re-download, and a probe to confirm the hub is back.
    let link = SerialLink::NEXUS4_UART;
    let probe_time = link.framed_transfer_time(PROBE_FRAME_BYTES) * 2;
    let retry_cost = probe_time + link.framed_transfer_time(WAKE_FRAME_BYTES);
    let program_bytes = program.to_string().len();
    let recovery = HUB_REBOOT_TIME + link.framed_transfer_time(program_bytes) + probe_time;
    let mut plan = schedule.plan(duration, recovery);
    let mut fault = FaultCounters::default();

    // Wake times that actually reached the phone, and windows in which the
    // link blew through its retry budget (feeding the degraded fallback).
    let mut wake_times: Vec<Micros> = Vec::new();
    let mut saturated: Vec<(Micros, Micros)> = Vec::new();
    // A wake's `seq` tag numbers the samples its channel fed the hub since
    // the last reset; the map turns it back into the trigger time.
    let mut seq_maps = vec![SeqMap::default(); channels.len()];
    let mut wake_seqs: Vec<u64> = Vec::new();
    let mut next_reset = 0usize;
    // Per channel: whether its samples are being dropped, and its first
    // sample at or past the next fault boundary, up to which that holds
    // (`None`: to the end of the trace). Holding the boundary as a sample
    // index lets the loop skip every sample's time until it is reached.
    let mut state = vec![(false, Some(0)); channels.len()];

    for (i, run) in ChannelMerge::new(&series) {
        let (channel, series) = (channels[i], series[i]);
        let mut start = run.start;
        while start < run.end {
            if state[i].1.is_some_and(|boundary| start >= boundary) {
                let t = series.time_of(start);
                // Fire any watchdog reset that has come due: the hub
                // loses all filter state and its sequence counters, and
                // the phone pays reboot + re-download + probe to bring it
                // back. Resets are boundaries on every channel, so the
                // first sample at or past one always lands here.
                while let Some(&reset) = plan.resets().get(next_reset).filter(|&&r| r <= t) {
                    if S::ENABLED {
                        hub.sink_mut().set_time(reset);
                    }
                    hub.reset();
                    if S::ENABLED {
                        hub.sink_mut().record(Event::ProgramRedownload);
                    }
                    seq_maps.iter_mut().for_each(SeqMap::clear);
                    fault.hub_resets += 1;
                    fault.redownloads += 1;
                    fault.recovery_time += recovery;
                    next_reset += 1;
                }
                let dropped = plan.hub_down_at(t) || plan.channel_dropped(channel, t);
                let boundary = plan
                    .next_boundary(channel, t)
                    .map(|b| first_at_or_after(series, start + 1..series.len(), b));
                state[i] = (dropped, boundary);
            }
            let (dropped, boundary) = state[i];
            let end = boundary.map_or(run.end, |b| b.min(run.end));
            let stretch = start..end;
            start = end;

            if dropped {
                fault.samples_dropped += stretch.len() as u64;
                if S::ENABLED {
                    for k in stretch {
                        hub.sink_mut().set_time(series.time_of(k));
                        hub.sink_mut().record(Event::SampleDropped { channel });
                    }
                }
                continue;
            }
            seq_maps[i].push(stretch.clone());
            // Traced runs feed one sample at a time so each event is
            // stamped with its sample's trace time.
            let batch = if S::ENABLED { 1 } else { stretch.len() };
            for (n, samples) in series.samples()[stretch.clone()].chunks(batch).enumerate() {
                if S::ENABLED {
                    hub.sink_mut().set_time(series.time_of(stretch.start + n));
                }
                wake_seqs.clear();
                wake_seqs.extend(hub.push_samples(channel, samples)?.iter().map(|w| w.seq));
                for &seq in &wake_seqs {
                    let tw = series.time_of(seq_maps[i].index_of(seq));
                    match send_wake(&mut plan, retry_cost, &mut fault, hub.sink_mut()) {
                        // A retried wake lands no later than the trace
                        // end, and never before its trigger.
                        Some(delay) => wake_times.push((tw + delay).min(duration.max(tw))),
                        // The link is saturated past its budget: cover the
                        // loss with one fallback duty cycle.
                        None => {
                            if let Some(fb) = fallback {
                                saturated.push((tw, (tw + fb + config.awake_chunk).min(duration)));
                            }
                        }
                    }
                }
            }
        }
    }
    if schedule.is_empty() {
        // Nothing was injected, so there is no fault activity to report:
        // first-attempt frames on a clean link are not metered.
        fault.frames_sent = 0;
        debug_assert!(fault.is_clean());
    }

    // Each delivered wake keeps the phone up briefly; close wakes merge
    // into a continuous awake span covering the event, and the
    // application classifies over each awake period plus the raw buffer
    // the hub hands over.
    let spans: Vec<(Micros, Micros)> = wake_times
        .iter()
        .map(|&w| (w, w + config.hub_chunk))
        .collect();
    let hub_awake = IntervalSet::from_spans(spans, config.merge_gap);
    let mut detections = Vec::new();
    for &(start, end) in hub_awake.spans() {
        detections.extend(app.classify(trace, start.saturating_sub(config.lookback), end));
    }

    // Degraded mode: while the hub is down or the link saturated, fall
    // back to duty-cycling on the main CPU — the paper's DC strategy,
    // bounded to the outage window, so wake conditions keep firing (late,
    // at phone power) instead of never. A full-trace outage reproduces
    // DutyCycle detections identically.
    let mut all_spans: Vec<(Micros, Micros)> = hub_awake.spans().to_vec();
    if let Some(sleep) = fallback {
        let mut windows: Vec<(Micros, Micros)> = plan.downtime().to_vec();
        windows.extend(saturated);
        for &(start, end) in IntervalSet::from_spans(windows, Micros::ZERO).spans() {
            fault.degraded_time += end - start;
            if S::ENABLED {
                hub.sink_mut().set_time(start);
                hub.sink_mut().record(Event::Degraded { entered: true });
            }
            let (spans, found) = duty_cycle(trace, app, (start, end), sleep, profile, config);
            all_spans.extend_from_slice(spans.spans());
            detections.extend(found);
            if S::ENABLED {
                hub.sink_mut().set_time(end);
                hub.sink_mut().record(Event::Degraded { entered: false });
            }
        }
    }
    let awake = IntervalSet::from_spans(all_spans, Micros::ZERO);
    Ok((awake, detections, fault))
}

/// Sends one wake notification across the link: corrupted or dropped
/// frames are retried with capped exponential backoff until delivery or
/// budget exhaustion, each retry costing `retry_cost` on top of its
/// backoff. Returns the delivery delay (zero for a clean first attempt),
/// or `None` when the frame is lost.
fn send_wake<S: EventSink>(
    plan: &mut FaultPlan,
    retry_cost: Micros,
    fault: &mut FaultCounters,
    sink: &mut S,
) -> Option<Micros> {
    let retry = plan.retry();
    let mut delay = Micros::ZERO;
    let mut attempt = 1u32;
    loop {
        fault.frames_sent += 1;
        let fate = plan.next_frame_fate();
        if S::ENABLED {
            let outcome = match fate {
                FrameFate::Delivered => FrameOutcome::Delivered,
                FrameFate::Corrupted => FrameOutcome::Corrupted,
                FrameFate::Dropped => FrameOutcome::Dropped,
            };
            sink.record(Event::LinkFrame { outcome, attempt });
        }
        match fate {
            FrameFate::Delivered => return Some(delay),
            FrameFate::Corrupted => fault.frames_corrupted += 1,
            FrameFate::Dropped => fault.frames_dropped += 1,
        }
        if attempt >= retry.max_attempts {
            fault.frames_lost += 1;
            if S::ENABLED {
                sink.record(Event::FrameLost);
            }
            return None;
        }
        fault.frames_retried += 1;
        delay = delay + retry.backoff_before(attempt) + retry_cost;
        fault.recovery_time += retry_cost;
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidewinder_sensors::{EventKind, LabeledInterval};

    /// A toy application over a synthetic square-wave trace: events are
    /// intervals where ACC_X exceeds 5; the classifier finds them
    /// perfectly within the data it sees.
    struct ToyApp;

    impl Application for ToyApp {
        fn name(&self) -> &str {
            "toy"
        }
        fn target_kinds(&self) -> Vec<EventKind> {
            vec![EventKind::Headbutt]
        }
        fn classify(&self, trace: &SensorTrace, start: Micros, end: Micros) -> Vec<Micros> {
            let series = trace.channel(SensorChannel::AccX).unwrap();
            let rate = series.rate_hz();
            let mut out = Vec::new();
            let slice = series.slice(start, end);
            let offset = (start.as_secs_f64() * rate).ceil() as usize;
            let mut in_event = false;
            for (i, &v) in slice.iter().enumerate() {
                if v > 5.0 && !in_event {
                    in_event = true;
                    out.push(sidewinder_sensors::time::sample_time(offset + i, rate));
                } else if v <= 5.0 {
                    in_event = false;
                }
            }
            out
        }
        fn wake_condition(&self) -> Program {
            "ACC_X -> movingAvg(id=1, params={2});
             1 -> minThreshold(id=2, params={5});
             2 -> OUT;"
                .parse()
                .unwrap()
        }
        fn wake_condition_hub_mw(&self) -> f64 {
            3.6
        }
    }

    /// 120 s at 50 Hz with bursts of 10 at [30,32) and [90,92).
    fn toy_trace() -> SensorTrace {
        let rate = 50.0;
        let n = 120 * 50;
        let mut x = vec![0.0f64; n];
        let mut trace = SensorTrace::new("toy");
        let mut gt = sidewinder_sensors::GroundTruth::new();
        for (s, e) in [(30u64, 32u64), (90, 92)] {
            for sample in &mut x[(s * 50) as usize..(e * 50) as usize] {
                *sample = 10.0;
            }
            gt.push(
                LabeledInterval::new(
                    EventKind::Headbutt,
                    Micros::from_secs(s),
                    Micros::from_secs(e),
                )
                .unwrap(),
            );
        }
        trace.insert(
            SensorChannel::AccX,
            TimeSeries::from_samples(rate, x).unwrap(),
        );
        *trace.ground_truth_mut() = gt;
        trace
    }

    fn run(strategy: Strategy) -> SimResult {
        simulate(
            &toy_trace(),
            &ToyApp,
            &strategy,
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn always_awake_sees_everything_at_full_power() {
        let r = run(Strategy::AlwaysAwake);
        assert_eq!(r.recall(), 1.0);
        assert_eq!(r.precision(), 1.0);
        assert!((r.average_power_mw - 323.0).abs() < 1e-9);
        assert_eq!(r.breakdown.asleep, Micros::ZERO);
        assert_eq!(r.wake_ups, 1);
    }

    #[test]
    fn oracle_has_perfect_metrics_at_minimal_power() {
        let r = run(Strategy::Oracle);
        assert_eq!(r.recall(), 1.0);
        assert_eq!(r.precision(), 1.0);
        // Awake only 4 s of 120 s plus transitions.
        assert_eq!(r.breakdown.awake, Micros::from_secs(4));
        assert_eq!(r.wake_ups, 2);
        assert!(r.average_power_mw < 35.0, "{}", r.average_power_mw);
        // And strictly cheaper than Always Awake.
        assert!(r.average_power_mw < run(Strategy::AlwaysAwake).average_power_mw);
    }

    #[test]
    fn sidewinder_wakes_on_events_only() {
        let r = run(Strategy::HubWake {
            program: ToyApp.wake_condition(),
            hub_mw: 3.6,
            label: "Sw",
        });
        assert_eq!(r.recall(), 1.0, "sidewinder must catch both events");
        assert_eq!(r.wake_ups, 2);
        // Hub draw is included.
        assert!(r.breakdown.hub_mw == 3.6);
        // Power sits between Oracle and Always Awake.
        let oracle = run(Strategy::Oracle).average_power_mw;
        let aa = run(Strategy::AlwaysAwake).average_power_mw;
        assert!(r.average_power_mw > oracle);
        assert!(r.average_power_mw < aa / 3.0);
    }

    fn run_f32(strategy: Strategy) -> SimResult {
        simulate_traced::<f32, _>(
            &toy_trace(),
            &ToyApp,
            &strategy,
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
            &FaultSchedule::none(),
            &mut NullSink,
        )
        .unwrap()
    }

    #[test]
    fn f32_hub_mode_detects_the_same_toy_events() {
        let r64 = run(sidewinder());
        let r32 = run_f32(sidewinder());
        assert_eq!(r32.recall(), 1.0);
        assert_eq!(r32.wake_ups, r64.wake_ups);
        assert_eq!(r32.detections, r64.detections);
        // Phone-side strategies are precision-independent: the hub never
        // buffers their data, so f32 mode must be exactly f64 mode.
        assert_eq!(run(Strategy::AlwaysAwake), run_f32(Strategy::AlwaysAwake));
    }

    /// The serial pick the merge must reproduce, one sample at a time:
    /// the earliest next sample wins, ties go to the smaller position.
    fn serial_pick(series: &[&TimeSeries]) -> Vec<(usize, usize)> {
        let mut cursors = vec![0; series.len()];
        let mut order = Vec::new();
        loop {
            let mut best: Option<(usize, Micros)> = None;
            for (i, s) in series.iter().enumerate() {
                if cursors[i] < s.len() {
                    let t = s.time_of(cursors[i]);
                    if best.is_none_or(|(_, bt)| t < bt) {
                        best = Some((i, t));
                    }
                }
            }
            let Some((i, _)) = best else { return order };
            order.push((i, cursors[i]));
            cursors[i] += 1;
        }
    }

    /// The merge property's rates: `RATES` for one shared rate, integer
    /// multiples of one base rate, or any mix of them; `FAST_RATES` for
    /// pairs above 1 MHz, where consecutive samples can share a µs stamp.
    const RATES: [f64; 6] = [3.0, 50.0, 100.0, 8_000.0, 44_100.0, 1_000.0 / 3.0];
    const FAST_RATES: [f64; 3] = [1.5e6, 2.5e6, 3e6];

    fn arb_rates() -> impl proptest::Strategy<Value = Vec<f64>> {
        use proptest::prelude::*;
        let pick = |table: &'static [f64]| (0..table.len()).prop_map(move |k| table[k]);
        prop_oneof![
            (pick(&RATES), 1..=4usize).prop_map(|(rate, n)| vec![rate; n]),
            (pick(&RATES), proptest::collection::vec(1..=4u32, 1..5))
                .prop_map(|(rate, m)| m.into_iter().map(|m| rate * f64::from(m)).collect()),
            proptest::collection::vec(pick(&RATES), 1..5),
            proptest::collection::vec(pick(&FAST_RATES), 2),
        ]
    }

    fn arb_series() -> impl proptest::Strategy<Value = Vec<TimeSeries>> {
        use proptest::prelude::*;
        arb_rates()
            .prop_flat_map(|rates| {
                let n = rates.len();
                (Just(rates), proptest::collection::vec(0..=300usize, n))
            })
            .prop_map(|(rates, lens)| {
                rates
                    .into_iter()
                    .zip(lens)
                    .map(|(rate, n)| TimeSeries::from_samples(rate, vec![0.0; n]).unwrap())
                    .collect()
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Across empty and unequal-length series, equal, multiple and
        /// mixed rates, the merge feeds exactly the serial pick's order,
        /// in non-empty runs that each end where another series wins.
        #[test]
        fn channel_merge_matches_the_serial_pick_across_rates(owned in arb_series()) {
            let series: Vec<&TimeSeries> = owned.iter().collect();
            let runs: Vec<(usize, Range<usize>)> = ChannelMerge::new(&series).collect();
            proptest::prop_assert!(runs.iter().all(|(_, run)| !run.is_empty()), "{runs:?}");
            proptest::prop_assert!(runs.windows(2).all(|w| w[0].0 != w[1].0), "{runs:?}");
            let merged: Vec<(usize, usize)> = runs
                .into_iter()
                .flat_map(|(i, run)| run.map(move |k| (i, k)))
                .collect();
            proptest::prop_assert_eq!(merged, serial_pick(&series));
        }
    }

    #[test]
    fn a_lone_series_is_one_run() {
        let mic = TimeSeries::from_samples(8_000.0, vec![0.0; 240_000]).unwrap();
        let fast = TimeSeries::from_samples(3e6, vec![0.0; 1_000]).unwrap();
        let empty = TimeSeries::empty(50.0).unwrap();
        let runs = |series: &[&TimeSeries]| ChannelMerge::new(series).collect::<Vec<_>>();
        assert_eq!(runs(&[&mic]), vec![(0, 0..240_000)]);
        assert_eq!(runs(&[&fast]), vec![(0, 0..1_000)]);
        assert_eq!(runs(&[&empty, &mic]), vec![(1, 0..240_000)]);
        assert_eq!(runs(&[&empty]), vec![]);
        assert_eq!(runs(&[]), vec![]);
    }

    #[test]
    fn equal_rate_series_take_turns_in_position_order() {
        // Every index is a tie between the series that still have it,
        // and the smaller position goes first; the longest series runs
        // alone once the others are used up.
        let x = TimeSeries::from_samples(50.0, vec![0.0; 3]).unwrap();
        let y = TimeSeries::from_samples(50.0, vec![0.0; 6]).unwrap();
        let z = TimeSeries::from_samples(50.0, vec![0.0; 4]).unwrap();
        let series = [&x, &y, &z];
        assert!(index_ordered(&series));
        let runs: Vec<(usize, Range<usize>)> = ChannelMerge::new(&series).collect();
        let mut expected: Vec<(usize, Range<usize>)> = Vec::new();
        for k in 0..3 {
            expected.extend([(0, k..k + 1), (1, k..k + 1), (2, k..k + 1)]);
        }
        expected.extend([(1, 3..4), (2, 3..4), (1, 4..6)]);
        assert_eq!(runs, expected);
    }

    #[test]
    fn series_whose_samples_share_a_stamp_take_the_clocked_path() {
        let a = TimeSeries::from_samples(1.5e6, vec![0.0; 64]).unwrap();
        let b = a.clone();
        assert!((0..63).any(|k| a.time_of(k) == a.time_of(k + 1)));
        let series = [&a, &b];
        assert!(!index_ordered(&series));
        // Index order would feed b's sample 1 before a's sample 2; both
        // are stamped 1 µs, so the serial pick feeds a's first.
        let merged: Vec<(usize, usize)> = ChannelMerge::new(&series)
            .flat_map(|(i, run)| run.map(move |k| (i, k)))
            .collect();
        assert_eq!(merged, serial_pick(&series));
        let pos = |s: (usize, usize)| merged.iter().position(|&m| m == s).unwrap();
        assert!(pos((0, 2)) < pos((1, 1)));

        // The shortcut's bound: 2 µs spacing or more, one shared rate.
        let at = |rate: f64| TimeSeries::from_samples(rate, vec![0.0; 8]).unwrap();
        assert!(index_ordered(&[&at(500_000.0), &at(500_000.0)]));
        assert!(!index_ordered(&[&at(500_001.0), &at(500_001.0)]));
        assert!(!index_ordered(&[&at(44_100.0), &at(8_000.0)]));
        assert!(!index_ordered(&[]));
    }

    #[test]
    fn duty_cycle_recall_degrades_with_sleep_interval() {
        let short = run(Strategy::DutyCycle {
            sleep: Micros::from_secs(2),
        });
        let long = run(Strategy::DutyCycle {
            sleep: Micros::from_secs(30),
        });
        assert!(short.recall() >= long.recall());
        // Long sleep must miss at least one 2 s event.
        assert!(long.recall() < 1.0);
        // And long sleeping saves power.
        assert!(long.average_power_mw < short.average_power_mw);
    }

    #[test]
    fn short_duty_cycle_burns_power_on_transitions() {
        // With a 2 s sleep interval the phone spends much of its time
        // transitioning — the paper measures 339 mW, *above* Always
        // Awake.
        let r = run(Strategy::DutyCycle {
            sleep: Micros::from_secs(2),
        });
        assert!(
            r.average_power_mw > 200.0,
            "DC-2 should be expensive, got {}",
            r.average_power_mw
        );
    }

    #[test]
    fn batching_has_perfect_recall_with_low_power() {
        let r = run(Strategy::Batching {
            interval: Micros::from_secs(10),
            hub_mw: 3.6,
        });
        assert_eq!(r.recall(), 1.0, "batching sees all data");
        let aa = run(Strategy::AlwaysAwake).average_power_mw;
        assert!(r.average_power_mw < aa / 2.0);
    }

    #[test]
    fn hub_wake_fails_cleanly_on_missing_channel() {
        let mut trace = SensorTrace::new("no-acc");
        trace.insert(
            SensorChannel::Mic,
            TimeSeries::from_samples(8000.0, vec![0.0; 100]).unwrap(),
        );
        let err = simulate(
            &trace,
            &ToyApp,
            &Strategy::HubWake {
                program: ToyApp.wake_condition(),
                hub_mw: 3.6,
                label: "Sw",
            },
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::MissingChannel(SensorChannel::AccX));
        assert!(err.to_string().contains("ACC_X"));
    }

    #[test]
    fn breakdown_times_partition_the_trace() {
        for strategy in [
            Strategy::AlwaysAwake,
            Strategy::Oracle,
            Strategy::DutyCycle {
                sleep: Micros::from_secs(5),
            },
            Strategy::Batching {
                interval: Micros::from_secs(10),
                hub_mw: 3.6,
            },
            Strategy::HubWake {
                program: ToyApp.wake_condition(),
                hub_mw: 3.6,
                label: "Sw",
            },
        ] {
            let r = run(strategy.clone());
            assert_eq!(
                r.breakdown.total(),
                Micros::from_secs(120),
                "{} does not partition time",
                strategy.label()
            );
        }
    }

    #[test]
    fn detections_are_sorted_and_unique() {
        let r = run(Strategy::AlwaysAwake);
        let mut sorted = r.detections.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(r.detections, sorted);
        assert!(!r.detections.is_empty());
    }

    fn run_faulted(strategy: Strategy, schedule: &FaultSchedule) -> SimResult {
        simulate_with_faults(
            &toy_trace(),
            &ToyApp,
            &strategy,
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
            schedule,
        )
        .unwrap()
    }

    fn sidewinder() -> Strategy {
        Strategy::HubWake {
            program: ToyApp.wake_condition(),
            hub_mw: 3.6,
            label: "Sw",
        }
    }

    fn sidewinder_degraded(fallback_sleep: Micros) -> Strategy {
        Strategy::HubWakeDegraded {
            program: ToyApp.wake_condition(),
            hub_mw: 3.6,
            label: "Sw+",
            fallback_sleep,
        }
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_fault_free_path() {
        for strategy in [
            Strategy::AlwaysAwake,
            Strategy::DutyCycle {
                sleep: Micros::from_secs(5),
            },
            sidewinder(),
            sidewinder_degraded(Micros::from_secs(5)),
        ] {
            let clean = run(strategy.clone());
            let faulted = run_faulted(strategy, &FaultSchedule::none());
            assert_eq!(clean, faulted);
            assert!(faulted.fault.is_clean());
        }
    }

    #[test]
    fn corrupted_frames_are_retried_and_recovered() {
        let schedule = FaultSchedule::seeded(11).with_frame_corruption(0.4);
        let r = run_faulted(sidewinder(), &schedule);
        assert!(r.fault.frames_corrupted > 0);
        assert!(r.fault.frames_retried > 0);
        assert!(r.fault.frames_sent > r.fault.frames_retried);
        assert!(r.fault.recovery_time > Micros::ZERO);
        // Retransmissions are plentiful enough that both events still get
        // through, just at a higher energy bill than the clean run.
        assert_eq!(r.recall(), 1.0);
        assert!(r.average_power_mw > run(sidewinder()).average_power_mw);
    }

    #[test]
    fn hub_reset_forces_program_redownload() {
        let schedule = FaultSchedule::seeded(1).with_hub_reset_at(Micros::from_secs(60));
        let r = run_faulted(sidewinder(), &schedule);
        assert_eq!(r.fault.hub_resets, 1);
        assert_eq!(r.fault.redownloads, 1);
        assert!(r.fault.recovery_time >= HUB_REBOOT_TIME);
        // The reset lands between the two events, so both still fire.
        assert_eq!(r.recall(), 1.0);
    }

    #[test]
    fn downtime_without_fallback_misses_events() {
        // Hub down across the first event: plain HubWake loses it.
        let schedule = FaultSchedule::seeded(1)
            .with_hub_downtime(Micros::from_secs(20), Micros::from_secs(40));
        let r = run_faulted(sidewinder(), &schedule);
        assert!(r.fault.samples_dropped > 0);
        assert!(r.recall() < 1.0, "recall {}", r.recall());
    }

    #[test]
    fn degraded_mode_covers_downtime_like_duty_cycling() {
        // Hub down for the whole trace: the degraded strategy must fire
        // exactly the detections DutyCycle fires at the fallback interval.
        let sleep = Micros::from_secs(5);
        let schedule =
            FaultSchedule::seeded(1).with_hub_downtime(Micros::ZERO, Micros::from_secs(120));
        let degraded = run_faulted(sidewinder_degraded(sleep), &schedule);
        let dc = run(Strategy::DutyCycle { sleep });
        assert_eq!(degraded.detections, dc.detections);
        assert_eq!(degraded.stats, dc.stats);
        assert_eq!(degraded.wake_ups, dc.wake_ups);
        assert_eq!(degraded.fault.degraded_time, Micros::from_secs(120));
        assert_eq!(degraded.fault.samples_dropped, 6000);
    }

    #[test]
    fn faulted_runs_are_reproducible() {
        let schedule = FaultSchedule::seeded(99)
            .with_frame_corruption(0.3)
            .with_frame_drops(0.2)
            .with_hub_resets_every(Micros::from_secs(40));
        let a = run_faulted(sidewinder_degraded(Micros::from_secs(5)), &schedule);
        let b = run_faulted(sidewinder_degraded(Micros::from_secs(5)), &schedule);
        assert_eq!(a, b);
        assert!(!a.fault.is_clean());
    }

    #[test]
    fn breakdown_still_partitions_time_under_faults() {
        let schedule = FaultSchedule::seeded(5)
            .with_frame_corruption(0.5)
            .with_hub_reset_at(Micros::from_secs(50));
        let r = run_faulted(sidewinder_degraded(Micros::from_secs(5)), &schedule);
        assert_eq!(r.breakdown.total(), Micros::from_secs(120));
    }
}
