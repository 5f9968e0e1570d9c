//! The window fill must not change what the hub computes.
//!
//! When every node a channel feeds is a single-source window,
//! `HubRuntime::push_samples` copies the samples that complete no window
//! straight into the rings and runs a pass only for a sample that
//! completes one. This suite feeds random window programs (1–3 windows
//! on the microphone, power-of-two lengths, every hop and shape, beside
//! an accelerometer branch) in random stretches, empty and 1-sample
//! slices included, and compares every wake `(seq, value bits)`, the
//! wake count and a per-sample continuation against a `CounterSink`
//! runtime. An enabled sink keeps the per-sample pass, so the reference
//! never takes the fill.

mod common;

use common::{fill_case, FillCase};
use proptest::prelude::*;
use sidewinder_hub::runtime::{ChannelRates, HubRuntime};
use sidewinder_hub::Sample;
use sidewinder_obs::{CounterSink, EventSink, NullSink};

/// Wakes as `(seq, value bits)`, then the wake count.
type Outcome = (Vec<(u64, u64)>, u64);

/// Feeds `case` in its stretches, then its tail one sample at a time.
fn run<S: EventSink, P: Sample>(case: &FillCase, sink: S) -> Outcome {
    let mut hub =
        HubRuntime::<S, P>::load_generic(&case.program(), &ChannelRates::default(), sink).unwrap();
    let mut wakes = Vec::new();
    case.feed(|channel, samples| {
        let raised = hub.push_samples(channel, samples).unwrap();
        wakes.extend(raised.iter().map(|w| (w.seq, w.value.to_bits())));
    });
    (wakes, hub.wake_count())
}

fn check<P: Sample>(case: &FillCase) {
    let nodes = case.program().nodes().count();
    let reference = run::<_, P>(case, CounterSink::with_nodes(nodes));
    let filled = run::<_, P>(case, NullSink);
    assert_eq!(filled, reference, "{case:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn stretch_fill_matches_the_per_sample_pass(case in fill_case()) {
        check::<f64>(&case);
        check::<f32>(&case);
    }
}
