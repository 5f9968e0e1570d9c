//! Micro-benchmarks for the hub's processing-algorithm kernels — the
//! quantities behind the MCU cost model (flops per emission) and the
//! paper's §3.8 complexity/power trade-off discussion. Includes the
//! Goertzel-vs-FFT ablation: probing a handful of bins is the kind of
//! narrow-band shortcut that could fit the smaller MCU. The `classify`
//! rows time the phone-side audio classifiers, per app.
//!
//! The suite bodies live in [`sidewinder_bench::suites`] so the
//! `perfreport` binary can run the same definitions and capture the
//! measurements machine-readably.

use criterion::{criterion_group, criterion_main};
use sidewinder_bench::suites::{
    bench_classify, bench_features, bench_fft, bench_filters, bench_goertzel_ablation,
};

criterion_group!(
    benches,
    bench_fft,
    bench_filters,
    bench_features,
    bench_goertzel_ablation,
    bench_classify
);
criterion_main!(benches);
