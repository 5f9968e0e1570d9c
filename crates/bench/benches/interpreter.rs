//! Hub-interpreter throughput: how many sensor samples per second the
//! IR runtime sustains for each evaluation wake-up condition (and for
//! the music condition fed a recorded trace in stretches), plus the
//! fusion ablation (shared vs separate instances for concurrent
//! conditions).
//!
//! The suite bodies live in [`sidewinder_bench::suites`] so the
//! `perfreport` binary can run the same definitions and capture the
//! measurements machine-readably.

use criterion::{criterion_group, criterion_main};
use sidewinder_bench::suites::{bench_conditions, bench_fusion, bench_stretches};

criterion_group!(benches, bench_conditions, bench_stretches, bench_fusion);
criterion_main!(benches);
