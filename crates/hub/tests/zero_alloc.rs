//! Steady-state allocation audit of the hub hot path.
//!
//! The interpreter promises that once every instance's scratch buffers
//! have warmed up, feeding samples performs no heap allocation at all —
//! the property that makes the hot path cache-friendly and its latency
//! flat. This test pins it with a counting global allocator: replaying
//! the steps wake-up condition (including wake emissions) after warm-up
//! must leave the allocation counter untouched.
//!
//! Lives in its own integration-test binary because `#[global_allocator]`
//! is process-wide. The count itself is per thread and armed only around
//! the measured region, so tests running in parallel never charge their
//! set-up to each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sidewinder_hub::runtime::{ChannelRates, HubRuntime, HubRuntime32};
use sidewinder_hub::{compile_image, McuCore};
use sidewinder_ir::Program;
use sidewinder_obs::CounterSink;
use sidewinder_sensors::SensorChannel;

struct CountingAllocator;

thread_local! {
    /// Allocations this thread made while armed; `None` while unarmed.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get().map(|n| n + 1)));
}

/// Runs `measured` and returns its result with the number of heap
/// allocations it made on the calling thread.
fn count_allocations<R>(measured: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|count| count.set(Some(0)));
    let result = measured();
    let count = ALLOCATIONS.with(|count| count.take()).unwrap_or(0);
    (result, count)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The steps accelerometer drive: walking bursts (outside the ±2 band,
/// raising wakes) alternating with rest.
fn step_signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| if (i / 40) % 2 == 0 { 3.5 } else { 0.2 })
        .collect()
}

#[test]
fn steps_steady_state_performs_zero_allocations() {
    let program: Program = include_str!("../../ir/tests/fixtures/steps.swir")
        .parse()
        .unwrap();
    let mut hub = HubRuntime::load(&program, &ChannelRates::default()).unwrap();
    let samples = step_signal(8192);

    // Warm-up: fills the moving-average buffer and grows the wake buffer
    // to this batch's wake count.
    let warm_wakes = hub
        .push_samples(SensorChannel::AccX, &samples)
        .unwrap()
        .len();
    assert!(
        warm_wakes > 0,
        "warm-up must raise wakes to size the buffer"
    );

    // Steady state: the same batch again must not touch the allocator.
    let (wakes, allocated) = count_allocations(|| {
        hub.push_samples(SensorChannel::AccX, &samples)
            .unwrap()
            .len()
    });
    assert!(wakes > 0, "steady-state batch must still raise wakes");
    assert_eq!(
        allocated,
        0,
        "steady-state push_samples allocated {allocated} times over {} samples",
        samples.len()
    );
}

/// The zero-allocation promise holds with observability enabled too: a
/// preallocated [`CounterSink`] tallies every execution, wake, and
/// timing observation into fixed slots, so the instrumented hot path
/// still never touches the allocator after warm-up.
#[test]
fn steps_with_counters_enabled_performs_zero_allocations() {
    let program: Program = include_str!("../../ir/tests/fixtures/steps.swir")
        .parse()
        .unwrap();
    let node_count = program.nodes().count();
    let mut hub = HubRuntime::load_with_sink(
        &program,
        &ChannelRates::default(),
        CounterSink::with_nodes(node_count),
    )
    .unwrap();
    let samples = step_signal(8192);

    hub.push_samples(SensorChannel::AccX, &samples).unwrap();

    let (wakes, allocated) = count_allocations(|| {
        hub.push_samples(SensorChannel::AccX, &samples)
            .unwrap()
            .len()
    });
    assert!(wakes > 0, "steady-state batch must still raise wakes");
    assert_eq!(
        allocated,
        0,
        "counter-instrumented push_samples allocated {allocated} times over {} samples",
        samples.len()
    );
    // The sink really was recording while the allocator stayed idle.
    let sink = hub.sink();
    assert_eq!(sink.nodes()[0].executions, 2 * samples.len() as u64);
    assert_eq!(sink.wakes, hub.wake_count());
    assert!(sink.total_timing().count() > 0);
}

/// The windowed music condition also reaches an allocation-free steady
/// state for its per-sample work; only the per-window ZCR feature (a
/// handful of sub-window rates every 2048 samples) may allocate. Assert
/// the per-sample path stays clean by bounding the whole batch to the
/// four window emissions.
#[test]
fn music_per_sample_path_does_not_allocate() {
    let program: Program = include_str!("../../ir/tests/fixtures/music.swir")
        .parse()
        .unwrap();
    let mut hub = HubRuntime::load(&program, &ChannelRates::default()).unwrap();
    let samples: Vec<f64> = (0..8192).map(|i| (i as f64 * 0.785).sin()).collect();

    hub.push_samples(SensorChannel::Mic, &samples).unwrap();

    let ((), allocated) = count_allocations(|| {
        hub.push_samples(SensorChannel::Mic, &samples).unwrap();
    });
    // 8192 samples, 4 zcrVariance windows: two small vectors each.
    assert!(
        allocated <= 8,
        "music batch allocated {allocated} times (expected only per-window ZCR scratch)"
    );
}

/// The `no_std` core's promise is stronger than the host's: *zero*
/// allocations total, from `new` through `load` through the entire
/// replay — no warm-up exemption, and no per-window ZCR scratch either
/// (the arena carve-out covers what the host runtime's instances still
/// take from the heap). Only compiling the image — a host-side,
/// load-time step — may allocate.
#[test]
fn mcu_core_performs_zero_allocations_total() {
    let steps: Program = include_str!("../../ir/tests/fixtures/steps.swir")
        .parse()
        .unwrap();
    let music: Program = include_str!("../../ir/tests/fixtures/music.swir")
        .parse()
        .unwrap();
    let steps_image = compile_image(&steps, &ChannelRates::default()).unwrap();
    let music_image = compile_image(&music, &ChannelRates::default()).unwrap();
    let step_samples = step_signal(8192);

    // The music fixture's 2048-sample window outgrows the default arena;
    // a fixture-sized core is ~1 MiB, so give it stack room.
    std::thread::Builder::new()
        .stack_size(32 << 20)
        .spawn(move || {
            let ((), allocated) = count_allocations(|| {
                let mut core: McuCore<f64, 16_384> = McuCore::new();
                core.load(&steps_image).unwrap();
                let mut wakes = 0u64;
                for &x in &step_samples {
                    core.push_sample(SensorChannel::AccX.index() as u8, x, &mut |_| wakes += 1)
                        .unwrap();
                }
                assert!(wakes > 0, "steps must wake on the core");

                core.load(&music_image).unwrap();
                for i in 0..8192 {
                    core.push_sample(
                        SensorChannel::Mic.index() as u8,
                        (i as f64 * 0.785).sin(),
                        &mut |_| {},
                    )
                    .unwrap();
                }
            });
            assert_eq!(
                allocated, 0,
                "mcu core allocated {allocated} times across new + load + 16384 samples"
            );
        })
        .unwrap()
        .join()
        .unwrap();
}

/// The precision parameter does not change the allocation story: the
/// `f32` pipeline (ring buffers and vector scratch at single precision)
/// reaches the same allocation-free steady state on the scalar steps
/// chain and the same per-window bound on the windowed music condition.
#[test]
fn f32_pipelines_hold_the_same_allocation_bounds() {
    let steps: Program = include_str!("../../ir/tests/fixtures/steps.swir")
        .parse()
        .unwrap();
    let mut hub = HubRuntime32::load_f32(&steps, &ChannelRates::default()).unwrap();
    let samples = step_signal(8192);
    hub.push_samples(SensorChannel::AccX, &samples).unwrap();

    let (wakes, allocated) = count_allocations(|| {
        hub.push_samples(SensorChannel::AccX, &samples)
            .unwrap()
            .len()
    });
    assert!(wakes > 0, "f32 steady-state batch must still raise wakes");
    assert_eq!(
        allocated,
        0,
        "f32 steps steady state allocated {allocated} times over {} samples",
        samples.len()
    );

    let music: Program = include_str!("../../ir/tests/fixtures/music.swir")
        .parse()
        .unwrap();
    let mut hub = HubRuntime32::load_f32(&music, &ChannelRates::default()).unwrap();
    let samples: Vec<f64> = (0..8192).map(|i| (i as f64 * 0.785).sin()).collect();
    hub.push_samples(SensorChannel::Mic, &samples).unwrap();

    let ((), allocated) = count_allocations(|| {
        hub.push_samples(SensorChannel::Mic, &samples).unwrap();
    });
    assert!(
        allocated <= 8,
        "f32 music batch allocated {allocated} times (expected only per-window ZCR scratch)"
    );
}
