//! How fast the host runs right now, from a fixed probe.
//!
//! A 2-vCPU x86-64 VM that shares its host changes speed by tens of
//! percent for minutes at a time as its neighbours come and go: the same
//! `fleet_accel` code measured 1400 devices/s in one quarter of an hour
//! and 2000 in the next. Between repetitions the untraced run times a
//! fixed piece of benchmark-owned work on every worker: an arithmetic
//! part (a sine and threshold loop) and a memory part (random
//! read-modify-writes over 8 MiB, which sits in the shared last-level
//! cache and so feels the neighbours). The end-to-end times are then
//! scaled by how much slower or faster than [`NOMINAL_PROBE_S`] the
//! probe ran in that run. The probe's code never changes and calls
//! nothing in the system, so the scale follows the host and never
//! absorbs a change to the system.

use std::process::Command;
use std::sync::Barrier;
use std::time::Instant;

/// The probe's wall time on the nominal host, seconds: its typical time
/// on a 2-vCPU x86-64 VM.
pub const NOMINAL_PROBE_S: f64 = 0.034;

/// The shortest gap between two probes, seconds.
pub const PROBE_EVERY_S: f64 = 0.5;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One worker's share of the probe, over its 8 MiB buffer.
fn work(seed: u64, buf: &mut [u64]) -> u64 {
    let mut x = seed | 1;
    let mut count = 0u64;
    for _ in 0..400 {
        for i in 0..2048u32 {
            let noise = (xorshift(&mut x) >> 11) as f64 * 1e-16;
            if (f64::from(i) * 0.05).sin() * 3.0 + noise > 2.0 {
                count += 1;
            }
        }
    }
    let mask = buf.len() - 1;
    for _ in 0..1_500_000 {
        let i = (xorshift(&mut x) as usize) & mask;
        buf[i] = buf[i].wrapping_add(x);
    }
    count + buf[mask & 7]
}

/// The flag that makes the benchmark binary run one probe, print its
/// time and exit. Probes run in their own process so that their 8 MiB
/// buffers never count in the benchmark's peak memory.
pub const PROBE_FLAG: &str = "--host-probe";

/// Runs one probe in a child process and returns its wall time.
///
/// # Errors
///
/// The child could not run or printed no time.
pub fn probe_in_child() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .arg(PROBE_FLAG)
        .output()
        .map_err(|e| format!("running the host probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("the host probe exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|_| format!("the host probe printed {text:?}"))
}

/// Runs the probe on `workers` threads at once; returns its wall time.
pub fn probe(workers: usize) -> f64 {
    // The clock starts once every worker's buffer is written, so page
    // faults of a fresh process are not part of the time.
    let ready = Barrier::new(workers + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers as u64)
            .map(|w| {
                let ready = &ready;
                scope.spawn(move || {
                    let mut buf = vec![1u64; 1 << 20];
                    ready.wait();
                    std::hint::black_box(work(std::hint::black_box(w + 3), &mut buf))
                })
            })
            .collect();
        ready.wait();
        let t = Instant::now();
        for h in handles {
            h.join().expect("the probe does not panic");
        }
        t.elapsed().as_secs_f64()
    })
}
