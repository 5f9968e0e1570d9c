//! The `no_std` sensor-hub core.
//!
//! This crate is the part of the Sidewinder reproduction that actually
//! runs on the hub MCU (the paper's TI MSP430 / LM4F120 class parts):
//! the flat `Sample`-generic DSP kernels and the steady-state
//! wake-condition interpreter, behind fixed-capacity storage. Nothing
//! in here allocates after `McuCore::load`; with the `std` feature off
//! the crate does not even link `std` or `alloc`, which is what the CI
//! `embedded-build` job proves by cross-compiling it for
//! `thumbv7em-none-eabi`.
//!
//! The host crates (`sidewinder-dsp`, `sidewinder-hub`) depend on this
//! crate **with the `std` feature on** and re-export everything, so the
//! host API is unchanged and — because the `std` build routes all float
//! math through the platform libm exactly like the pre-split kernels —
//! the frozen wake digests stay bit-identical.
//!
//! What stays host-side (see DESIGN.md §6j): IR parsing, validation,
//! lints, the optimizer, observability sinks, plan caches, and the
//! `Vec`-returning conveniences. The boundary artifact is
//! [`image::McuImage`]: the host compiles a validated program into that
//! plain-data image and the MCU core executes it.
#![no_std]
#![deny(unsafe_code)]

#[cfg(any(test, feature = "std"))]
extern crate std;

pub mod complex;
pub mod exec;
pub mod fft;
pub mod filter;
pub mod footprint;
pub mod goertzel;
pub mod image;
pub mod math;
pub mod sample;
pub mod spectral;
pub mod stats;
pub mod window;
pub mod zcr;

pub use complex::Complex;
pub use exec::{
    ExecProbe, HighWaterProbe, McuCore, McuExecError, NoProbe, WakeEvent, DEFAULT_ARENA,
};
pub use footprint::{
    check_fit, image_footprint, ArenaKind, ArenaUse, FootprintWalk, ImageFootprint,
};
pub use image::{
    CapacityError, ImageBuilder, ImageError, McuImage, NodeKind, NodeSpec, PortSource, StatKind,
};
pub use sample::Sample;
pub use window::WindowShape;
