//! The Sidewinder developer API.
//!
//! This crate is the reproduction of the paper's §3.2 programming
//! interface: application developers construct *wake-up conditions* by
//! parameterizing and chaining predefined sensor-processing algorithms,
//! never writing hub-native code. The four API components map directly to
//! the paper's:
//!
//! * [`ProcessingPipeline`] — the whole wake-up condition, from input
//!   sensors to the final output;
//! * [`ProcessingBranch`] — the flow of data from a sensor channel through
//!   a chain of algorithms;
//! * [`algorithm`] — stub types ([`algorithm::MovingAverage`],
//!   [`algorithm::VectorMagnitude`], [`algorithm::MinThreshold`], …) that
//!   stand for the implementations living on the low-power hub;
//! * [`SensorEventListener`] — the callback invoked when the condition is
//!   satisfied and the main processor wakes.
//!
//! [`SidewinderSensorManager`] compiles pipelines to the intermediate
//! language, sizes them onto the cheapest capable microcontroller, loads
//! them into hub runtimes, and dispatches wake events to listeners.
//!
//! # Example — the paper's significant-motion condition (Fig. 2)
//!
//! ```
//! use sidewinder_core::algorithm::{MinThreshold, MovingAverage, VectorMagnitude};
//! use sidewinder_core::{ProcessingBranch, ProcessingPipeline, SidewinderSensorManager};
//! use sidewinder_sensors::SensorChannel;
//!
//! let mut pipeline = ProcessingPipeline::new();
//! let mut branches = [
//!     ProcessingBranch::new(SensorChannel::AccX),
//!     ProcessingBranch::new(SensorChannel::AccY),
//!     ProcessingBranch::new(SensorChannel::AccZ),
//! ];
//! for branch in &mut branches {
//!     branch.add(MovingAverage::new(10));
//! }
//! pipeline.add_branches(branches);
//! pipeline.add(VectorMagnitude::new());
//! pipeline.add(MinThreshold::new(15.0));
//!
//! let mut manager = SidewinderSensorManager::new();
//! let wakes = std::rc::Rc::new(std::cell::Cell::new(0u32));
//! let counter = wakes.clone();
//! let id = manager.push(&pipeline, move |_event: &sidewinder_core::SensorEvent| {
//!     counter.set(counter.get() + 1);
//! })?;
//!
//! // The condition now runs "on the hub": feed samples through the manager.
//! for _ in 0..20 {
//!     for c in SensorChannel::ACCEL {
//!         manager.on_sample(c, 12.0)?;
//!     }
//! }
//! assert!(wakes.get() > 0);
//! assert_eq!(manager.mcu(id).unwrap().name, "TI MSP430");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod algorithm;
pub mod compile;
pub mod listener;
pub mod manager;
pub mod pipeline;

pub use compile::CompileError;
pub use listener::{ConditionId, DataDelivery, SensorEvent, SensorEventListener};
pub use manager::{ManagerError, SidewinderSensorManager};
pub use pipeline::{ProcessingBranch, ProcessingPipeline};
