//! Observability artifacts for CI: per-node energy tables and a
//! Chrome-tracing timeline.
//!
//! Runs each of the six evaluation applications under its Sidewinder
//! strategy on one representative trace, attributes the run's energy
//! across pipeline nodes / serial link / MCU idle / phone states, and
//! writes:
//!
//! * `OBS_energy.txt` — one per-node energy table per application (also
//!   printed to stdout);
//! * `OBS_timeline.json` — a `chrome://tracing` / Perfetto-compatible
//!   timeline of the steps application's hub run.
//!
//! Exits nonzero if any ledger fails to close on the run's measured
//! energy — that is a conformance failure, not a reporting glitch.

use sidewinder_apps::{accelerometer_apps, audio_apps};
use sidewinder_bench::{audio_traces, robot_traces, sidewinder_strategy};
use sidewinder_ir::Program;
use sidewinder_sensors::SensorTrace;
use sidewinder_sim::report::energy_table;
use sidewinder_sim::{
    attribute_energy, simulate_traced, FaultSchedule, PhonePowerProfile, SimConfig, TimelineSink,
};
use sidewinder_tracegen::ActivityGroup;
use std::fmt::Write as _;
use std::process::ExitCode;

fn node_names(program: &Program) -> Vec<String> {
    program
        .nodes()
        .map(|(_, id, kind)| format!("{}#{}", kind.ir_name(), id.0))
        .collect()
}

fn main() -> ExitCode {
    let config = SimConfig::default();
    let profile = PhonePowerProfile::NEXUS4;
    let robot: Vec<SensorTrace> = robot_traces(ActivityGroup::Group1);
    let audio: Vec<SensorTrace> = audio_traces();

    let mut jobs: Vec<(Box<dyn sidewinder_sim::Application>, &SensorTrace)> = Vec::new();
    for app in accelerometer_apps() {
        jobs.push((app, &robot[0]));
    }
    for (i, app) in audio_apps().into_iter().enumerate() {
        jobs.push((app, &audio[i % audio.len()]));
    }

    let mut report = String::new();
    let mut failed = false;
    for (app, trace) in &jobs {
        let strategy = sidewinder_strategy(app.as_ref());
        let run = match attribute_energy(trace, app.as_ref(), &strategy, &profile, &config) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("obsreport: {} failed: {e}", app.name());
                failed = true;
                continue;
            }
        };
        let duration_s = run.result.breakdown.total().as_secs_f64();
        let measured_j = run.result.average_power_mw * duration_s / 1_000.0;
        let gap = (run.ledger.total_j() - measured_j).abs();
        if gap > 1e-9 {
            eprintln!(
                "obsreport: {} ledger does not close: off by {gap:.3e} J",
                app.name()
            );
            failed = true;
        }
        let _ = writeln!(
            report,
            "## {} — trace `{}`, {:.0} s, {:.2} mW average\n\n{}",
            app.name(),
            trace.name(),
            duration_s,
            run.result.average_power_mw,
            energy_table(&run.ledger).render()
        );
    }
    print!("{report}");
    if let Err(e) = std::fs::write("OBS_energy.txt", &report) {
        eprintln!("obsreport: cannot write OBS_energy.txt: {e}");
        failed = true;
    }

    // Timeline: the steps application's hub run, per-sample.
    let (steps, trace) = &jobs[0];
    let strategy = sidewinder_strategy(steps.as_ref());
    let mut sink = TimelineSink::new();
    match simulate_traced::<f64, _>(
        trace,
        steps.as_ref(),
        &strategy,
        &profile,
        &config,
        &FaultSchedule::none(),
        &mut sink,
    ) {
        Ok(_) => {
            let names = node_names(&steps.wake_condition());
            let json = sink.chrome_json(&names);
            if let Err(e) = std::fs::write("OBS_timeline.json", &json) {
                eprintln!("obsreport: cannot write OBS_timeline.json: {e}");
                failed = true;
            } else {
                println!(
                    "obsreport: OBS_timeline.json: {} events ({} truncated)",
                    sink.events().len(),
                    sink.truncated
                );
            }
        }
        Err(e) => {
            eprintln!("obsreport: timeline run failed: {e}");
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        println!(
            "obsreport: wrote OBS_energy.txt ({} applications)",
            jobs.len()
        );
        ExitCode::SUCCESS
    }
}
