//! Regenerates **Fig. 3** — the wake-up-condition pipeline of each
//! application — in intermediate-language form, with the microcontroller
//! each condition is sized onto and its resource demands.

use sidewinder_apps::{accelerometer_apps, audio_apps, predefined};
use sidewinder_hub::cost::PipelineCost;
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_hub::Mcu;
use sidewinder_ir::Program;
use sidewinder_sim::report::Table;

fn describe(name: &str, program: &Program) -> Vec<String> {
    let rates = ChannelRates::default();
    let cost = PipelineCost::analyze(program, &rates);
    let mcu = Mcu::cheapest_for_cost(&cost)
        .map(|m| m.name.to_string())
        .unwrap_or_else(|e| format!("UNSCHEDULABLE: {e}"));
    println!("== {name} ==");
    print!("{}", sidewinder_ir::diagram::render(program));
    println!("IR:");
    print!("{program}");
    println!(
        "  -> {} nodes, {:.0} kflop/s, {} B state, runs on {}\n",
        program.nodes().count(),
        cost.total_flops_per_second() / 1e3,
        cost.total_memory_bytes(),
        mcu,
    );
    vec![
        name.to_string(),
        program.nodes().count().to_string(),
        format!("{:.0}", cost.total_flops_per_second() / 1e3),
        format!("{}", cost.total_memory_bytes()),
        mcu,
    ]
}

fn main() {
    println!("Fig. 3: wake-up condition pipelines for each application\n");
    let mut table = Table::new(["Condition", "Nodes", "kflop/s", "State (B)", "MCU"]);

    for app in accelerometer_apps().iter().chain(audio_apps().iter()) {
        table.push_row(describe(app.name(), &app.wake_condition()));
    }
    table.push_row(describe(
        "significant motion (PA)",
        &predefined::significant_motion(),
    ));
    table.push_row(describe(
        "significant sound (PA)",
        &predefined::significant_sound(),
    ));

    println!("{table}");
}
