//! Ablation for the paper's §7 future-work idea: fusing concurrent
//! wake-up conditions that share common algorithms.
//!
//! Each workload is fused the way the hub actually runs it: one IR
//! program from `opt::fuse_programs` (former `OUT`s joined by `anyOf`),
//! optimized with the digest-exact passes so CSE shares the common
//! nodes, then compared against the conditions running separately.

use sidewinder_apps::{accelerometer_apps, audio_apps};
use sidewinder_bench::pct;
use sidewinder_hub::cost::PipelineCost;
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_ir::Program;
use sidewinder_opt::{fuse_programs, optimize, OptOptions};
use sidewinder_sim::batch::par_map;
use sidewinder_sim::report::Table;
use sidewinder_sim::BatchRunner;

fn main() {
    println!("Pipeline fusion ablation (paper S7)\n");

    let accel: Vec<Program> = accelerometer_apps()
        .iter()
        .map(|a| a.wake_condition())
        .collect();
    let audio: Vec<Program> = audio_apps().iter().map(|a| a.wake_condition()).collect();
    let all: Vec<Program> = accel.iter().chain(audio.iter()).cloned().collect();
    // The best case: many instances of the same application with
    // different thresholds (e.g. several registered significant-motion
    // listeners).
    let clones: Vec<Program> = std::iter::repeat_n(audio[1].clone(), 4).collect();

    let workloads: Vec<(&str, Vec<Program>)> = vec![
        ("3 accel apps", accel),
        ("3 audio apps", audio),
        ("all 6 apps", all),
        ("4 x music journal", clones),
    ];

    let rows = par_map(
        BatchRunner::new().worker_count(),
        &workloads,
        |(label, programs)| {
            let rates = ChannelRates::default();
            let unfused_nodes: usize = programs.iter().map(|p| p.nodes().count()).sum();
            let unfused_flops: f64 = programs
                .iter()
                .map(|p| PipelineCost::analyze(p, &rates).total_flops_per_second())
                .sum();
            let (_, report) = optimize(&fuse_programs(programs), &rates, &OptOptions::exact());
            [
                label.to_string(),
                unfused_nodes.to_string(),
                report.nodes_after.to_string(),
                pct(1.0 - report.nodes_after as f64 / unfused_nodes as f64),
                pct(1.0 - report.flops_after / unfused_flops),
            ]
        },
    );

    let mut table = Table::new([
        "Workload",
        "Nodes unfused",
        "Nodes fused",
        "Node saving",
        "Compute saving",
    ]);
    for row in rows {
        table.push_row(row);
    }

    println!("{table}");
    println!(
        "The music and phrase conditions share their window+variance\n\
         branches, so fusing the audio applications removes duplicated\n\
         hub work; unrelated conditions fuse poorly, as expected, and\n\
         pay for the anyOf node that joins their wakes."
    );
}
