//! Concurrent audio applications sharing one hub: registers the music
//! journal and phrase detection conditions together, demonstrates the
//! paper's §7 pipeline-fusion extension, and journals the songs heard in
//! a synthetic café scene.
//!
//! Run with: `cargo run --release --example music_journal`

use sidewinder::apps::{MusicJournalApp, PhraseDetectionApp};
use sidewinder::hub::cost::PipelineCost;
use sidewinder::hub::runtime::{ChannelRates, HubRuntime};
use sidewinder::opt::{fuse_programs, optimize, OptOptions};
use sidewinder::sensors::{EventKind, Micros, SensorChannel};
use sidewinder::sim::Application;
use sidewinder::tracegen::{audio_trace, AudioEnvironment, AudioTraceConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = audio_trace(&AudioTraceConfig {
        duration: Micros::from_secs(300),
        environment: AudioEnvironment::CoffeeShop,
        seed: 99,
        ..AudioTraceConfig::default()
    });
    let gt = trace.ground_truth();
    println!(
        "Scene: {} — {} songs, {} speech segments ({} with the phrase)\n",
        trace.name(),
        gt.count_of(EventKind::Music),
        gt.count_of(EventKind::Speech),
        gt.count_of(EventKind::Phrase),
    );

    let music = MusicJournalApp::new();
    let phrase = PhraseDetectionApp::new();
    let music_program = music.wake_condition();
    let phrase_program = phrase.wake_condition();

    // Fuse the two conditions into one program (their wakes joined by
    // `anyOf`) and let CSE share their feature branches.
    let rates = ChannelRates::default();
    let unfused_nodes = music_program.nodes().count() + phrase_program.nodes().count();
    let unfused_flops = PipelineCost::analyze(&music_program, &rates).total_flops_per_second()
        + PipelineCost::analyze(&phrase_program, &rates).total_flops_per_second();
    let (fused, report) = optimize(
        &fuse_programs(&[music_program, phrase_program]),
        &rates,
        &OptOptions::exact(),
    );
    println!(
        "Fusion (paper S7): {unfused_nodes} nodes -> {} in one program \
         ({:.0}% node saving, {:.0}% compute saving)\n",
        report.nodes_after,
        (1.0 - report.nodes_after as f64 / unfused_nodes as f64) * 100.0,
        (1.0 - report.flops_after / unfused_flops) * 100.0,
    );

    // Run both conditions as that one program on a single hub.
    let mut hub = HubRuntime::load(&fused, &rates)?;
    let mic = trace.channel(SensorChannel::Mic).expect("audio trace");
    let wakes = hub.push_samples(SensorChannel::Mic, mic.samples())?.len();
    println!("Hub wake-ups (music or phrase condition): {wakes}");

    // On each music wake the main CPU would query the Echoprint stand-in;
    // here we just run the classifier over the full trace for the journal.
    let entries = music.classify(&trace, Micros::ZERO, trace.duration());
    println!("\nMusic journal ({} entries):", entries.len());
    for t in &entries {
        println!("  song heard at {t}");
    }
    let phrases = phrase.classify(&trace, Micros::ZERO, trace.duration());
    println!("Phrase detections: {}", phrases.len());
    Ok(())
}
