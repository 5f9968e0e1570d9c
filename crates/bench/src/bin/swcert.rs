//! `swcert` — static resource certifier for Sidewinder IR programs.
//!
//! Compiles each input to an MCU image and derives its sound resource
//! certificate: exact per-arena occupancy, worst-case per-node cycle
//! demand, schedulability on the target MCU, and a static energy
//! ceiling — rendered for humans or as canonical JSON with the pinned
//! FNV digest.
//!
//! Usage:
//!
//! ```text
//! swcert wake.swir                       # certify one file, human summary
//! swcert --mcu msp430 wake.swir          # pin the target MCU
//! swcert --cap 1024 wake.swir            # certify against a 1k-element core
//! swcert --precision f32 wake.swir       # f32 sample arenas
//! swcert --format json wake.swir         # canonical JSON certificate
//! swcert --fuse a.swir b.swir            # also certify the fused suite
//! swcert --pins --cap 16384 *.swir       # emit the resource_certs pins doc
//! swcert --check results/resource_certs.json --cap 16384 *.swir
//! ```
//!
//! Exit codes: `0` every certificate fits its target, `1` a certified
//! bound is violated (arena overflow, pinned-MCU deadline miss, or
//! `--check` drift), `2` usage, I/O, parse, validation, or
//! certification error.

use sidewinder_cert::{
    canonical_json, certify_program, render_pins, CertTarget, PinEntry, Precision, ResourceCert,
};
use sidewinder_hub::mcu::Mcu;
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_ir::Program;
use sidewinder_mcu::DEFAULT_ARENA;
use std::io::Read;
use std::process::ExitCode;

const USAGE: &str = "usage: swcert [--mcu msp430|lm4f120|auto] [--cap N] \
                     [--precision f64|f32|both] [--format human|json] \
                     [--fuse] [--pins] [--check FILE] [FILE...]";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
}

#[derive(Clone, Copy, PartialEq)]
enum Precisions {
    F64,
    F32,
    Both,
}

impl Precisions {
    fn list(self) -> &'static [Precision] {
        match self {
            Precisions::F64 => &[Precision::F64],
            Precisions::F32 => &[Precision::F32],
            Precisions::Both => &[Precision::F64, Precision::F32],
        }
    }
}

fn stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned())
}

fn human_summary(name: &str, cert: &ResourceCert) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{name} [{}] cap {}: required {} elements ({}), {} bytes total\n",
        cert.precision.name(),
        cert.cap,
        cert.required_capacity,
        if cert.fits_cap { "fits" } else { "OVERFLOWS" },
        cert.total_bytes,
    ));
    for arena in &cert.arenas {
        if arena.elements == 0 {
            continue;
        }
        out.push_str(&format!(
            "  {:24} {:>7} elements  {:>8} bytes",
            arena.name, arena.elements, arena.bytes
        ));
        if let Some(node) = arena.peak_node {
            let n = &cert.nodes[node as usize];
            out.push_str(&format!(
                "  (peak: {} node {} at {} elements)",
                n.kind, n.ir_id, arena.peak_elements
            ));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "  demand: {:.1} flops/s, {:.1} cycles/s of {:.1} budget on {} -> {}\n",
        cert.total_flops_per_second,
        cert.mcu.demanded_cycles_per_s,
        cert.mcu.budget_cycles_per_s,
        cert.mcu.mcu,
        match &cert.mcu.error {
            None => "schedulable".to_string(),
            Some(e) => format!("UNSCHEDULABLE ({e})"),
        },
    ));
    out.push_str(&format!(
        "  wake rate <= {:.3} Hz, energy ceiling {:.2} uW (compute {:.2} + link {:.2})\n",
        cert.wake_rate_hz, cert.energy.total_uw, cert.energy.compute_uw, cert.energy.link_uw,
    ));
    out.push_str(&format!("  digest {:#018x}\n", cert.digest()));
    out
}

fn main() -> ExitCode {
    let mut format = Format::Human;
    let mut precisions = Precisions::F64;
    let mut mcu: Option<Mcu> = None;
    let mut cap = DEFAULT_ARENA;
    let mut fuse = false;
    let mut pins = false;
    let mut check: Option<String> = None;
    let mut files: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!("swcert: --format expects human|json, got {other:?}");
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--precision" => match args.next().as_deref() {
                Some("f64") => precisions = Precisions::F64,
                Some("f32") => precisions = Precisions::F32,
                Some("both") => precisions = Precisions::Both,
                other => {
                    eprintln!("swcert: --precision expects f64|f32|both, got {other:?}");
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--mcu" => match args.next().as_deref() {
                Some("msp430") => mcu = Some(Mcu::MSP430),
                Some("lm4f120") => mcu = Some(Mcu::LM4F120),
                Some("auto") => mcu = None,
                other => {
                    eprintln!("swcert: --mcu expects msp430|lm4f120|auto, got {other:?}");
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--cap" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v > 0 => cap = v,
                _ => {
                    eprintln!("swcert: --cap expects a positive element count");
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--fuse" => fuse = true,
            "--pins" => pins = true,
            "--check" => match args.next() {
                Some(path) => check = Some(path),
                None => {
                    eprintln!("swcert: --check expects a pins file path");
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("swcert: unknown flag {flag}");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            file => files.push(file.to_string()),
        }
    }

    // No files: certify stdin, the `swcert < wake.swir` pipe mode.
    let inputs: Vec<(String, Option<String>)> = if files.is_empty() {
        let mut text = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut text) {
            eprintln!("swcert: cannot read stdin: {e}");
            return ExitCode::from(2);
        }
        vec![("<stdin>".to_string(), Some(text))]
    } else {
        files.into_iter().map(|f| (f, None)).collect()
    };

    let mut programs: Vec<(String, Program)> = Vec::new();
    for (source, text) in inputs {
        let text = match text {
            Some(t) => t,
            None => match std::fs::read_to_string(&source) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("swcert: cannot read {source}: {e}");
                    return ExitCode::from(2);
                }
            },
        };
        let program: Program = match text.parse() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {source}: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = program.validate_located() {
            eprintln!("error: {source}: {e}");
            return ExitCode::from(2);
        }
        programs.push((stem(&source), program));
    }

    if fuse || pins || check.is_some() {
        // The canonical fused suite: merge every input, then optimize
        // at the aggressive level — the same pipeline the wake-digest
        // golden pins.
        let all: Vec<Program> = programs.iter().map(|(_, p)| p.clone()).collect();
        let fused = sidewinder_opt::fuse_programs(&all);
        let (optimized, _) = sidewinder_opt::optimize(
            &fused,
            &ChannelRates::default(),
            &sidewinder_opt::OptOptions::aggressive(),
        );
        let name = if all.len() == 6 {
            "fused_all_six".to_string()
        } else {
            format!("fused_all_{}", all.len())
        };
        programs.push((name, optimized));
    }

    let rates = ChannelRates::default();
    let target = CertTarget { mcu, cap };
    let mut violated = false;

    if pins || check.is_some() {
        let mut entries = Vec::new();
        for (name, program) in &programs {
            let f64_cert = match certify_program(program, &rates, Precision::F64, &target) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {name}: {e}");
                    return ExitCode::from(2);
                }
            };
            let f32_cert = match certify_program(program, &rates, Precision::F32, &target) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {name}: {e}");
                    return ExitCode::from(2);
                }
            };
            entries.push(PinEntry::from_certs(name.clone(), &f64_cert, &f32_cert));
        }
        let doc = render_pins(cap, &entries);
        if let Some(path) = check {
            let committed = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("swcert: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            if committed == doc {
                eprintln!("swcert: {path} matches ({} entries)", entries.len());
                return ExitCode::SUCCESS;
            }
            eprintln!("swcert: {path} drifted from the regenerated certificates");
            print!("{doc}");
            return ExitCode::FAILURE;
        }
        print!("{doc}");
        return ExitCode::SUCCESS;
    }

    let mut json_parts: Vec<String> = Vec::new();
    for (name, program) in &programs {
        for &precision in precisions.list() {
            let cert = match certify_program(program, &rates, precision, &target) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {name}: {e}");
                    return ExitCode::from(2);
                }
            };
            if !cert.fits_cap || (mcu.is_some() && cert.mcu.error.is_some()) {
                violated = true;
            }
            match format {
                Format::Human => print!("{}", human_summary(name, &cert)),
                Format::Json => json_parts.push(canonical_json(&cert)),
            }
        }
    }
    if format == Format::Json {
        println!("[\n{}\n]", json_parts.join(",\n"));
    }

    if violated {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
