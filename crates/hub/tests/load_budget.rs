//! Both loaders refuse a program too large to hold, with a typed error
//! and without allocating it.
//!
//! The host loader sizes a program with the MCU footprint walk before it
//! allocates any node, so a validated window of 2^31 samples gets
//! `HubError::TooLarge` instead of a 16 GiB allocation. The property
//! below draws window, moving-average and FFT sizes up to `u32::MAX`
//! and checks the two loaders against each other:
//!
//! - a program invalid for one is invalid for the other, with the same
//!   error;
//! - the host refuses a program exactly when its footprint, taken from
//!   the compiled image, exceeds `HOST_LOAD_BUDGET`;
//! - every program the host refuses as too large, the core refuses as an
//!   arena overflow.
//!
//! It runs in a child process under `ulimit -v`, so an allocation that
//! slips past either loader aborts the child and fails the test instead
//! of exhausting the machine.

use proptest::prelude::*;
use sidewinder_hub::runtime::{ChannelRates, HubRuntime, HubRuntime32, HOST_LOAD_BUDGET};
use sidewinder_hub::{compile_image, HubError, McuCore, McuExecError, DEFAULT_ARENA};
use sidewinder_ir::{NodeId, Program};
use sidewinder_mcu::image_footprint;

/// The program the host loader used to abort on.
const SIXTEEN_GIB: &str = "ACC_X -> window(id=1, params={2147483648, 2147483648, 1});
     1 -> mean(id=2);
     2 -> OUT;";

#[test]
fn a_sixteen_gib_window_is_a_typed_error() {
    let program: Program = SIXTEEN_GIB.parse().unwrap();
    let rates = ChannelRates::default();
    for err in [
        HubRuntime::load(&program, &rates).unwrap_err(),
        HubRuntime32::load_f32(&program, &rates).unwrap_err(),
    ] {
        let HubError::TooLarge {
            needed,
            budget,
            node,
        } = err
        else {
            panic!("expected TooLarge, got {err:?}");
        };
        assert!(needed > budget && budget == HOST_LOAD_BUDGET);
        assert_eq!(node, NodeId(1));
        assert!(err.to_string().contains("host budget"), "{err}");
    }
    let mut core: Box<McuCore<f64, DEFAULT_ARENA>> = Box::new(McuCore::new());
    let image = compile_image(&program, &rates).unwrap();
    assert!(matches!(
        core.load(&image),
        Err(McuExecError::ArenaOverflow { .. })
    ));
}

/// A program size: a power of two up to 2^31, or any `u32`.
fn size() -> impl Strategy<Value = u32> {
    prop_oneof![(0u32..32).prop_map(|k| 1u32 << k), 1u32..=u32::MAX]
}

/// One of three shapes around the drawn size: a window reduced to its
/// mean, a window through an FFT, or a moving average.
fn program() -> impl Strategy<Value = String> {
    (0u32..3, size(), 0u32..5).prop_map(|(shape, size, hop)| {
        let hop = match hop {
            0 => size,
            1 => (size / 2).max(1),
            2 => 1,
            3 => 0,
            _ => size.saturating_add(1),
        };
        match shape {
            0 => format!(
                "ACC_X -> window(id=1, params={{{size}, {hop}, 1}});
                 1 -> mean(id=2);
                 2 -> OUT;"
            ),
            1 => format!(
                "MIC -> window(id=1, params={{{size}, {size}, 0}});
                 1 -> fft(id=2);
                 2 -> spectralMagnitude(id=3);
                 3 -> max(id=4);
                 4 -> OUT;"
            ),
            _ => format!(
                "ACC_X -> movingAvg(id=1, params={{{size}}});
                 1 -> OUT;"
            ),
        }
    })
}

fn check(text: &str, core: &mut McuCore<f64, DEFAULT_ARENA>) {
    let program: Program = text.parse().unwrap();
    let rates = ChannelRates::default();
    let host = HubRuntime::load(&program, &rates).err();
    let host32 = HubRuntime32::load_f32(&program, &rates).err();
    let image = match compile_image(&program, &rates) {
        Err(HubError::Invalid(e)) => {
            assert_eq!(host, Some(HubError::Invalid(e.clone())), "{text}");
            assert_eq!(host32, Some(HubError::Invalid(e)), "{text}");
            return;
        }
        other => other.unwrap(),
    };
    let footprint = image_footprint(&image).unwrap();
    for (err, width) in [(host, 8), (host32, 4)] {
        let too_large = footprint.total_bytes(width) > HOST_LOAD_BUDGET;
        match err {
            None => assert!(!too_large, "{text}: loaded past the budget"),
            Some(HubError::TooLarge { .. }) => {
                assert!(too_large, "{text}: refused within the budget");
                assert!(
                    matches!(core.load(&image), Err(McuExecError::ArenaOverflow { .. })),
                    "{text}: the core took what the host refused"
                );
            }
            Some(e) => panic!("{text}: unexpected host error {e}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Runs only inside the memory-limited child below.
    #[test]
    #[ignore = "run by loaders_agree_on_sizes_up_to_u32_max_under_a_memory_limit"]
    fn loaders_agree_on_sizes_up_to_u32_max(text in program()) {
        let mut core: Box<McuCore<f64, DEFAULT_ARENA>> = Box::new(McuCore::new());
        check(&text, &mut core);
    }
}

/// Re-runs this test binary's property under a 1 GiB address-space
/// limit (`ulimit -v` on the child process only), so any allocation of
/// a refused program's size aborts the child.
#[cfg(unix)]
#[test]
fn loaders_agree_on_sizes_up_to_u32_max_under_a_memory_limit() {
    let exe = std::env::current_exe().unwrap();
    let output = std::process::Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -v 1048576 && exec "$0" "$@""#)
        .arg(&exe)
        .args([
            "--exact",
            "loaders_agree_on_sizes_up_to_u32_max",
            "--ignored",
            "--test-threads=1",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success() && stdout.contains("1 passed"),
        "memory-limited run failed ({}):\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
}
