//! Golden-output tests: with telemetry off, the `serving` and
//! `fault-drill` reports are byte-identical to the pre-telemetry
//! captures under `tests/golden/` — instrumenting the simulators must
//! not perturb a single byte of the default output. Every registry
//! entry backed by the `FlowSim` flow solver is pinned the same way, so
//! a change to the solver's event loop proves it moved no reported
//! number. The four §3 numerics entries (`fp8-gemm`, `logfmt`,
//! `combine-formats`, `fp8-training`) are pinned so the FP8/BF16 codec
//! and tensor-core kernels can be rewritten without moving a bit.

use dsv3_core::registry;
use dsv3_core::telemetry::Recorder;

fn entry(name: &str) -> dsv3_core::Entry {
    registry().into_iter().find(|e| e.name == name).expect("registered")
}

/// A golden file is exactly what `dsv3 <name>` prints: the rendered
/// table plus the trailing newline `println!` appends.
fn rendered(name: &str) -> String {
    format!("{}\n", (entry(name).render)())
}

fn json(name: &str) -> String {
    format!("{}\n", (entry(name).json)())
}

#[test]
fn serving_text_report_matches_golden() {
    assert_eq!(rendered("serving"), include_str!("golden/serving.txt"));
}

#[test]
fn serving_json_report_matches_golden() {
    assert_eq!(json("serving"), include_str!("golden/serving.json"));
}

#[test]
fn fault_drill_text_report_matches_golden() {
    assert_eq!(rendered("fault-drill"), include_str!("golden/fault_drill.txt"));
}

#[test]
fn fault_drill_json_report_matches_golden() {
    assert_eq!(json("fault-drill"), include_str!("golden/fault_drill.json"));
}

/// One text and one JSON golden test for a registry entry whose golden
/// files are `tests/golden/<file>.{txt,json}`.
macro_rules! golden {
    ($text:ident, $json:ident, $name:literal, $file:literal) => {
        #[test]
        fn $text() {
            assert_eq!(rendered($name), include_str!(concat!("golden/", $file, ".txt")));
        }

        #[test]
        fn $json() {
            assert_eq!(json($name), include_str!(concat!("golden/", $file, ".json")));
        }
    };
}

golden!(fig5_text_report_matches_golden, fig5_json_report_matches_golden, "fig5", "fig5");
golden!(fig6_text_report_matches_golden, fig6_json_report_matches_golden, "fig6", "fig6");
golden!(fig7_text_report_matches_golden, fig7_json_report_matches_golden, "fig7", "fig7");
golden!(fig8_text_report_matches_golden, fig8_json_report_matches_golden, "fig8", "fig8");
golden!(
    robustness_text_report_matches_golden,
    robustness_json_report_matches_golden,
    "robustness",
    "robustness"
);
golden!(
    net_chaos_text_report_matches_golden,
    net_chaos_json_report_matches_golden,
    "net-chaos",
    "net_chaos"
);
golden!(
    fp8_gemm_text_report_matches_golden,
    fp8_gemm_json_report_matches_golden,
    "fp8-gemm",
    "fp8_gemm"
);
golden!(logfmt_text_report_matches_golden, logfmt_json_report_matches_golden, "logfmt", "logfmt");
golden!(
    combine_formats_text_report_matches_golden,
    combine_formats_json_report_matches_golden,
    "combine-formats",
    "combine_formats"
);

/// JSON only: the text view re-trains all four backends a second time,
/// and both views come from the same `fp8_training::run`.
#[test]
fn fp8_training_json_report_matches_golden() {
    assert_eq!(json("fp8-training"), include_str!("golden/fp8_training.json"));
}

/// The instrumented path computes the same report the plain path does —
/// the trace is a pure side channel.
#[test]
fn instrumented_reports_match_goldens_too() {
    for (name, txt, js) in [
        ("serving", include_str!("golden/serving.txt"), include_str!("golden/serving.json")),
        (
            "fault-drill",
            include_str!("golden/fault_drill.txt"),
            include_str!("golden/fault_drill.json"),
        ),
        ("net-chaos", include_str!("golden/net_chaos.txt"), include_str!("golden/net_chaos.json")),
    ] {
        let mut rec = Recorder::new();
        let run = (entry(name).instrumented.expect("traceable"))(&mut rec);
        assert_eq!(format!("{}\n", run.table), txt, "{name} instrumented table drifted");
        assert_eq!(format!("{}\n", run.json), js, "{name} instrumented JSON drifted");
        assert!(!rec.events().is_empty(), "{name} instrumented run must actually trace");
    }
}
