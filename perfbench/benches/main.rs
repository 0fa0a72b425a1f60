//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//! ```
//!
//! Each workload drives the simulator crates from this one thread, one
//! call at a time, in a fixed sequence (a *pass*). A run generates the
//! workload's inputs from the seed several times (set-up, reported as the
//! median), then repeats passes for about `--seconds`. With `--trace 0`
//! it reports the end-to-end metrics (median pass wall and CPU time,
//! set-up time, peak RSS). With `--trace 1` it alternates untraced and
//! traced passes and reports the per-layer metrics from the spans the
//! traced passes record around every call into a layer, plus the tracing
//! overhead; the spans are written as a Chrome trace.
//!
//! Every call's result is checked against invariants that hold for any
//! seed; a violation is a failed operation. Every pass folds all simulated
//! outputs into a digest, which must repeat across passes and between
//! traced and untraced passes. The last stdout line is the JSON result.

mod check;
mod ep_fabric;
mod fabric_chaos;
mod fp8_train;
mod layers;
mod procstat;
mod serve_fleet;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use check::{Checks, Digest};
use trace::Tracer;

/// A benchmark workload: seeded inputs and a fixed sequence of layer calls.
pub trait Workload {
    /// Everything generated from the seed before the measured phase.
    type Inputs;
    /// The workload's name on the command line.
    const NAME: &'static str;
    /// Generate the inputs and warm every layer up with a small call.
    fn setup(seed: u64, t: &mut Tracer) -> Self::Inputs;
    /// Digest of the generated inputs (differs between seeds).
    fn input_digest(inputs: &Self::Inputs) -> Digest;
    /// One pass: call the layers, check and digest every result.
    fn pass(inputs: &Self::Inputs, t: &mut Tracer, out: &mut Outcome);
    /// Per-layer metrics of one traced set-up and pass.
    fn layer_metrics(setup: &Tracer, pass: &Tracer, out: &Outcome) -> BTreeMap<&'static str, f64>;
}

/// What one pass produced besides its host time.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Digest of every simulated output.
    pub digest: Digest,
    /// Operations checked and failed.
    pub checks: Checks,
    /// Work counts and ratios taken from the simulated outputs.
    pub counts: BTreeMap<&'static str, f64>,
}

/// Seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Set-ups per run; their median is `setup_s`.
const SETUP_REPS: usize = 9;

/// Every per-layer metric and its unit, as `BENCHMARK.json` lists them. A
/// traced run reports each one; a workload that bypasses a layer reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("model.train_s.f32", "s"),
    ("model.train_s.bf16", "s"),
    ("model.train_s.fp8_fine", "s"),
    ("model.train_s.fp8_coarse", "s"),
    ("model.gradient_probe_s", "s"),
    ("numerics.gemm_fp8_ns_per_mac", "ns"),
    ("numerics.gemm_per_tensor_ns_per_mac", "ns"),
    ("numerics.k_sweep_s", "s"),
    ("numerics.e4m3_encode_ns", "ns"),
    ("numerics.e4m3_decode_ns", "ns"),
    ("numerics.bf16_quantize_ns", "ns"),
    ("numerics.align_truncate_sum_ns", "ns"),
    ("numerics.gemm_calls", "count"),
    ("numerics.elems_encoded", "count"),
    ("topology.cluster_build_s", "s"),
    ("collectives.traffic_gen_s", "s"),
    ("collectives.deepep_round_s.g32", "s"),
    ("collectives.deepep_round_s.g64", "s"),
    ("collectives.deepep_round_s.g128", "s"),
    ("collectives.deepep_round_s.g256", "s"),
    ("netsim.flows.g256", "count"),
    ("netsim.ns_per_flow.g256", "ns"),
    ("netsim.round_scaling_g256_over_g128", "ratio"),
    ("collectives.pxn_healthy_s", "s"),
    ("collectives.pxn_chaos_s.stall", "s"),
    ("collectives.pxn_chaos_s.rehash", "s"),
    ("collectives.pxn_chaos_s.adaptive", "s"),
    ("netsim.chaos_ns_per_flow", "ns"),
    ("netsim.chaos_reroutes", "count"),
    ("netsim.chaos_retries", "count"),
    ("netsim.chaos_stranded", "count"),
    ("netsim.chaos_useful_bytes_ratio", "ratio"),
    ("serving.run_s.healthy", "s"),
    ("serving.run_s.storm", "s"),
    ("serving.run_s.audited", "s"),
    ("serving.ns_per_request", "ns"),
    ("serving.ns_per_decode_step", "ns"),
    ("serving.requests", "count"),
    ("serving.decode_steps", "count"),
    ("serving.retries", "count"),
    ("serving.shed", "count"),
    ("serving.preemptions", "count"),
    ("serving.goodput_ratio", "ratio"),
    ("telemetry.events", "count"),
    ("telemetry.dropped_events", "count"),
    ("telemetry.evaluate_s", "s"),
    ("telemetry.export_trace_s", "s"),
    ("telemetry.recorder_overhead_ratio", "ratio"),
    ("faults.resilience_s", "s"),
    ("faults.failures", "count"),
    ("memtl.simulate_s", "s"),
    ("memtl.chunk_events", "count"),
    ("memtl.ns_per_event", "ns"),
    ("memtl.frontier_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.pass_wall_s", "s"),
    ("layer_self_s.bench", "s"),
    ("layer_self_s.numerics", "s"),
    ("layer_self_s.model", "s"),
    ("layer_self_s.topology", "s"),
    ("layer_self_s.collectives", "s"),
    ("layer_self_s.netsim", "s"),
    ("layer_self_s.serving", "s"),
    ("layer_self_s.faults", "s"),
    ("layer_self_s.telemetry", "s"),
    ("layer_self_s.memtl", "s"),
];

/// The four workloads by name.
const WORKLOADS: [&str; 4] = ["fp8-train", "ep-fabric", "fabric-chaos", "serve-fleet"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One pass with host wall and CPU seconds.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    out: Outcome,
}

fn timed_pass<W: Workload>(inputs: &W::Inputs, t: &mut Tracer) -> Timed {
    let mut out = Outcome::default();
    let (cpu0, t0) = (procstat::cpu_s(), Instant::now());
    t.open("bench", &format!("bench.{}", W::NAME));
    W::pass(inputs, t, &mut out);
    t.close();
    let wall_s = t0.elapsed().as_secs_f64();
    Timed { wall_s, cpu_s: procstat::cpu_s() - cpu0, out }
}

/// Everything a run measured, ready to print.
#[derive(Debug, Default)]
struct Report {
    checks: Checks,
    /// (name, value, unit) in print order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Wall seconds of every untraced pass.
    walls: Vec<f64>,
    input_digest: String,
    digest: String,
    /// Per-layer self-time shares of the traced pass wall, for the notes.
    shares: Vec<(String, f64)>,
}

/// Run `W` per the arguments.
fn drive<W: Workload>(a: &Args) -> Report {
    let mut report = Report::default();

    // Set-up, several times; the last one's inputs are measured.
    let mut setup_s = Vec::new();
    let mut setup_traces = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let mut t = if a.trace { Tracer::on() } else { Tracer::off() };
        let t0 = Instant::now();
        inputs = Some(W::setup(a.seed, &mut t));
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_traces.push(t);
    }
    let inputs = inputs.expect("SETUP_REPS > 0");
    report.input_digest = W::input_digest(&inputs).hex();
    // The set-up trace of median length stands for the set-up.
    let mut order: Vec<usize> = (0..SETUP_REPS).collect();
    order.sort_by(|x, y| setup_s[*x].total_cmp(&setup_s[*y]));
    let setup_trace = &setup_traces[order[SETUP_REPS / 2]];

    // Measured phase: rounds of passes (untraced, then traced when tracing)
    // while the next round would end at most half a round past the budget.
    let start = Instant::now();
    let (mut walls, mut cpus, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut layer_runs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first_trace: Option<Tracer> = None;
    let mut reference: Option<(Digest, BTreeMap<&'static str, f64>)> = None;
    loop {
        let round = Instant::now();
        let mut phases = vec![(Tracer::off(), false)];
        if a.trace {
            phases.push((Tracer::on(), true));
        }
        for (mut t, traced) in phases {
            let p = timed_pass::<W>(&inputs, &mut t);
            report.checks.attempted += p.out.checks.attempted;
            report.checks.failed += p.out.checks.failed;
            report.checks.violations.extend(p.out.checks.violations.iter().cloned());
            let same = match &reference {
                None => {
                    reference = Some((p.out.digest, p.out.counts.clone()));
                    true
                }
                Some((d, c)) => *d == p.out.digest && *c == p.out.counts,
            };
            report
                .checks
                .op("pass", &[(same, "digest and counts repeat across passes, traced or not")]);
            if traced {
                traced_walls.push(p.wall_s);
                let mut m = W::layer_metrics(setup_trace, &t, &p.out);
                for (layer, s) in t.self_s_by_layer() {
                    if let Some(name) = self_metric(layer) {
                        m.insert(name, s);
                    }
                }
                m.insert("trace.pass_wall_s", p.wall_s);
                for (k, v) in m {
                    layer_runs.entry(k).or_default().push(v);
                }
                if first_trace.is_none() {
                    first_trace = Some(t);
                }
            } else {
                walls.push(p.wall_s);
                cpus.push(p.cpu_s);
            }
            report.digest = p.out.digest.hex();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + round.elapsed().as_secs_f64() / 2.0 > a.seconds {
            break;
        }
    }

    if a.trace {
        let overhead = median(&traced_walls) - median(&walls);
        layer_runs.insert("trace.overhead_s", vec![overhead]);
        for (name, unit) in PER_LAYER {
            let v = layer_runs.get(name).map_or(0.0, |vs| median(vs));
            report.metrics.push((name, v, unit));
        }
        for k in layer_runs.keys() {
            report.checks.op(k, &[(PER_LAYER.iter().any(|(n, _)| n == k), "metric is listed")]);
        }
        let wall = median(&traced_walls);
        for (name, v, _) in &report.metrics {
            if let (Some(layer), true) = (name.strip_prefix("layer_self_s."), *v > 0.0) {
                report.shares.push((layer.to_string(), v / wall));
            }
        }
        if let Some(t) = &first_trace {
            let json = trace::chrome_trace(W::NAME, &[("setup", setup_trace), ("pass", t)]);
            let valid = trace::validate(&json);
            report.checks.op("trace", &[(valid.is_ok(), "Chrome trace validates")]);
            let path = a.trace_out.clone().unwrap_or_else(|| {
                PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
                    "{}-seed{}.trace.json",
                    W::NAME,
                    a.seed
                ))
            });
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, json));
            report.checks.op(
                &format!("trace written to {}", path.display()),
                &[(written.is_ok(), "trace file written")],
            );
        }
    } else {
        report.metrics = vec![
            ("wall_s", median(&walls), "s"),
            ("cpu_s", median(&cpus), "s"),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", procstat::peak_rss_mb(), "MB"),
        ];
    }
    report.walls = walls;
    for (name, v, _) in &report.metrics {
        report.checks.op(name, &[(v.is_finite(), "metric is finite")]);
    }
    report
}

/// The `layer_self_s.<layer>` metric of `layer`, if it is one of the
/// reported layers (the crates and `bench`, the benchmark's own root span).
fn self_metric(layer: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|(n, _)| *n).find(|n| n.strip_prefix("layer_self_s.") == Some(layer))
}

fn run(a: &Args) -> Report {
    match a.workload.as_str() {
        "fp8-train" => drive::<fp8_train::Fp8Train>(a),
        "ep-fabric" => drive::<ep_fabric::EpFabric>(a),
        "fabric-chaos" => drive::<fabric_chaos::FabricChaos>(a),
        _ => drive::<serve_fleet::ServeFleet>(a),
    }
}

fn json_result(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.checks.failed == 0,
        r.checks.attempted,
        r.checks.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--trace-out <path>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let r = run(&args);
    let walls: Vec<String> = r.walls.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "perfbench {} seed={} inputs={} digest={} pass_walls_s=[{}]",
        args.workload,
        args.seed,
        r.input_digest,
        r.digest,
        walls.join(",")
    );
    for (layer, share) in &r.shares {
        println!("share {layer} {:.4}", share);
    }
    for v in &r.checks.violations {
        println!("violation {v}");
    }
    println!("{}", json_result(&r));
    ExitCode::SUCCESS
}

/// Self-tests: `cargo test --release --manifest-path perfbench/Cargo.toml`.
/// Each workload test runs the full workload (one set-up series, one
/// untraced and one traced pass) twice.
#[cfg(test)]
mod tests {
    use super::*;

    /// Count metrics each workload must report as > 0.
    const OWNED_COUNTS: [(&str, &[&str]); 4] = [
        ("fp8-train", &["numerics.gemm_calls", "numerics.elems_encoded"]),
        ("ep-fabric", &["netsim.flows.g256"]),
        (
            "fabric-chaos",
            &["netsim.chaos_reroutes", "netsim.chaos_retries", "netsim.chaos_stranded"],
        ),
        (
            "serve-fleet",
            &[
                "serving.requests",
                "serving.decode_steps",
                "serving.retries",
                "serving.shed",
                "serving.preemptions",
                "telemetry.events",
                "telemetry.dropped_events",
                "faults.failures",
                "memtl.chunk_events",
            ],
        ),
    ];

    /// Layer prefixes each workload bypasses: their metrics must read 0.
    const BYPASSED: [(&str, &[&str]); 4] = [
        ("fp8-train", &["netsim.", "collectives.", "serving."]),
        ("ep-fabric", &["numerics.", "model.", "serving."]),
        ("fabric-chaos", &["numerics.", "model.", "serving."]),
        ("serve-fleet", &["numerics.", "netsim.", "collectives."]),
    ];

    fn traced_run(workload: &str, seed: u64) -> (Report, String) {
        let out = std::env::temp_dir()
            .join(format!("perfbench-selftest-{}-{workload}-{seed}.json", std::process::id()));
        let a = Args {
            workload: workload.to_string(),
            seed,
            seconds: 1e-3,
            trace: true,
            trace_out: Some(out.clone()),
        };
        let r = run(&a);
        let trace = std::fs::read_to_string(&out).expect("trace file written");
        std::fs::remove_file(&out).expect("trace file removed");
        (r, trace)
    }

    fn metric(r: &Report, name: &str) -> f64 {
        r.metrics.iter().find(|(n, _, _)| *n == name).map(|m| m.1).expect("metric reported")
    }

    fn self_test(workload: &str) {
        let (a, trace) = traced_run(workload, 11);
        assert_eq!(a.checks.failed, 0, "{:?}", a.checks.violations);
        assert!(a.checks.attempted > 0);
        assert!(trace::validate(&trace).expect("trace validates") > 0, "trace has spans");

        // Same seed: same inputs, same outputs, same counts.
        let (b, _) = traced_run(workload, 11);
        assert_eq!(a.input_digest, b.input_digest);
        assert_eq!(a.digest, b.digest);
        for (name, unit) in PER_LAYER.iter().filter(|(_, u)| *u == "count") {
            assert_eq!(metric(&a, name), metric(&b, name), "{name} ({unit}) repeats");
        }

        let owned = OWNED_COUNTS.iter().find(|(w, _)| *w == workload).expect("listed").1;
        for name in owned {
            assert!(metric(&a, name) > 0.0, "{workload} owns {name}");
        }
        let bypassed = BYPASSED.iter().find(|(w, _)| *w == workload).expect("listed").1;
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| bypassed.iter().any(|p| n.starts_with(p)))
        {
            assert_eq!(metric(&a, name), 0.0, "{workload} bypasses {name}");
        }
    }

    /// Another seed generates other inputs.
    fn seeds_differ<W: Workload>() {
        let digest = |seed| W::input_digest(&W::setup(seed, &mut Tracer::off()));
        assert_ne!(digest(1), digest(2), "{}", W::NAME);
    }

    #[test]
    fn fp8_train_is_deterministic_checked_and_owns_numerics() {
        self_test("fp8-train");
    }

    #[test]
    fn ep_fabric_is_deterministic_checked_and_owns_netsim() {
        self_test("ep-fabric");
    }

    #[test]
    fn fabric_chaos_is_deterministic_checked_and_owns_chaos() {
        self_test("fabric-chaos");
    }

    #[test]
    fn serve_fleet_is_deterministic_checked_and_owns_serving() {
        self_test("serve-fleet");
    }

    #[test]
    fn different_seeds_generate_different_inputs() {
        seeds_differ::<fp8_train::Fp8Train>();
        seeds_differ::<ep_fabric::EpFabric>();
        seeds_differ::<fabric_chaos::FabricChaos>();
        seeds_differ::<serve_fleet::ServeFleet>();
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            let entries = doc.as_object().expect("object");
            let items = entries.iter().find(|(k, _)| k == key).expect(key).1.as_array().expect(key);
            items
                .iter()
                .map(|it| {
                    let f = it.as_object().expect("entry");
                    let s = |k: &str| match f.iter().find(|(n, _)| n == k).map(|(_, v)| v) {
                        Some(serde_json::Value::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter().map(|(n, u)| ((*n).to_string(), (*u).to_string())).collect()
        };
        assert_eq!(list("per_layer"), owned(PER_LAYER));
        let e2e = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];
        assert_eq!(list("end_to_end"), owned(&e2e));
        let names: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, WORKLOADS.map(String::from));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload fp8-train --seed 1 --seconds 5 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload fp8-train --seed 1 --trace 2").is_err());
        assert!(parse("--workload fp8-train --seed 1 --seconds 0").is_err());
        assert!(parse("--workload fp8-train --seed 1 --bogus 1").is_err());
    }
}
