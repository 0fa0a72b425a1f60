//! `serve-fleet`: the event-loop layers. Three serving arms (healthy,
//! storm, audited storm + watchdog + trace export), a fleet resilience
//! sweep, and the memory-timeline walker with its fit frontier.
//!
//! `numerics` and `netsim` do no work here, so this workload catches
//! regressions in the serving step loop, the recorder and detectors, and
//! the two walkers.

use std::collections::BTreeMap;

use dsv3_faults::{
    system_mtbf_s, Backoff, CheckpointBytes, CheckpointStack, ComponentMtbf, FaultPlan,
    FaultPlanConfig, FleetFailure, FleetSpec, RecoveryKind, RecoveryPolicy, ResilienceConfig,
    SdcConfig,
};
use dsv3_memtl::{FrontierQuery, GpuSpec, MemPlan};
use dsv3_model::{zoo, ModelConfig};
use dsv3_parallel::TrainStepConfig;
use dsv3_serving::{
    AdmissionConfig, ArrivalProcess, AutoscaleConfig, ClientConfig, LadderConfig, OverloadConfig,
    OverloadServingReport, Phase, RateLimitConfig, RouterPolicy, ServingSimConfig,
};
use dsv3_telemetry::Recorder;

use crate::check::Digest;
use crate::layers::serving::{self, Scenario};
use crate::layers::{faults, memtl, telemetry};
use crate::trace::Tracer;
use crate::{Outcome, Workload};

/// The disaggregated H800 scenario's 1x SLO capacity, requests/s (the
/// `overload` experiment's calibrated anchor).
const CAPACITY_RPS: f64 = 6.0;

/// Decode replicas; the fault plan and the autoscaler address this pool.
const REPLICAS: usize = 4;

/// Decode-pool KV slice: a quarter of the baseline's 4 GB, so long
/// requests contend for cache and the engine preempts.
const KV_CAPACITY_BYTES: usize = 1_000_000_000;

/// Requests in the healthy arm.
const HEALTHY_REQUESTS: usize = 200_000;

/// Storm phases, seconds: 0.9x, then 2x, then 0.9x again.
const STORM_S: [(f64, f64); 3] = [(600.0, 0.9), (300.0, 2.0), (1_200.0, 0.9)];

/// Fleet sizes of the resilience sweep, GPUs.
const FLEETS: [usize; 3] = [2_048, 16_384, 102_400];

/// Resilience horizon, days of wall clock.
const HORIZON_DAYS: f64 = 365.0;

/// Trace events the audited arm's recorder keeps; the rest are counted as
/// dropped, which bounds the recorder's memory.
const AUDIT_MAX_EVENTS: usize = 20_000;

/// Fleet size the memory frontier is searched at, GPUs.
const FRONTIER_GPUS: usize = 2_048;

pub struct ServeFleet;

/// One fleet size of the resilience sweep.
pub struct Fleet {
    gpus: usize,
    failures: Vec<FleetFailure>,
    /// (policy label, config), cold restart first.
    arms: Vec<(&'static str, ResilienceConfig)>,
}

pub struct Inputs {
    healthy: Scenario,
    storm: Scenario,
    fleets: Vec<Fleet>,
    model: ModelConfig,
    mem_plan: MemPlan,
}

fn scenario(arrival: ArrivalProcess, requests: usize, seed: u64) -> ServingSimConfig {
    let mut cfg = ServingSimConfig::h800_baseline(
        arrival,
        requests,
        RouterPolicy::Disaggregated { prefill_fraction: 0.25 },
    );
    cfg.workload.seed = seed;
    cfg.engine.kv_capacity_bytes = KV_CAPACITY_BYTES;
    cfg
}

/// Admission, ladder and autoscale on; jitter-free retrying clients.
fn storm_overload() -> OverloadConfig {
    OverloadConfig {
        admission: Some(AdmissionConfig {
            queue_cap: 256,
            deadline_headroom: 1.0,
            rate_limit: Some(RateLimitConfig { rate_per_s_per_replica: 2.5, burst: 24.0 }),
        }),
        ladder: Some(LadderConfig::default()),
        clients: Some(ClientConfig { backoff: Backoff::default(), ..ClientConfig::default() }),
        autoscale: Some(AutoscaleConfig {
            prefill_up_backlog_ms: 1_000.0,
            prefill_down_backlog_ms: 100.0,
            ..AutoscaleConfig::reactive(REPLICAS, REPLICAS)
        }),
        priority_classes: 4,
        timeline_window_ms: 5_000.0,
    }
}

/// The five policy arms of the resilience sweep for one fleet.
fn resilience_arms(
    gpus: usize,
    ckpt: CheckpointBytes,
    sys_mtbf_s: f64,
    seed: u64,
) -> Vec<(&'static str, ResilienceConfig)> {
    let spares = (gpus / 512).max(4);
    let spare = RecoveryKind::SparePool { spares, provision_s: 30.0 };
    let mut train = TrainStepConfig::deepseek_v3(1.0);
    train.tokens_per_step *= gpus as f64 / train.gpus as f64;
    train.gpus = gpus;
    let elastic = RecoveryKind::ElasticShrink { replan_s: 60.0, train: Box::new(train), ep: 64 };
    let sdc = SdcConfig {
        mtbf_s: 86_400.0,
        detection_mean_s: 7_200.0,
        verify_every: 20,
        verify_cost_s: 30.0,
    };
    let cell = |stack: CheckpointStack, recovery, sdc| {
        let write_s = stack.blocking_write_s(ckpt.write_bytes).max(1e-3);
        ResilienceConfig {
            interval_s: (2.0 * write_s * sys_mtbf_s).sqrt().max(120.0),
            ckpt,
            stack,
            recovery,
            sdc,
            restart_s: 180.0,
            repair_s: 6.0 * 3_600.0,
            gpus_per_failure: 8,
            horizon_s: HORIZON_DAYS * 86_400.0,
            seed,
        }
    };
    let off = SdcConfig::disabled();
    vec![
        (
            "cold/sync",
            cell(CheckpointStack::single_sync_remote(2.0), RecoveryKind::ColdRestart, off),
        ),
        ("cold/tiered", cell(CheckpointStack::tiered(), RecoveryKind::ColdRestart, off)),
        ("spare/tiered", cell(CheckpointStack::tiered(), spare.clone(), off)),
        ("elastic/tiered", cell(CheckpointStack::tiered(), elastic, off)),
        ("spare+sdc/tiered", cell(CheckpointStack::tiered(), spare, sdc)),
    ]
}

fn shed(r: &OverloadServingReport) -> usize {
    let o = &r.overload;
    o.shed_queue_full + o.shed_rate_limited + o.shed_deadline + o.shed_priority + o.shed_context
}

fn digest_serving(d: &mut Digest, r: &OverloadServingReport) {
    let s = &r.serving;
    for n in [s.requests, s.completed, s.dropped, s.preemptions, s.decode_steps] {
        d.u64(n as u64);
    }
    d.f64s(&[s.sim_duration_ms, s.throughput_tokens_per_s, s.goodput_rps, s.slo_attainment]);
    d.f64s(&[s.ttft_ms.p50, s.ttft_ms.p99, s.tpot_ms.p50, s.tpot_ms.p99]);
    for n in [r.faults.retries, r.faults.rejected, r.faults.unfinished, r.overload.rejected] {
        d.u64(n as u64);
    }
    d.u64(shed(r) as u64);
}

impl Workload for ServeFleet {
    type Inputs = Inputs;
    const NAME: &'static str = "serve-fleet";

    fn setup(seed: u64, t: &mut Tracer) -> Inputs {
        let no_faults = FaultPlan { replicas: REPLICAS, planes: 8, links: 0, events: Vec::new() };
        let healthy = Scenario {
            cfg: scenario(
                ArrivalProcess::Poisson { rate_per_s: CAPACITY_RPS },
                HEALTHY_REQUESTS,
                seed,
            ),
            plan: no_faults,
            policy: RecoveryPolicy::default(),
            overload: OverloadConfig::disabled(),
        };
        let phases: Vec<Phase> = STORM_S
            .iter()
            .map(|&(s, mult)| Phase { duration_ms: s * 1_000.0, rate_per_s: mult * CAPACITY_RPS })
            .collect();
        let storm_ms: f64 = phases.iter().map(|p| p.duration_ms).sum();
        let storm_requests =
            phases.iter().map(|p| p.duration_ms * p.rate_per_s / 1_000.0).sum::<f64>() as usize;
        let plan = faults::plan(
            t,
            &FaultPlanConfig {
                seed,
                horizon_ms: storm_ms,
                replicas: REPLICAS,
                planes: 8,
                crash_mtbf_ms: 120_000.0,
                crash_repair_ms: 10_000.0,
                flap_mtbf_ms: 90_000.0,
                flap_repair_ms: 5_000.0,
                straggler_mtbf_ms: 60_000.0,
                sdc_mtbf_ms: 60_000.0,
                ..FaultPlanConfig::default()
            },
        );
        let storm = Scenario {
            cfg: scenario(ArrivalProcess::Phased { phases }, storm_requests, seed),
            plan,
            policy: RecoveryPolicy::default(),
            overload: storm_overload(),
        };

        let model = zoo::deepseek_v3();
        let mem_plan = MemPlan::deepseek_v3_production();
        let ckpt = CheckpointBytes::from_footprint(&memtl::checkpoint(t, &model, &mem_plan));
        let mtbf = ComponentMtbf::production();
        let horizon_s = HORIZON_DAYS * 86_400.0;
        let fleets = FLEETS
            .iter()
            .map(|&gpus| {
                let spec = FleetSpec::with_gpus(gpus);
                let sys_mtbf_s = system_mtbf_s(&spec, &mtbf);
                Fleet {
                    gpus,
                    failures: faults::failures(t, &spec, &mtbf, seed, 2.0 * horizon_s),
                    arms: resilience_arms(gpus, ckpt, sys_mtbf_s, seed),
                }
            })
            .collect();
        // Warm-up: a short serving run and one timeline walk.
        let mut warm = healthy.clone();
        warm.cfg.workload.requests = 200;
        let _ = serving::run(t, "serving.run.warmup", &warm, &mut Recorder::disabled());
        let _ = memtl::timeline(t, &model, &mem_plan);
        Inputs { healthy, storm, fleets, model, mem_plan }
    }

    fn input_digest(i: &Inputs) -> Digest {
        let mut d = Digest::default();
        d.u64(i.healthy.cfg.workload.seed);
        for e in &i.storm.plan.events {
            d.f64(e.at_ms);
            d.str(e.kind.label());
        }
        for f in &i.fleets {
            d.u64(f.failures.len() as u64);
            f.failures.iter().for_each(|x| d.f64(x.at_s));
        }
        d
    }

    fn pass(i: &Inputs, t: &mut Tracer, out: &mut Outcome) {
        // Serving: healthy, storm, and the storm again with a recorder.
        let healthy = serving::run(t, "serving.run.healthy", &i.healthy, &mut Recorder::disabled());
        let storm = serving::run(t, "serving.run.storm", &i.storm, &mut Recorder::disabled());
        let mut rec = Recorder::new();
        rec.set_max_events(AUDIT_MAX_EVENTS);
        let audited = serving::run(t, "serving.run.audited", &i.storm, &mut rec);
        let incidents = telemetry::evaluate_watch(t, "serve-fleet", &rec);
        let trace = telemetry::export_trace(t, &rec);

        let (mut requests, mut steps, mut retries, mut sheds, mut preempt) = (0, 0, 0, 0, 0);
        let (mut good, mut offered) = (0.0, 0.0);
        for (name, r) in [("healthy", &healthy), ("storm", &storm), ("audited", &audited)] {
            let s = &r.serving;
            digest_serving(&mut out.digest, r);
            let settled = s.completed
                + s.dropped
                + r.faults.rejected
                + r.overload.rejected
                + r.faults.unfinished;
            out.checks.op(
                &format!("serving.run.{name}: {settled} settled of {}", s.requests),
                &[
                    (settled == s.requests, "request conservation"),
                    (s.goodput_rps.is_finite(), "finite goodput"),
                ],
            );
            requests += s.requests;
            steps += s.decode_steps;
            retries += r.overload.client_retries + r.faults.retries;
            sheds += shed(r);
            preempt += s.preemptions;
            good += s.slo_attainment * s.requests as f64;
            offered += r.overload.offered_attempts.max(s.requests) as f64;
        }
        // Debug output prints every float exactly, so equal strings mean
        // bit-identical reports.
        out.checks.op(
            "serving.run.audited",
            &[(
                format!("{audited:?}") == format!("{storm:?}"),
                "recording leaves the report unchanged",
            )],
        );
        let incidents = incidents.to_json();
        out.digest.str(&incidents);
        out.digest.u64(trace.len() as u64);
        out.checks.op("telemetry.evaluate", &[(!incidents.is_empty(), "report renders")]);
        out.checks.op("telemetry.export_trace", &[(!rec.events().is_empty(), "events recorded")]);

        // Resilience: every fleet size under every policy arm.
        let mut failures = 0;
        for f in &i.fleets {
            let mut goodputs = Vec::new();
            for (policy, cfg) in &f.arms {
                let what = format!("faults.resilience {} GPUs {policy}", f.gpus);
                match faults::resilience(t, cfg, &f.failures) {
                    Ok(r) => {
                        out.digest.f64s(&[r.goodput, r.mean_ettr_s, r.useful_s, r.wall_s]);
                        out.digest.u64(r.failures as u64);
                        failures += r.failures;
                        out.checks.op(
                            &what,
                            &[(r.goodput > 0.0 && r.goodput <= 1.0, "goodput in (0, 1]")],
                        );
                        goodputs.push(r.goodput);
                    }
                    Err(e) => {
                        out.checks.op(&format!("{what}: {e:?}"), &[(false, "walk succeeds")]);
                        goodputs.push(f64::NAN);
                    }
                }
            }
            // Arms 1 and 2: cold restart and spare pool on the same tiers.
            out.checks.op(
                &format!("faults.resilience {} GPUs spare vs cold", f.gpus),
                &[(goodputs[2] >= goodputs[1], "spare pool >= cold restart")],
            );
        }

        // Memory timeline of the production plan, and the fit frontier.
        let tl = memtl::timeline(t, &i.model, &i.mem_plan);
        let spec = GpuSpec::h800();
        out.digest.f64s(&[tl.peak_gb, tl.step_time_s]);
        out.digest.u64(tl.chunk_events as u64);
        out.checks.op(
            &format!("memtl.simulate: peak {:.2} GB", tl.peak_gb),
            &[(tl.peak_gb <= spec.budget_gb(), "production peak <= usable HBM")],
        );
        let q = FrontierQuery { gpus: FRONTIER_GPUS, spec };
        let fr = memtl::frontier(t, &i.model, &i.mem_plan, &q);
        out.digest.u64(fr.max_layers as u64);
        out.digest.f64s(&[fr.params_b, fr.peak_gb]);
        out.checks.op("memtl.frontier", &[(fr.max_layers > 0, "some depth fits")]);

        let counts = [
            ("serving.requests", requests as f64),
            ("serving.decode_steps", steps as f64),
            ("serving.retries", retries as f64),
            ("serving.shed", sheds as f64),
            ("serving.preemptions", preempt as f64),
            ("serving.goodput_ratio", good / offered),
            ("serving.fast_requests", (healthy.serving.requests + storm.serving.requests) as f64),
            (
                "serving.fast_decode_steps",
                (healthy.serving.decode_steps + storm.serving.decode_steps) as f64,
            ),
            ("telemetry.events", rec.events().len() as f64),
            ("telemetry.dropped_events", rec.dropped_events() as f64),
            ("faults.failures", failures as f64),
            ("memtl.chunk_events", tl.chunk_events as f64),
        ];
        out.counts.extend(counts);
    }

    fn layer_metrics(_setup: &Tracer, t: &Tracer, out: &Outcome) -> BTreeMap<&'static str, f64> {
        let c = &out.counts;
        let fast_s = t.total_s("serving.run.healthy") + t.total_s("serving.run.storm");
        let mut m = BTreeMap::from([
            ("serving.run_s.healthy", t.total_s("serving.run.healthy")),
            ("serving.run_s.storm", t.total_s("serving.run.storm")),
            ("serving.run_s.audited", t.total_s("serving.run.audited")),
            ("serving.ns_per_request", fast_s * 1e9 / c["serving.fast_requests"]),
            ("serving.ns_per_decode_step", fast_s * 1e9 / c["serving.fast_decode_steps"]),
            ("telemetry.evaluate_s", t.total_s("telemetry.evaluate")),
            ("telemetry.export_trace_s", t.total_s("telemetry.export_trace")),
            (
                "telemetry.recorder_overhead_ratio",
                t.total_s("serving.run.audited") / t.total_s("serving.run.storm"),
            ),
            ("faults.resilience_s", t.total_s("faults.resilience")),
            ("memtl.simulate_s", t.total_s("memtl.simulate")),
            ("memtl.ns_per_event", t.total_s("memtl.simulate") * 1e9 / c["memtl.chunk_events"]),
            ("memtl.frontier_s", t.total_s("memtl.frontier")),
        ]);
        m.extend(c.iter().filter(|(k, _)| !k.starts_with("serving.fast_")).map(|(k, v)| (*k, *v)));
        m
    }
}
