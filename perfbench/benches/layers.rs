//! One adapter module per layer: the only place the benchmark calls into
//! the simulator crates. Every call runs inside a span of the layer it
//! enters, so a traced pass attributes host time to layers, and a reshape
//! of a layer's public surface changes one call site here.

use crate::trace::Tracer;

/// `dsv3-numerics`: the FP8 codec and the emulated tensor-core GEMM.
pub mod numerics {
    use super::Tracer;
    use dsv3_numerics::gemm::{gemm_fp8, gemm_fp8_per_tensor, Fp8GemmConfig, MainAccumulator};
    use dsv3_numerics::minifloat::Format;
    use dsv3_numerics::tensorcore::{align_truncate_sum, MMA_K};
    use dsv3_numerics::Matrix;

    /// Fine-grained FP8 GEMM with the given main accumulator (K-sweep).
    pub fn gemm(t: &mut Tracer, a: &Matrix, b: &Matrix, acc: MainAccumulator) -> Matrix {
        let cfg = Fp8GemmConfig { main_acc: acc, ..Fp8GemmConfig::default() };
        t.call("numerics", "numerics.k_sweep", || gemm_fp8(a, b, cfg))
    }

    /// Per-tensor-scaled E4M3 GEMM (K-sweep baseline).
    pub fn gemm_per_tensor(t: &mut Tracer, a: &Matrix, b: &Matrix) -> Matrix {
        t.call("numerics", "numerics.k_sweep", || gemm_fp8_per_tensor(a, b, Format::E4M3))
    }

    /// `Format::encode` of every element into E4M3 codes.
    pub fn e4m3_encode(t: &mut Tracer, xs: &[f64]) -> Vec<u32> {
        t.call("numerics", "numerics.e4m3_encode", || {
            xs.iter().map(|x| Format::E4M3.encode(*x)).collect()
        })
    }

    /// `Format::decode` of every E4M3 code.
    pub fn e4m3_decode(t: &mut Tracer, codes: &[u32]) -> Vec<f64> {
        t.call("numerics", "numerics.e4m3_decode", || {
            codes.iter().map(|c| Format::E4M3.decode(*c)).collect()
        })
    }

    /// `Format::quantize` of every element to `format` under span `name`.
    pub fn quantize(t: &mut Tracer, name: &str, format: Format, xs: &[f64]) -> Vec<f64> {
        t.call("numerics", name, || xs.iter().map(|x| format.quantize(*x)).collect())
    }

    /// One `align_truncate_sum` per consecutive run of [`MMA_K`] products.
    pub fn align_truncate_sums(t: &mut Tracer, products: &[f64]) -> Vec<f64> {
        t.call("numerics", "numerics.align_truncate_sum", || {
            products.chunks(MMA_K).map(align_truncate_sum).collect()
        })
    }
}

/// `dsv3-model`: the §2.4 trainer and its GEMM dispatch.
pub mod model {
    use super::Tracer;
    use dsv3_model::train::{self, Precision, TrainConfig, TrainReport};
    use dsv3_numerics::Matrix;

    /// Train the MLP with one precision backend under span `name`.
    pub fn train(t: &mut Tracer, name: &str, p: Precision, cfg: TrainConfig) -> TrainReport {
        t.call("model", name, || train::train(p, cfg))
    }

    /// One-step gradient fidelity probe under activation outliers.
    pub fn gradient_probe(t: &mut Tracer, p: Precision, outlier_scale: f32, seed: u64) -> f64 {
        t.call("model", "model.gradient_probe", || train::gradient_probe(p, outlier_scale, seed))
    }

    /// One trainer GEMM through the backend `p` under span `name`.
    pub fn gemm(t: &mut Tracer, name: &str, a: &Matrix, b: &Matrix, p: Precision) -> Matrix {
        t.call("model", name, || train::gemm(a, b, p))
    }
}

/// `dsv3-topology`, materialized: the H800 cluster's link table.
pub mod topology {
    use super::Tracer;
    use dsv3_collectives::{Cluster, ClusterConfig, FabricKind};

    /// Build the multi-plane fat-tree cluster of `nodes` 8-GPU nodes.
    pub fn mpft_cluster(t: &mut Tracer, nodes: usize) -> Cluster {
        t.call("topology", "topology.cluster_build", || {
            Cluster::new(ClusterConfig::h800(nodes, FabricKind::MultiPlane))
        })
    }
}

/// `dsv3-collectives`: DeepEP and PXN all-to-all over the flow simulator.
pub mod collectives {
    use super::Tracer;
    use dsv3_collectives::alltoall::{alltoall_pxn, alltoall_pxn_chaos, ChaosAllToAllReport};
    use dsv3_collectives::deepep::{generate_traffic, run_round, EpConfig, EpTraffic};
    use dsv3_collectives::{Cluster, CollectiveReport};
    use dsv3_netsim::ChaosConfig;

    /// Node-limited routed EP traffic for every token on every GPU.
    pub fn traffic(t: &mut Tracer, c: &Cluster, cfg: &EpConfig) -> EpTraffic {
        t.call("collectives", "collectives.traffic_gen", || generate_traffic(c, cfg))
    }

    /// One DeepEP dispatch or combine round under span `name`.
    pub fn deepep_round(
        t: &mut Tracer,
        name: &str,
        c: &Cluster,
        traffic: &EpTraffic,
        bytes_per_copy: f64,
    ) -> CollectiveReport {
        t.call("collectives", name, || run_round(c, traffic, bytes_per_copy))
    }

    /// PXN all-to-all over the healthy fabric.
    pub fn pxn(t: &mut Tracer, c: &Cluster, bytes_per_peer: f64) -> CollectiveReport {
        t.call("collectives", "collectives.pxn_healthy", || alltoall_pxn(c, bytes_per_peer))
    }

    /// PXN all-to-all over a failing fabric under span `name`.
    pub fn pxn_chaos(
        t: &mut Tracer,
        name: &str,
        c: &Cluster,
        bytes_per_peer: f64,
        chunks: usize,
        cfg: &ChaosConfig,
    ) -> ChaosAllToAllReport {
        t.call("collectives", name, || alltoall_pxn_chaos(c, bytes_per_peer, chunks, cfg))
    }
}

/// `dsv3-netsim`: link failure schedules for the chaos engine.
pub mod netsim {
    use super::Tracer;
    use dsv3_netsim::LinkSchedule;

    /// Every link in `links` fails at `down_at_us` for `repair_us`.
    pub fn fail_links(
        t: &mut Tracer,
        links: &[usize],
        down_at_us: f64,
        repair_us: f64,
    ) -> LinkSchedule {
        t.call("netsim", "netsim.schedule", || {
            LinkSchedule::fail_links(links, down_at_us, repair_us)
        })
    }

    /// A seeded `fraction` of `candidates` fails at `down_at_us` for `repair_us`.
    pub fn fail_fraction(
        t: &mut Tracer,
        candidates: &[usize],
        fraction: f64,
        seed: u64,
        down_at_us: f64,
        repair_us: f64,
    ) -> LinkSchedule {
        t.call("netsim", "netsim.schedule", || {
            LinkSchedule::fail_fraction(candidates, fraction, seed, down_at_us, repair_us)
        })
    }
}

/// `dsv3-serving`: the request-level engine.
pub mod serving {
    use super::Tracer;
    use dsv3_faults::{FaultPlan, RecoveryPolicy};
    use dsv3_serving::{
        run_overload_traced, OverloadConfig, OverloadServingReport, ServingSimConfig,
    };
    use dsv3_telemetry::Recorder;

    /// Everything one serving run needs besides its recorder.
    #[derive(Debug, Clone)]
    pub struct Scenario {
        /// Engine, workload and SLO.
        pub cfg: ServingSimConfig,
        /// Faults injected into the run.
        pub plan: FaultPlan,
        /// Crash recovery policy.
        pub policy: RecoveryPolicy,
        /// Overload layer (all off for the plain engine).
        pub overload: OverloadConfig,
    }

    /// Run `s` under span `name`, recording into `rec` (a disabled
    /// recorder leaves the run byte-identical to the untraced engine).
    pub fn run(
        t: &mut Tracer,
        name: &str,
        s: &Scenario,
        rec: &mut Recorder,
    ) -> OverloadServingReport {
        t.call("serving", name, || {
            run_overload_traced(&s.cfg, &s.plan, &s.policy, &s.overload, rec, "fleet")
        })
    }
}

/// `dsv3-faults`: fault plans, fleet failure timelines, the resilience walker.
pub mod faults {
    use super::Tracer;
    use dsv3_faults::{
        generate_failures, simulate_resilience, ComponentMtbf, FaultPlan, FaultPlanConfig,
        FleetFailure, FleetSpec, ResilienceConfig, ResilienceError, ResilienceReport,
    };

    /// Seeded serving fault plan.
    pub fn plan(t: &mut Tracer, cfg: &FaultPlanConfig) -> FaultPlan {
        t.call("faults", "faults.plan", || FaultPlan::generate(cfg))
    }

    /// Seeded fleet failure timeline over `horizon_s`.
    pub fn failures(
        t: &mut Tracer,
        spec: &FleetSpec,
        mtbf: &ComponentMtbf,
        seed: u64,
        horizon_s: f64,
    ) -> Vec<FleetFailure> {
        t.call("faults", "faults.failures", || generate_failures(spec, mtbf, seed, horizon_s))
    }

    /// Walk one resilience cell against a failure timeline.
    pub fn resilience(
        t: &mut Tracer,
        cfg: &ResilienceConfig,
        failures: &[FleetFailure],
    ) -> Result<ResilienceReport, ResilienceError> {
        t.call("faults", "faults.resilience", || simulate_resilience(cfg, failures))
    }
}

/// `dsv3-telemetry`: the watchdog and the trace exporter.
pub mod telemetry {
    use super::Tracer;
    use dsv3_telemetry::{evaluate, IncidentReport, Recorder, WatchConfig};

    /// Replay the recorded series through the detector suite.
    pub fn evaluate_watch(t: &mut Tracer, experiment: &str, rec: &Recorder) -> IncidentReport {
        t.call("telemetry", "telemetry.evaluate", || {
            evaluate(experiment, rec, &WatchConfig::default())
        })
    }

    /// Export the recorded events as Chrome trace JSON.
    pub fn export_trace(t: &mut Tracer, rec: &Recorder) -> String {
        t.call("telemetry", "telemetry.export_trace", || rec.export_trace().to_json())
    }
}

/// `dsv3-memtl`: the training memory timeline walker.
pub mod memtl {
    use super::Tracer;
    use dsv3_memtl::{
        checkpoint_footprint, largest_fitting, simulate, CheckpointFootprint, FrontierQuery,
        FrontierRow, MemPlan, TimelineReport,
    };
    use dsv3_model::ModelConfig;

    /// Per-rank checkpoint footprint of `plan`.
    pub fn checkpoint(t: &mut Tracer, cfg: &ModelConfig, plan: &MemPlan) -> CheckpointFootprint {
        t.call("memtl", "memtl.checkpoint", || checkpoint_footprint(cfg, plan))
    }

    /// Walk the timeline of `plan` applied to `cfg`.
    pub fn timeline(t: &mut Tracer, cfg: &ModelConfig, plan: &MemPlan) -> TimelineReport {
        t.call("memtl", "memtl.simulate", || simulate(cfg, plan))
    }

    /// Deepest `cfg` variant that fits the query's fleet.
    pub fn frontier(
        t: &mut Tracer,
        cfg: &ModelConfig,
        plan: &MemPlan,
        q: &FrontierQuery,
    ) -> FrontierRow {
        t.call("memtl", "memtl.frontier", || largest_fitting(cfg, plan, q))
    }
}
