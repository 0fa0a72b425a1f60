//! `ep-fabric`: DeepEP dispatch and combine rounds on the multi-plane
//! fat-tree at 32, 64, 128 and 256 GPUs, 1024 tokens per GPU.
//!
//! This is the clean max-min flow-solver path, with no `numerics` work.
//! The solver's cost grows super-linearly with the cluster, so the
//! 256-over-128 ratio shows whether a solver change fixes the scaling or
//! only the constant factor.

use std::collections::BTreeMap;

use dsv3_collectives::deepep::{EpConfig, EpTraffic};
use dsv3_collectives::Cluster;

use crate::check::Digest;
use crate::layers::{collectives, topology};
use crate::trace::Tracer;
use crate::{Outcome, Workload};

/// Cluster sizes in 8-GPU nodes: 32, 64, 128 and 256 GPUs.
const NODES: [usize; 4] = [4, 8, 16, 32];

/// Tokens each GPU dispatches per round.
const TOKENS_PER_GPU: usize = 1024;

/// Figure 7's bandwidth floor, GB/s per GPU, which holds up to 128 GPUs.
const FIG7_MIN_GBPS: f64 = 36.0;

pub struct EpFabric;

pub struct Inputs {
    ep: EpConfig,
    points: Vec<(Cluster, EpTraffic)>,
}

/// Flows `deepep::run_round` issues for `traffic`: one per plane for each
/// node pair with IB copies, one per GPU pair with NVLink copies.
fn round_flows(c: &Cluster, traffic: &EpTraffic) -> u64 {
    let planes = c.cfg.gpus_per_node as u64;
    let ib: u64 = traffic
        .ib_copies
        .iter()
        .enumerate()
        .flat_map(|(a, row)| row.iter().enumerate().filter(move |(b, n)| a != *b && **n > 0))
        .map(|_| planes)
        .sum();
    let nvl = traffic
        .nvl_copies
        .iter()
        .flat_map(|m| m.iter().enumerate())
        .flat_map(|(i, row)| row.iter().enumerate().filter(move |(j, n)| i != *j && **n > 0))
        .count() as u64;
    ib + nvl
}

fn round_name(gpus: usize) -> String {
    format!("collectives.deepep_round.g{gpus}")
}

impl Workload for EpFabric {
    type Inputs = Inputs;
    const NAME: &'static str = "ep-fabric";

    fn setup(seed: u64, t: &mut Tracer) -> Inputs {
        let ep = EpConfig { tokens_per_gpu: TOKENS_PER_GPU, seed, ..EpConfig::deepseek_v3() };
        let points: Vec<(Cluster, EpTraffic)> = NODES
            .iter()
            .map(|&n| {
                let c = topology::mpft_cluster(t, n);
                let traffic = collectives::traffic(t, &c, &ep);
                (c, traffic)
            })
            .collect();
        // Warm-up: one dispatch round on the smallest cluster.
        let (c, traffic) = &points[0];
        let _ = collectives::deepep_round(t, "collectives.deepep_round.warmup", c, traffic, 1.0);
        Inputs { ep, points }
    }

    fn input_digest(i: &Inputs) -> Digest {
        let mut d = Digest::default();
        for (c, traffic) in &i.points {
            d.u64(c.cfg.gpus() as u64);
            d.u64(traffic.assignments);
            traffic.ib_copies.iter().flatten().for_each(|n| d.u64(*n));
            traffic.nvl_copies.iter().flatten().flatten().for_each(|n| d.u64(*n));
        }
        d
    }

    fn pass(i: &Inputs, t: &mut Tracer, out: &mut Outcome) {
        let hidden = i.ep.hidden as f64;
        for (c, traffic) in &i.points {
            let gpus = c.cfg.gpus();
            let name = round_name(gpus);
            // FP8 dispatch (1 byte/element), then BF16 combine (2 bytes).
            for (phase, bytes) in [("dispatch", hidden), ("combine", 2.0 * hidden)] {
                let r = collectives::deepep_round(t, &name, c, traffic, bytes);
                out.digest.f64s(&[r.time_us, r.algbw_gbps, r.busbw_gbps]);
                let fig7 = gpus > 128 || r.algbw_gbps > FIG7_MIN_GBPS;
                out.checks.op(
                    &format!("{name} {phase}: {:.1} GB/s", r.algbw_gbps),
                    &[
                        (r.time_us.is_finite() && r.time_us > 0.0, "positive finite time"),
                        (fig7, "DeepEP > 36 GB/s per GPU up to 128 GPUs"),
                    ],
                );
            }
            if gpus == 256 {
                out.counts.insert("netsim.flows.g256", 2.0 * round_flows(c, traffic) as f64);
            }
        }
    }

    fn layer_metrics(setup: &Tracer, t: &Tracer, out: &Outcome) -> BTreeMap<&'static str, f64> {
        let g = |gpus: usize| t.total_s(&round_name(gpus));
        let flows = out.counts.get("netsim.flows.g256").copied().unwrap_or(f64::NAN);
        BTreeMap::from([
            ("topology.cluster_build_s", setup.total_s("topology.cluster_build")),
            ("collectives.traffic_gen_s", setup.total_s("collectives.traffic_gen")),
            ("collectives.deepep_round_s.g32", g(32)),
            ("collectives.deepep_round_s.g64", g(64)),
            ("collectives.deepep_round_s.g128", g(128)),
            ("collectives.deepep_round_s.g256", g(256)),
            ("netsim.flows.g256", flows),
            ("netsim.ns_per_flow.g256", g(256) * 1e9 / flows),
            ("netsim.round_scaling_g256_over_g128", g(256) / g(128)),
        ])
    }
}
