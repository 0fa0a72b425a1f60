//! `fabric-chaos`: PXN all-to-all on the multi-plane fat-tree at 128 and
//! 256 GPUs while one plane dies mid-transfer and, at the same instant, a
//! seeded fraction of the surviving planes' NIC links flaps, under each
//! reroute policy.
//!
//! The same `netsim` layer as `ep-fabric`, used differently: time-varying
//! link state, rerouting, retransmits and stranding. A change that speeds
//! up the clean solver path but slows the failure path shows here.

use std::collections::BTreeMap;

use dsv3_collectives::Cluster;
use dsv3_netsim::chaos::RetransmitConfig;
use dsv3_netsim::{ChaosConfig, LinkSchedule, ReroutePolicy};

use crate::check::Digest;
use crate::layers::{collectives, netsim, topology};
use crate::trace::Tracer;
use crate::{Outcome, Workload};

/// Cluster sizes in 8-GPU nodes: 128 and 256 GPUs. All nodes share one
/// leaf per plane, so every inter-node path is NIC → leaf → NIC.
const NODES: [usize; 2] = [16, 32];

/// Bytes every GPU sends to every other GPU.
const BYTES_PER_PEER: f64 = 256.0 * 1024.0;

/// Independent sub-flows per inter-node leg (the retry granularity).
const CHUNKS: usize = 1;

/// The plane that dies. Planes are interchangeable in the fabric; a fixed
/// one keeps `StaticRehash`'s hash outcomes, and so the work, from varying
/// with the seed.
const DEAD_PLANE: usize = 5;

/// Every failure strikes at this share of the healthy completion time; the
/// plane stays down for the rest of the run.
const FAIL_AT: f64 = 0.3;

/// Seeded share of the surviving planes' NIC links that flap, and how long
/// they stay down (share of the healthy time). At up to 32 nodes no path
/// crosses a leaf-spine trunk, so the NIC links are where a partial
/// failure can land.
const NIC_FLAP_FRACTION: f64 = 0.01;
const NIC_FLAP_FOR: f64 = 0.5;

/// Per-flow deadline as a multiple of the healthy completion time.
const DEADLINE: f64 = 4.0;

/// `StaticRehash` salt: part of the fabric, not of the seeded inputs.
const REHASH_SALT: u64 = 0x5eed;

/// Retries before a flow strands.
const MAX_RETRIES: u32 = 4;

pub struct FabricChaos;

pub struct Point {
    cluster: Cluster,
    /// One chaos configuration per reroute policy: (span name, config).
    arms: Vec<(&'static str, ChaosConfig)>,
}

pub struct Inputs {
    points: Vec<Point>,
}

/// Bytes `alltoall_pxn_chaos` must deliver on `c`: the NVLink exchange,
/// the PXN forwarding legs and the inter-node legs.
fn payload_bytes(c: &Cluster) -> f64 {
    let (n, l) = (c.cfg.nodes as f64, c.cfg.gpus_per_node as f64);
    let nvlink = n * l * (l - 1.0) * BYTES_PER_PEER;
    let forward = nvlink * (n - 1.0);
    let inter = n * (n - 1.0) * l * BYTES_PER_PEER * l;
    nvlink + forward + inter
}

impl Workload for FabricChaos {
    type Inputs = Inputs;
    const NAME: &'static str = "fabric-chaos";

    fn setup(seed: u64, t: &mut Tracer) -> Inputs {
        let points = NODES
            .iter()
            .map(|&nodes| {
                let cluster = topology::mpft_cluster(t, nodes);
                // Warm-up, and the clock every failure time is scaled to.
                let healthy_us = collectives::pxn(t, &cluster, BYTES_PER_PEER).time_us;
                let planes = cluster.cfg.gpus_per_node;
                let plane = netsim::fail_links(
                    t,
                    &cluster.plane_links(DEAD_PLANE),
                    FAIL_AT * healthy_us,
                    f64::INFINITY,
                );
                let cfg = |schedule: &LinkSchedule, policy| ChaosConfig {
                    schedule: schedule.clone(),
                    policy,
                    retransmit: RetransmitConfig {
                        max_retries: MAX_RETRIES,
                        ..RetransmitConfig::default()
                    },
                    deadline_us: Some(DEADLINE * healthy_us),
                };
                // Warm the chaos path too, on the plane failure alone so the
                // warm-up's work does not depend on the seed. Without it
                // set-up was a 7 ms figure whose median moved by a quarter
                // between two sets of runs of the same code.
                if nodes == NODES[NODES.len() - 1] {
                    let warm = cfg(&plane, ReroutePolicy::Adaptive);
                    let _ = collectives::pxn_chaos(
                        t,
                        "collectives.pxn_chaos.warmup",
                        &cluster,
                        BYTES_PER_PEER,
                        CHUNKS,
                        &warm,
                    );
                }
                let nics: Vec<usize> = (0..nodes)
                    .flat_map(|n| (0..planes).filter(|p| *p != DEAD_PLANE).map(move |p| (n, p)))
                    .flat_map(|(n, p)| [cluster.nic_up(n, p), cluster.nic_down(n, p)])
                    .collect();
                let flaps = netsim::fail_fraction(
                    t,
                    &nics,
                    NIC_FLAP_FRACTION,
                    seed,
                    FAIL_AT * healthy_us,
                    NIC_FLAP_FOR * healthy_us,
                );
                let mut sched = plane;
                sched.flaps.extend(flaps.flaps);
                let arms = vec![
                    ("collectives.pxn_chaos.stall", cfg(&sched, ReroutePolicy::Stall)),
                    (
                        "collectives.pxn_chaos.rehash",
                        cfg(&sched, ReroutePolicy::StaticRehash { seed: REHASH_SALT }),
                    ),
                    ("collectives.pxn_chaos.adaptive", cfg(&sched, ReroutePolicy::Adaptive)),
                ];
                Point { cluster, arms }
            })
            .collect();
        Inputs { points }
    }

    fn input_digest(i: &Inputs) -> Digest {
        let mut d = Digest::default();
        for p in &i.points {
            for f in &p.arms[0].1.schedule.flaps {
                d.u64(f.link as u64);
                d.f64s(&[f.down_at_us, f.repair_us]);
            }
        }
        d
    }

    fn pass(i: &Inputs, t: &mut Tracer, out: &mut Outcome) {
        let (mut flows, mut reroutes, mut retries, mut stranded) = (0u64, 0u64, 0u64, 0u64);
        let (mut payload, mut resent) = (0.0, 0.0);
        for p in &i.points {
            let gpus = p.cluster.cfg.gpus();
            let h = collectives::pxn(t, &p.cluster, BYTES_PER_PEER);
            out.digest.f64s(&[h.time_us, h.algbw_gbps, h.busbw_gbps]);
            out.checks.op(
                &format!("collectives.pxn_healthy g{gpus}"),
                &[(h.time_us.is_finite() && h.time_us > 0.0, "positive finite time")],
            );
            for (name, cfg) in &p.arms {
                let r = collectives::pxn_chaos(t, name, &p.cluster, BYTES_PER_PEER, CHUNKS, cfg);
                out.digest.f64s(&[r.chaos_time_us, r.slowdown, r.retransmitted_bytes]);
                for n in [r.total_flows, r.stranded_flows] {
                    out.digest.u64(n as u64);
                }
                out.digest.u64(r.reroutes);
                out.digest.u64(r.retries);
                let adaptive = matches!(cfg.policy, ReroutePolicy::Adaptive);
                out.checks.op(
                    &format!("{name} g{gpus}: stranded {}", r.stranded_flows),
                    &[
                        (r.bytes_balanced, "bytes balanced"),
                        (!adaptive || r.stranded_flows == 0, "adaptive strands nothing"),
                        (r.chaos_time_us.is_finite(), "finite completion time"),
                    ],
                );
                flows += r.total_flows as u64;
                reroutes += r.reroutes;
                retries += r.retries;
                stranded += r.stranded_flows as u64;
                payload += payload_bytes(&p.cluster);
                resent += r.retransmitted_bytes;
            }
        }
        out.counts.insert("netsim.chaos_flows", flows as f64);
        out.counts.insert("netsim.chaos_reroutes", reroutes as f64);
        out.counts.insert("netsim.chaos_retries", retries as f64);
        out.counts.insert("netsim.chaos_stranded", stranded as f64);
        out.counts.insert("netsim.chaos_useful_bytes_ratio", payload / (payload + resent));
    }

    fn layer_metrics(_setup: &Tracer, t: &Tracer, out: &Outcome) -> BTreeMap<&'static str, f64> {
        let chaos_s = t.prefix_s("collectives.pxn_chaos.");
        let mut m = BTreeMap::from([
            ("collectives.pxn_healthy_s", t.total_s("collectives.pxn_healthy")),
            ("collectives.pxn_chaos_s.stall", t.total_s("collectives.pxn_chaos.stall")),
            ("collectives.pxn_chaos_s.rehash", t.total_s("collectives.pxn_chaos.rehash")),
            ("collectives.pxn_chaos_s.adaptive", t.total_s("collectives.pxn_chaos.adaptive")),
            ("netsim.chaos_ns_per_flow", chaos_s * 1e9 / out.counts["netsim.chaos_flows"]),
        ]);
        m.extend(
            out.counts.iter().filter(|(k, _)| **k != "netsim.chaos_flows").map(|(k, v)| (*k, *v)),
        );
        m
    }
}
