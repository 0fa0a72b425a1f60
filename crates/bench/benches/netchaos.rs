//! Benchmark the flow simulators: ChaosSim vs FlowSim on an identical
//! fault-free workload (pricing the retransmit machinery, with a
//! bit-identity assert first so the comparison is honest), ChaosSim
//! under a flapping schedule, a DeepEP dispatch round on a 128-GPU
//! multi-plane cluster, and the full net-chaos registry sweep.
//!
//! Writes `BENCH_netchaos.json` at the repo root in the shared
//! `{"bench", "metrics"}` schema. The two FlowSim rows bracket its
//! component-scoped solve: the 128-flow instance ties its links into
//! one component, so every event re-solves everything (the case that
//! must not slow down), while the DeepEP round splits into one
//! component per plane and per node's NVLink domain (the case that
//! gains).

use criterion::{criterion_group, criterion_main, Criterion};
use dsv3_core::collectives::deepep::{generate_traffic, run_round, EpConfig, EpTraffic};
use dsv3_core::collectives::{Cluster, ClusterConfig, FabricKind};
use dsv3_core::experiments::net_chaos;
use dsv3_core::netsim::chaos::{ChaosConfig, LinkFlap, LinkSchedule, ReroutePolicy};
use dsv3_core::netsim::{ChaosSim, FlowSim, Link};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const LINKS: usize = 64;
const FLOWS: usize = 128;
const BYTES: f64 = 25e6;

fn links() -> Vec<Link> {
    (0..LINKS).map(|l| Link { capacity_gbps: 40.0 + (l % 5) as f64 * 20.0 }).collect()
}

/// Deterministic 3-hop paths with distinct links (a path must not cross
/// the same link twice or load accounting double-counts).
fn path(f: usize) -> Vec<usize> {
    let set: BTreeSet<usize> =
        [f % LINKS, (f * 7 + 3) % LINKS, (f * 13 + 11) % LINKS].into_iter().collect();
    set.into_iter().collect()
}

fn flow_sim() -> FlowSim {
    let mut sim = FlowSim::new(links());
    for f in 0..FLOWS {
        sim.add_flow(path(f), BYTES, 0.0, 2.0);
    }
    sim
}

fn chaos_sim() -> ChaosSim {
    let mut sim = ChaosSim::new(links());
    for f in 0..FLOWS {
        sim.add_flow(vec![path(f)], BYTES, 0.0, 2.0);
    }
    sim
}

/// `Stall` on the home path with an empty schedule: the configuration
/// under which ChaosSim promises bit-identity with FlowSim.
fn fault_free() -> ChaosConfig {
    ChaosConfig { policy: ReroutePolicy::Stall, ..ChaosConfig::default() }
}

fn flapping() -> ChaosConfig {
    let flaps = (0..16)
        .map(|i| LinkFlap {
            link: (i * 11 + 5) % LINKS,
            down_at_us: 50.0 + i as f64 * 40.0,
            repair_us: 300.0,
        })
        .collect();
    ChaosConfig { schedule: LinkSchedule { flaps }, ..ChaosConfig::default() }
}

/// 16 nodes × 8 GPUs on the multi-plane fat-tree with DeepSeek-V3
/// routing at 1024 tokens per GPU: the dispatch round's traffic.
fn deepep_g128() -> (Cluster, EpTraffic, f64) {
    let cluster = Cluster::new(ClusterConfig::h800(16, FabricKind::MultiPlane));
    let cfg = EpConfig { tokens_per_gpu: 1024, ..EpConfig::deepseek_v3() };
    let traffic = generate_traffic(&cluster, &cfg);
    (cluster, traffic, cfg.hidden as f64)
}

/// Best-of-`samples` per-iteration nanoseconds for `f`.
fn time_ns<O>(samples: u32, iters: u32, mut f: impl FnMut() -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
        if ns < best {
            best = ns;
        }
    }
    best
}

fn bench_netchaos(c: &mut Criterion) {
    println!("{}", net_chaos::render());

    // Byte-identity gate: a fault-free ChaosSim run must reproduce the
    // FlowSim result bit-for-bit, or the overhead comparison below is
    // comparing different physics.
    let base = flow_sim().run();
    let chaos = chaos_sim().run(&fault_free());
    let chaos_as_sim = chaos.to_sim_report().expect("fault-free run completes every flow");
    assert_eq!(base.makespan_us.to_bits(), chaos_as_sim.makespan_us.to_bits());
    assert_eq!(base.finish_us.len(), chaos_as_sim.finish_us.len());
    for (a, b) in base.finish_us.iter().zip(&chaos_as_sim.finish_us) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    let mut g = c.benchmark_group("netchaos");
    g.sample_size(10);
    g.bench_function("flowsim_128_flows", |b| b.iter(|| black_box(flow_sim().run())));
    let (cluster, traffic, bytes_per_copy) = deepep_g128();
    g.bench_function("deepep_g128_round", |b| {
        b.iter(|| black_box(run_round(&cluster, &traffic, bytes_per_copy)))
    });
    g.bench_function("chaossim_128_flows_fault_free", |b| {
        let cfg = fault_free();
        b.iter(|| black_box(chaos_sim().run(&cfg)))
    });
    g.bench_function("chaossim_128_flows_flapping", |b| {
        let cfg = flapping();
        b.iter(|| black_box(chaos_sim().run(&cfg)))
    });
    g.bench_function("net_chaos_full_sweep", |b| b.iter(|| black_box(net_chaos::run())));
    g.finish();

    let flowsim_ns = time_ns(5, 8, || flow_sim().run());
    let deepep_ns = time_ns(3, 1, || run_round(&cluster, &traffic, bytes_per_copy));
    let cfg = fault_free();
    let fault_free_ns = time_ns(5, 8, || chaos_sim().run(&cfg));
    let cfg = flapping();
    let flapping_ns = time_ns(5, 8, || chaos_sim().run(&cfg));

    let mut json = String::from("{\n  \"bench\": \"netchaos\",\n  \"metrics\": {\n");
    let _ = writeln!(json, "    \"flowsim_128_flows_ns\": {flowsim_ns:.0},");
    let _ = writeln!(json, "    \"deepep_g128_round_ns\": {deepep_ns:.0},");
    let _ = writeln!(json, "    \"chaossim_128_flows_fault_free_ns\": {fault_free_ns:.0},");
    let _ = writeln!(json, "    \"chaossim_128_flows_flapping_ns\": {flapping_ns:.0}");
    json.push_str("  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_netchaos.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_netchaos);
criterion_main!(benches);
