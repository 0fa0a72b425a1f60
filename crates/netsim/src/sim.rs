//! The flow-level simulator core.

use dsv3_telemetry::Recorder;
use serde::{Deserialize, Serialize};

/// A unidirectional network link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Capacity in gigabytes per second.
    pub capacity_gbps: f64,
}

/// Identifier of a link within a [`FlowSim`].
pub type LinkId = usize;

/// Identifier of a flow within a [`FlowSim`].
pub type FlowId = usize;

#[derive(Debug, Clone)]
struct FlowState {
    path: Vec<LinkId>,
    bytes_remaining: f64,
    start_us: f64,
    latency_us: f64,
    finish_us: Option<f64>,
}

/// Completion report of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Finish time (µs) of each flow, indexed by [`FlowId`].
    pub finish_us: Vec<f64>,
    /// Time at which the last flow finished.
    pub makespan_us: f64,
}

/// A max-min fair flow-level network simulation.
///
/// ```
/// use dsv3_netsim::{FlowSim, Link};
///
/// let mut sim = FlowSim::new(vec![Link { capacity_gbps: 50.0 }]);
/// // Two flows share the 50 GB/s link: 1 GB each takes 40 ms.
/// sim.add_flow(vec![0], 1e9, 0.0, 2.0);
/// sim.add_flow(vec![0], 1e9, 0.0, 2.0);
/// let report = sim.run();
/// assert!((report.makespan_us - 40_002.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct FlowSim {
    links: Vec<Link>,
    flows: Vec<FlowState>,
}

impl FlowSim {
    /// New simulator over the given links.
    #[must_use]
    pub fn new(links: Vec<Link>) -> Self {
        Self { links, flows: Vec::new() }
    }

    /// Number of links.
    #[must_use]
    pub fn links(&self) -> usize {
        self.links.len()
    }

    /// Capacity of link `l` (GB/s).
    #[must_use]
    pub fn capacity(&self, l: LinkId) -> f64 {
        self.links[l].capacity_gbps
    }

    /// Path of flow `f`.
    #[must_use]
    pub fn path(&self, f: FlowId) -> &[LinkId] {
        &self.flows[f].path
    }

    /// Add a flow of `bytes` over `path`, departing at `start_us` with fixed
    /// path latency `latency_us` (per-hop latency + endpoint overhead, as
    /// computed by [`crate::latency`]). A zero-byte flow models a bare
    /// message whose cost is latency only. Returns the flow id.
    ///
    /// A zero-capacity link is legal: it models a *failed* (down) link, and
    /// flows crossing it are allocated rate 0 by [`FlowSim::max_min_rates`].
    /// Note that [`FlowSim::run`] itself never revives a link, so a nonzero
    /// flow whose path stays down forever cannot make progress (`run`
    /// panics); dynamic fail/heal behavior lives in [`crate::chaos`].
    ///
    /// # Panics
    ///
    /// Panics if the path references an unknown link, `bytes` is negative,
    /// or a link capacity is negative.
    pub fn add_flow(
        &mut self,
        path: Vec<LinkId>,
        bytes: f64,
        start_us: f64,
        latency_us: f64,
    ) -> FlowId {
        assert!(bytes >= 0.0, "bytes must be non-negative");
        for &l in &path {
            assert!(l < self.links.len(), "unknown link {l}");
            assert!(self.links[l].capacity_gbps >= 0.0, "link {l} has negative capacity");
        }
        self.flows.push(FlowState {
            path,
            bytes_remaining: bytes,
            start_us,
            latency_us,
            finish_us: None,
        });
        self.flows.len() - 1
    }

    /// Max-min fair rates (GB/s) for the given active flow ids.
    ///
    /// Exposed for analysis and property testing: the returned allocation
    /// never oversubscribes a link, and every flow is bottlenecked by at
    /// least one saturated link on its path.
    #[must_use]
    pub fn max_min_rates(&self, active: &[FlowId]) -> Vec<f64> {
        let paths: Vec<&[LinkId]> = active.iter().map(|&f| self.flows[f].path.as_slice()).collect();
        max_min_rates_for(&self.links, &paths)
    }

    /// Run to completion.
    ///
    /// Flows share links max-min fairly, re-allocated at every arrival
    /// and completion. The re-allocation is scoped: at run start the
    /// links split into *components*, the groups of links that flow
    /// paths tie together (on a multi-plane cluster, one per network
    /// plane and one per node's NVLink domain). An event re-solves only
    /// the components whose set of active flows changed; every other
    /// flow keeps its last rate. Components share no links, so the
    /// result is bit-identical to re-solving every active flow at every
    /// event. A single-plane fabric, or a path set that ties all planes
    /// together, is one component and is re-solved whole.
    ///
    /// # Panics
    ///
    /// Panics if no flows were added.
    pub fn run(&mut self) -> SimReport {
        self.run_impl(None)
    }

    /// [`FlowSim::run`] plus telemetry: one span per flow (named thread
    /// tracks under the `{scope}/netsim` process, transfer start to
    /// reported finish), per-link utilization counter samples at every
    /// rate-change horizon, a `{scope}.flow_us` completion-time
    /// histogram, and `{scope}.link{l}.utilization` time-average gauges.
    /// All timestamps are the simulation's native microseconds. With a
    /// disabled recorder this is exactly [`FlowSim::run`].
    ///
    /// # Panics
    ///
    /// Panics if no flows were added.
    // lint:entry — FlowSim event loop (fluid max-min flow simulation).
    pub fn run_traced(&mut self, rec: &mut Recorder, scope: &str) -> SimReport {
        if rec.is_enabled() {
            self.run_impl(Some((rec, scope)))
        } else {
            self.run_impl(None)
        }
    }

    fn run_impl(&mut self, mut tel: Option<(&mut Recorder, &str)>) -> SimReport {
        assert!(!self.flows.is_empty(), "no flows to simulate");
        const EPS: f64 = 1e-9;
        let pid = match tel.as_mut() {
            Some((rec, scope)) => rec.process(&format!("{scope}/netsim")),
            None => 0,
        };
        let mut link_bytes = vec![0f64; self.links.len()];
        let comps = Components::new(self.links.len(), &self.flows);
        // Unfinished flows in arrival order, ties in flow-id order. A NaN
        // start never arrives (and the run then fails to finish it).
        let mut arrivals: Vec<FlowId> = (0..self.flows.len())
            .filter(|&f| self.flows[f].finish_us.is_none() && !self.flows[f].start_us.is_nan())
            .collect();
        arrivals.sort_by(|&a, &b| self.flows[a].start_us.total_cmp(&self.flows[b].start_us));
        let mut next_arrival = 0;
        // Active flows in flow-id order, each with its last solved rate.
        let mut active: Vec<FlowId> = Vec::new();
        let mut rate = vec![0f64; self.flows.len()];
        // Components whose active set changed since their last solve.
        let mut dirty = vec![false; comps.links.len()];
        let mut touched: Vec<usize> = Vec::new();
        let mut members: Vec<Vec<FlowId>> = vec![Vec::new(); comps.links.len()];
        let mut scratch = FillScratch::default();
        let mut solved = Vec::new();
        // Transfer-phase completion bookkeeping: a flow's data transfer runs
        // in [start, t_done]; its reported finish adds the path latency.
        let mut now = 0f64;
        loop {
            let admitted_from = active.len();
            while let Some(&f) = arrivals.get(next_arrival) {
                let fl = &mut self.flows[f];
                if fl.start_us > now + EPS {
                    break;
                }
                next_arrival += 1;
                if fl.bytes_remaining <= EPS {
                    // Zero-byte or zero-work flows finish on arrival; the
                    // byte update below finishes any other flow it leaves
                    // at EPS or less, so none is left to check later.
                    fl.finish_us = Some(now + fl.latency_us);
                    continue;
                }
                active.push(f);
                comps.touch(f, &mut dirty, &mut touched);
            }
            if active.len() > admitted_from {
                active.sort_unstable();
            }
            let pending_arrival =
                arrivals.get(next_arrival).map_or(f64::INFINITY, |&f| self.flows[f].start_us);
            if active.is_empty() {
                if pending_arrival.is_finite() {
                    now = pending_arrival;
                    continue;
                }
                break;
            }
            if !touched.is_empty() {
                for &c in &touched {
                    members[c].clear();
                }
                for &f in &active {
                    let c = comps.of_flow[f];
                    if c != NO_COMPONENT && dirty[c] {
                        members[c].push(f);
                    }
                }
                for &c in &touched {
                    let ids = &members[c];
                    progressive_fill(
                        comps.links[c].iter().map(|&l| self.links[l].capacity_gbps),
                        |l| comps.slot[l],
                        ids.len(),
                        |i| &self.flows[ids[i]].path,
                        &mut scratch,
                        &mut solved,
                    );
                    for (&f, &r) in ids.iter().zip(&solved) {
                        rate[f] = r;
                    }
                    dirty[c] = false;
                }
                touched.clear();
            }
            // Next event: earliest completion or next arrival.
            let mut next_done = f64::INFINITY;
            for &f in &active {
                if rate[f] > 0.0 {
                    // 1 GB/s = 1e9 B / 1e6 µs = 1000 B/µs.
                    let us = self.flows[f].bytes_remaining / (rate[f] * 1000.0);
                    next_done = next_done.min(now + us);
                }
            }
            let horizon = next_done.min(pending_arrival);
            assert!(horizon.is_finite(), "simulation cannot progress (all rates zero)");
            let dt = horizon - now;
            if let Some((rec, scope)) = tel.as_mut() {
                let mut link_rate = vec![0f64; self.links.len()];
                for &f in &active {
                    for &l in &self.flows[f].path {
                        link_rate[l] += rate[f];
                        link_bytes[l] += rate[f] * 1000.0 * dt;
                    }
                }
                for (l, &r) in link_rate.iter().enumerate() {
                    let cap = self.links[l].capacity_gbps;
                    let util = if cap > 0.0 { r / cap } else { 0.0 };
                    rec.counter_sample(pid, &format!("{scope}.link{l}.utilization"), now, util);
                }
            }
            active.retain(|&f| {
                let moved = rate[f] * 1000.0 * dt;
                let fl = &mut self.flows[f];
                fl.bytes_remaining = (fl.bytes_remaining - moved).max(0.0);
                if fl.bytes_remaining <= EPS.max(1e-6 * moved) {
                    fl.bytes_remaining = 0.0;
                    fl.finish_us = Some(horizon + fl.latency_us);
                    comps.touch(f, &mut dirty, &mut touched);
                    return false;
                }
                true
            });
            now = horizon;
        }
        let finish_us: Vec<f64> =
            // lint:allow(P1) — the progress loop above cannot exit until every flow's finish_us is set; a silent default would fabricate a makespan
            self.flows.iter().map(|f| f.finish_us.expect("finished")).collect();
        let makespan_us = finish_us.iter().copied().fold(0.0, f64::max);
        if let Some((rec, scope)) = tel.as_mut() {
            for (f, fl) in self.flows.iter().enumerate() {
                let done = fl.finish_us.unwrap_or(makespan_us);
                let tid = rec.thread(pid, &format!("flow{f}"));
                rec.span(pid, tid, "flow", &format!("flow{f}"), fl.start_us, done);
                rec.observe(&format!("{scope}.flow_us"), done - fl.start_us);
            }
            rec.counter_add(&format!("{scope}.flows"), self.flows.len() as u64);
            if makespan_us > 0.0 {
                for (l, &bytes) in link_bytes.iter().enumerate() {
                    let cap = self.links[l].capacity_gbps;
                    if cap > 0.0 {
                        rec.gauge_set(
                            &format!("{scope}.link{l}.utilization"),
                            bytes / (cap * 1000.0 * makespan_us),
                        );
                    }
                }
            }
        }
        SimReport { finish_us, makespan_us }
    }
}

/// Component of a flow whose path is empty: it crosses no link, so it
/// is never solved and keeps rate 0.
const NO_COMPONENT: usize = usize::MAX;

/// The links of a run split into components: the connected groups of
/// links that flow paths tie together (union-find over every flow's
/// path). A flow belongs to the component of its links. Components
/// share no links, so a max-min solve over one component is independent
/// of every other.
#[derive(Debug)]
struct Components {
    /// Component of each flow, [`NO_COMPONENT`] for an empty path.
    of_flow: Vec<usize>,
    /// Links of each component, in ascending global link id.
    links: Vec<Vec<LinkId>>,
    /// Position of each link within its component's `links` entry.
    slot: Vec<usize>,
}

impl Components {
    fn new(n_links: usize, flows: &[FlowState]) -> Self {
        fn root(parent: &mut [usize], mut l: usize) -> usize {
            while parent[l] != l {
                parent[l] = parent[parent[l]];
                l = parent[l];
            }
            l
        }
        let mut parent: Vec<usize> = (0..n_links).collect();
        let mut used = vec![false; n_links];
        for fl in flows {
            if let Some(&first) = fl.path.first() {
                let a = root(&mut parent, first);
                for &l in &fl.path {
                    used[l] = true;
                    let b = root(&mut parent, l);
                    parent[b] = a;
                }
            }
        }
        // Number components by their lowest link and list each one's
        // links in ascending order, so a component-local solve scans its
        // links in global order (the kernel breaks fair-share ties on the
        // lowest link).
        let mut comp_of_root = vec![NO_COMPONENT; n_links];
        let mut links: Vec<Vec<LinkId>> = Vec::new();
        let mut slot = vec![0; n_links];
        for l in (0..n_links).filter(|&l| used[l]) {
            let r = root(&mut parent, l);
            if comp_of_root[r] == NO_COMPONENT {
                comp_of_root[r] = links.len();
                links.push(Vec::new());
            }
            let c = comp_of_root[r];
            slot[l] = links[c].len();
            links[c].push(l);
        }
        let of_flow = flows
            .iter()
            .map(|fl| fl.path.first().map_or(NO_COMPONENT, |&l| comp_of_root[root(&mut parent, l)]))
            .collect();
        Self { of_flow, links, slot }
    }

    /// Mark flow `f`'s component as needing a re-solve.
    fn touch(&self, f: FlowId, dirty: &mut [bool], touched: &mut Vec<usize>) {
        let c = self.of_flow[f];
        if c != NO_COMPONENT && !dirty[c] {
            dirty[c] = true;
            touched.push(c);
        }
    }
}

/// Progressive-filling max-min allocation over `links` for flows following
/// `paths`. Shared by [`FlowSim::max_min_rates`] and the chaos engine
/// ([`crate::chaos::ChaosSim`]) so the two cannot drift: identical inputs
/// produce bit-identical rates, which is what makes the empty-`LinkSchedule`
/// chaos run byte-identical to [`FlowSim::run`].
///
/// A link with zero remaining capacity (e.g. a failed link) becomes the
/// bottleneck for every flow crossing it, freezing those flows at rate 0.
pub(crate) fn max_min_rates_for(links: &[Link], paths: &[&[LinkId]]) -> Vec<f64> {
    let mut rates = Vec::new();
    progressive_fill(
        links.iter().map(|l| l.capacity_gbps),
        |l| l,
        paths.len(),
        |i| paths[i],
        &mut FillScratch::default(),
        &mut rates,
    );
    rates
}

/// Working buffers of [`progressive_fill`], reusable across solves.
#[derive(Debug, Default)]
struct FillScratch {
    remaining_cap: Vec<f64>,
    count: Vec<usize>,
    on_link: Vec<Vec<usize>>,
    unfrozen: Vec<bool>,
}

/// The max-min kernel behind [`max_min_rates_for`] and [`FlowSim::run`]'s
/// component solves. `caps` lists the capacities of the links in play,
/// `local` maps a global link id on a path to its position in `caps`,
/// and `path(i)` is flow `i`'s path; the rates land in `rates`, indexed
/// like the flows.
///
/// Every division and subtraction acts on one link's state, in the
/// order the bottleneck scan picks links; a step freezes all its flows
/// at one share, so flow order changes no value. A solve restricted to
/// a group of links that no outside flow crosses therefore reproduces
/// the full solve's rates for its flows bit for bit, provided `caps`
/// keeps the global link order: the scan breaks fair-share ties on the
/// first link.
fn progressive_fill<'p>(
    caps: impl Iterator<Item = f64>,
    local: impl Fn(LinkId) -> usize,
    n_flows: usize,
    path: impl Fn(usize) -> &'p [LinkId],
    scratch: &mut FillScratch,
    rates: &mut Vec<f64>,
) {
    let FillScratch { remaining_cap, count, on_link, unfrozen } = scratch;
    remaining_cap.clear();
    remaining_cap.extend(caps);
    let n_links = remaining_cap.len();
    count.clear();
    count.resize(n_links, 0);
    if on_link.len() < n_links {
        on_link.resize_with(n_links, Vec::new);
    }
    // Per-link index of crossing flows, plus a live count of
    // still-unfrozen flows per link.
    let on_link = &mut on_link[..n_links];
    for flows in on_link.iter_mut() {
        flows.clear();
    }
    unfrozen.clear();
    unfrozen.extend((0..n_flows).map(|i| !path(i).is_empty()));
    rates.clear();
    rates.resize(n_flows, 0.0);
    for i in 0..n_flows {
        for &l in path(i) {
            let k = local(l);
            on_link[k].push(i);
            count[k] += 1;
        }
    }
    // Progressive filling: repeatedly saturate the link with the lowest
    // fair share and freeze its flows. Flows with an empty path
    // (pure-latency messages) are handled by the caller.
    loop {
        let mut bottleneck: Option<(usize, f64)> = None;
        for (k, &c) in count.iter().enumerate() {
            if c > 0 {
                let fair = remaining_cap[k] / c as f64;
                if bottleneck.is_none_or(|(_, bf)| fair < bf) {
                    bottleneck = Some((k, fair));
                }
            }
        }
        let Some((bk, fair)) = bottleneck else { break };
        for &i in &on_link[bk] {
            if unfrozen[i] {
                rates[i] = fair;
                unfrozen[i] = false;
                for &l in path(i) {
                    let k = local(l);
                    remaining_cap[k] = (remaining_cap[k] - fair).max(0.0);
                    count[k] -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The event loop [`FlowSim::run`] had before component-scoped
    /// solves, frozen as the differential oracle: every event rebuilds
    /// the active set and the next arrival by scanning all flows, and
    /// re-solves every active flow at once.
    fn reference_run(sim: &mut FlowSim, mut tel: Option<(&mut Recorder, &str)>) -> SimReport {
        assert!(!sim.flows.is_empty(), "no flows to simulate");
        const EPS: f64 = 1e-9;
        let pid = match tel.as_mut() {
            Some((rec, scope)) => rec.process(&format!("{scope}/netsim")),
            None => 0,
        };
        let mut link_bytes = vec![0f64; sim.links.len()];
        let mut now = 0f64;
        loop {
            let active: Vec<FlowId> = (0..sim.flows.len())
                .filter(|&f| sim.flows[f].finish_us.is_none() && sim.flows[f].start_us <= now + EPS)
                .collect();
            let pending_arrival = sim
                .flows
                .iter()
                .filter(|f| f.finish_us.is_none() && f.start_us > now + EPS)
                .map(|f| f.start_us)
                .fold(f64::INFINITY, f64::min);
            if active.is_empty() {
                if pending_arrival.is_finite() {
                    now = pending_arrival;
                    continue;
                }
                break;
            }
            let mut finished_any = false;
            for &f in &active {
                if sim.flows[f].bytes_remaining <= EPS {
                    let fl = &mut sim.flows[f];
                    fl.finish_us = Some(now + fl.latency_us);
                    finished_any = true;
                }
            }
            if finished_any {
                continue;
            }
            let rates = sim.max_min_rates(&active);
            let mut next_done = f64::INFINITY;
            for (i, &f) in active.iter().enumerate() {
                if rates[i] > 0.0 {
                    let us = sim.flows[f].bytes_remaining / (rates[i] * 1000.0);
                    next_done = next_done.min(now + us);
                }
            }
            let horizon = next_done.min(pending_arrival);
            assert!(horizon.is_finite(), "simulation cannot progress (all rates zero)");
            let dt = horizon - now;
            if let Some((rec, scope)) = tel.as_mut() {
                let mut link_rate = vec![0f64; sim.links.len()];
                for (i, &f) in active.iter().enumerate() {
                    for &l in &sim.flows[f].path {
                        link_rate[l] += rates[i];
                        link_bytes[l] += rates[i] * 1000.0 * dt;
                    }
                }
                for (l, &rate) in link_rate.iter().enumerate() {
                    let cap = sim.links[l].capacity_gbps;
                    let util = if cap > 0.0 { rate / cap } else { 0.0 };
                    rec.counter_sample(pid, &format!("{scope}.link{l}.utilization"), now, util);
                }
            }
            for (i, &f) in active.iter().enumerate() {
                let moved = rates[i] * 1000.0 * dt;
                let fl = &mut sim.flows[f];
                fl.bytes_remaining = (fl.bytes_remaining - moved).max(0.0);
                if fl.bytes_remaining <= EPS.max(1e-6 * moved) {
                    fl.bytes_remaining = 0.0;
                    fl.finish_us = Some(horizon + fl.latency_us);
                }
            }
            now = horizon;
        }
        let finish_us: Vec<f64> =
            sim.flows.iter().map(|f| f.finish_us.expect("finished")).collect();
        let makespan_us = finish_us.iter().copied().fold(0.0, f64::max);
        if let Some((rec, scope)) = tel.as_mut() {
            for (f, fl) in sim.flows.iter().enumerate() {
                let done = fl.finish_us.unwrap_or(makespan_us);
                let tid = rec.thread(pid, &format!("flow{f}"));
                rec.span(pid, tid, "flow", &format!("flow{f}"), fl.start_us, done);
                rec.observe(&format!("{scope}.flow_us"), done - fl.start_us);
            }
            rec.counter_add(&format!("{scope}.flows"), sim.flows.len() as u64);
            if makespan_us > 0.0 {
                for (l, &bytes) in link_bytes.iter().enumerate() {
                    let cap = sim.links[l].capacity_gbps;
                    if cap > 0.0 {
                        rec.gauge_set(
                            &format!("{scope}.link{l}.utilization"),
                            bytes / (cap * 1000.0 * makespan_us),
                        );
                    }
                }
            }
        }
        SimReport { finish_us, makespan_us }
    }

    /// `groups` disjoint link groups of `per_group` links each, numbered
    /// interleaved (link `k * groups + g` is link `k` of group `g`) so a
    /// component's links are not a contiguous id range. Capacities come
    /// from a short list so equal fair shares (link-order ties) are common.
    fn grouped_links(groups: usize, per_group: usize, cap_picks: &[usize]) -> Vec<Link> {
        const CAPS: [f64; 4] = [10.0, 25.0, 40.0, 40.0];
        (0..groups * per_group)
            .map(|l| Link { capacity_gbps: CAPS[cap_picks[l % cap_picks.len()] % CAPS.len()] })
            .collect()
    }

    /// Flow sizes: zero-byte messages and repeated sizes (equal-size
    /// completion ties) dominate; `1e3 + odd` adds an arbitrary size.
    fn flow_bytes(pick: usize, odd: f64) -> f64 {
        [0.0, 1e5, 1e5, 2.5e5, 1e6, 1e3 + odd][pick % 6]
    }

    /// Staggered arrivals, several at the same instant.
    fn flow_start(pick: usize) -> f64 {
        [0.0, 0.0, 3.0, 10.0, 37.5][pick % 5]
    }

    /// The component-scoped run and the frozen global re-solve agree
    /// bit for bit.
    fn assert_matches_reference(sim: &FlowSim) -> Result<(), TestCaseError> {
        let fast = sim.clone().run();
        let slow = reference_run(&mut sim.clone(), None);
        prop_assert_eq!(fast.makespan_us.to_bits(), slow.makespan_us.to_bits());
        prop_assert_eq!(fast.finish_us.len(), slow.finish_us.len());
        for (f, (a, b)) in fast.finish_us.iter().zip(&slow.finish_us).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "flow {} finish {} vs {}", f, a, b);
        }
        Ok(())
    }

    type FlowDraw = (usize, std::collections::BTreeSet<usize>, usize, f64, usize);

    fn arb_flows() -> impl Strategy<Value = Vec<FlowDraw>> {
        prop::collection::vec(
            (
                0usize..8,
                prop::collection::btree_set(0usize..4, 1..=3),
                0usize..12,
                0.0f64..5e5,
                0usize..10,
            ),
            1..24,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Component-scoped re-solves reproduce the global re-solve loop
        /// bit for bit: disjoint link groups, optional bridging flows that
        /// merge two groups into one component, staggered arrivals,
        /// zero-byte flows and equal-size ties.
        #[test]
        fn scoped_solve_matches_global_reference(
            groups in 1usize..5,
            per_group in 1usize..5,
            cap_picks in prop::collection::vec(0usize..4, 1..20),
            flows in arb_flows(),
            bridges in prop::collection::vec((0usize..8, 0usize..8, 0usize..4, 0usize..4, 0usize..10), 0..3),
        ) {
            let mut sim = FlowSim::new(grouped_links(groups, per_group, &cap_picks));
            let link = |group: usize, k: usize| (k % per_group) * groups + group % groups;
            for (group, offsets, size, odd, start) in &flows {
                let path: std::collections::BTreeSet<LinkId> =
                    offsets.iter().map(|&k| link(*group, k)).collect();
                let latency = (*start % 3) as f64;
                sim.add_flow(path.into_iter().collect(), flow_bytes(*size, *odd), flow_start(*start), latency);
            }
            for &(ga, gb, ka, kb, start) in &bridges {
                let path: std::collections::BTreeSet<LinkId> = [link(ga, ka), link(gb, kb)].into();
                sim.add_flow(path.into_iter().collect(), 2e5, flow_start(start), 1.0);
            }
            assert_matches_reference(&sim)?;
        }
    }

    #[test]
    fn components_follow_paths_and_keep_link_order() {
        let mut sim = FlowSim::new(vec![Link { capacity_gbps: 1.0 }; 7]);
        sim.add_flow(vec![4, 1], 1.0, 0.0, 0.0);
        sim.add_flow(vec![0, 2], 1.0, 0.0, 0.0);
        sim.add_flow(vec![5], 1.0, 0.0, 0.0);
        sim.add_flow(vec![1, 5], 1.0, 0.0, 0.0); // bridges {1, 4} and {5}
        sim.add_flow(Vec::new(), 0.0, 0.0, 0.0);
        let comps = Components::new(sim.links.len(), &sim.flows);
        assert_eq!(comps.links, vec![vec![0, 2], vec![1, 4, 5]], "link 3 and 6 carry no flow");
        assert_eq!(comps.of_flow, vec![1, 0, 1, 1, NO_COMPONENT]);
        assert_eq!((comps.slot[1], comps.slot[4], comps.slot[5]), (0, 1, 2));
    }

    /// On a fixed multi-component instance the traced run records exactly
    /// what the reference loop records: spans, per-horizon utilization
    /// samples, histogram and gauges.
    #[test]
    fn traced_run_matches_reference_recorder() {
        let mut sim = FlowSim::new(grouped_links(3, 2, &[0, 1, 2, 3, 2, 0]));
        for (f, path) in [vec![0, 3], vec![0], vec![1, 4], vec![4], vec![2], vec![5, 2], vec![3, 1]]
            .into_iter()
            .enumerate()
        {
            sim.add_flow(path, flow_bytes(f, 1.5e5), flow_start(f), 1.0);
        }
        let mut fast_rec = Recorder::new();
        let fast = sim.clone().run_traced(&mut fast_rec, "net");
        let mut slow_rec = Recorder::new();
        let slow = reference_run(&mut sim.clone(), Some((&mut slow_rec, "net")));
        assert_eq!(fast, slow);
        assert!(!fast_rec.events().is_empty());
        assert_eq!(fast_rec, slow_rec);
    }

    fn one_link(cap: f64) -> FlowSim {
        FlowSim::new(vec![Link { capacity_gbps: cap }])
    }

    #[test]
    fn single_flow_time() {
        let mut sim = one_link(50.0);
        sim.add_flow(vec![0], 1e6, 0.0, 3.0); // 1 MB at 50 GB/s = 20 µs
        let r = sim.run();
        assert!((r.finish_us[0] - 23.0).abs() < 1e-6, "{}", r.finish_us[0]);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut sim = one_link(50.0);
        sim.add_flow(vec![0], 1e6, 0.0, 0.0);
        sim.add_flow(vec![0], 1e6, 0.0, 0.0);
        let r = sim.run();
        assert!((r.makespan_us - 40.0).abs() < 1e-6);
    }

    #[test]
    fn short_flow_releases_bandwidth() {
        let mut sim = one_link(100.0);
        sim.add_flow(vec![0], 1e6, 0.0, 0.0); // long
        sim.add_flow(vec![0], 0.5e6, 0.0, 0.0); // short
        let r = sim.run();
        // Phase 1: both at 50 GB/s until short (0.5 MB) finishes at 10 µs.
        // Long has 0.5 MB left, now at 100 GB/s: +5 µs.
        assert!((r.finish_us[1] - 10.0).abs() < 1e-6, "{}", r.finish_us[1]);
        assert!((r.finish_us[0] - 15.0).abs() < 1e-6, "{}", r.finish_us[0]);
    }

    #[test]
    fn max_min_textbook_example() {
        // Links A(10), B(20). Flow1 uses A+B, flow2 uses A, flow3 uses B.
        // Max-min: A splits 5/5; flow3 gets B's remainder 15.
        let mut sim =
            FlowSim::new(vec![Link { capacity_gbps: 10.0 }, Link { capacity_gbps: 20.0 }]);
        sim.add_flow(vec![0, 1], 1.0, 0.0, 0.0);
        sim.add_flow(vec![0], 1.0, 0.0, 0.0);
        sim.add_flow(vec![1], 1.0, 0.0, 0.0);
        let rates = sim.max_min_rates(&[0, 1, 2]);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9);
        assert!((rates[2] - 15.0).abs() < 1e-9);
    }

    #[test]
    fn delayed_arrival() {
        let mut sim = one_link(50.0);
        sim.add_flow(vec![0], 1e6, 100.0, 0.0);
        let r = sim.run();
        assert!((r.finish_us[0] - 120.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_flow_is_pure_latency() {
        let mut sim = one_link(50.0);
        sim.add_flow(vec![0], 0.0, 5.0, 2.8);
        let r = sim.run();
        assert!((r.finish_us[0] - 7.8).abs() < 1e-9);
    }

    #[test]
    fn bytes_conserved_under_contention() {
        // n flows of b bytes over one c GB/s link take exactly n*b/c.
        let mut sim = one_link(40.0);
        for _ in 0..7 {
            sim.add_flow(vec![0], 2e6, 0.0, 0.0);
        }
        let r = sim.run();
        let expect = 7.0 * 2e6 / (40.0 * 1000.0);
        assert!((r.makespan_us - expect).abs() < 1e-6, "{} vs {expect}", r.makespan_us);
    }

    #[test]
    fn disjoint_flows_run_in_parallel() {
        let mut sim =
            FlowSim::new(vec![Link { capacity_gbps: 10.0 }, Link { capacity_gbps: 10.0 }]);
        sim.add_flow(vec![0], 1e6, 0.0, 0.0);
        sim.add_flow(vec![1], 1e6, 0.0, 0.0);
        let r = sim.run();
        assert!((r.makespan_us - 100.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn bad_path_panics() {
        let mut sim = one_link(1.0);
        sim.add_flow(vec![3], 1.0, 0.0, 0.0);
    }

    #[test]
    fn run_traced_matches_run_and_emits_flow_spans() {
        let build = || {
            let mut sim = one_link(100.0);
            sim.add_flow(vec![0], 1e6, 0.0, 0.0);
            sim.add_flow(vec![0], 0.5e6, 0.0, 0.0);
            sim
        };
        let plain = build().run();
        let mut rec = Recorder::new();
        let traced = build().run_traced(&mut rec, "net");
        assert_eq!(plain, traced);
        let spans: Vec<_> = rec.events().iter().filter(|e| e.ph == "X").collect();
        assert_eq!(spans.len(), 2, "one span per flow");
        assert_eq!(spans[0].name, "flow0");
        assert!((spans[0].dur - 15.0).abs() < 1e-6);
        assert_eq!(rec.counters()["net.flows"], 2);
        // Time-average utilization on the single saturated link is 1.0.
        let util = rec.snapshot().gauges["net.link0.utilization"];
        assert!((util - 1.0).abs() < 1e-6, "{util}");
        assert!(rec.histogram("net.flow_us").is_some());
        // Rate-change horizons: [0, 10) both flows, [10, 15) one — two samples.
        let samples = rec.events().iter().filter(|e| e.ph == "C").count();
        assert_eq!(samples, 2);
    }

    #[test]
    fn run_traced_disabled_records_nothing() {
        let mut sim = one_link(50.0);
        sim.add_flow(vec![0], 1e6, 0.0, 3.0);
        let mut rec = Recorder::disabled();
        let r = sim.run_traced(&mut rec, "net");
        assert!((r.finish_us[0] - 23.0).abs() < 1e-6);
        assert!(rec.events().is_empty());
        assert!(rec.counters().is_empty());
    }

    #[test]
    fn staggered_arrivals_interleave() {
        let mut sim = one_link(10.0);
        sim.add_flow(vec![0], 1e6, 0.0, 0.0); // alone for 50 µs
        sim.add_flow(vec![0], 1e6, 50.0, 0.0);
        let r = sim.run();
        // f0: 50 µs alone (0.5 MB) + shares 10 GB/s for remaining 0.5 MB at
        // 5 GB/s = 100 µs -> finishes at 150. f1: 0.5 MB at 5 (100 µs), then
        // 0.5 MB at 10 (50 µs) -> 200.
        assert!((r.finish_us[0] - 150.0).abs() < 1e-6, "{}", r.finish_us[0]);
        assert!((r.finish_us[1] - 200.0).abs() < 1e-6, "{}", r.finish_us[1]);
    }
}
