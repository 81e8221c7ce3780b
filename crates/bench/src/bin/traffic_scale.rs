//! Traffic allocator scaling: max-min progressive filling at
//! production fleet sizes, from 5k flat flows to one million flows
//! through the hierarchical site×class aggregate tree.
//!
//! Emits `BENCH_traffic.json` with cold (incidence rebuild +
//! allocate) and warm (capacity-only, cached incidence) p50/p95 wall
//! times at 25/50/100-balloon flat meshes plus a 1000-balloon ×
//! 1000-flows/site hierarchical tier. Before timing anything it
//! asserts the gates:
//!
//! * rerun identity — a reused allocator (recycled scratch buffers)
//!   reproduces its own first answer byte-for-byte;
//! * lossless-collapse identity — on the flat ladder, the
//!   hierarchical allocator under singleton aggregates collapses
//!   bit-for-bit to the flat answer, so per-class goodput is
//!   unchanged by construction;
//! * warm ≤ cold sanity — a capacity-only re-allocation must not be
//!   slower than a full rebuild (the 50-balloon warm-p95 outlier the
//!   old per-call heap churn produced).
//!
//! Only after every gate passes are the timings recorded.
//!
//! Usage:
//!   traffic_scale [--smoke] [--out PATH]
//!
//! `--smoke` cuts iterations, not sizes: the 25/50/100 ladder, the
//! ≥5k-flow floor, and the million-flow tier hold in both modes, so
//! `BENCH_traffic.json` always records the acceptance numbers.

use std::time::Instant;
use tssdn_bench::seed;
use tssdn_sim::{PlatformId, RngStreams, SimTime};
use tssdn_telemetry::percentile;
use tssdn_traffic::{
    AggregateMember, AggregateSpec, DemandConfig, DemandGenerator, FairShareAllocator, FlowSpec,
    HierarchicalAllocator, TrafficClass,
};

/// Cold p50 budget for the million-flow hierarchical tier, ns.
const MILLION_FLOW_BUDGET_NS: f64 = 50_000_000.0;

/// Warm p95 may not exceed cold p95 by more than this factor — warm
/// reuses the cached incidence and the allocator's scratch buffers,
/// so a slower warm path means a regression (per-call heap churn).
const WARM_COLD_SLACK: f64 = 1.25;

/// A synthetic mesh: `n` balloons in `n_chains` chains rooted at
/// `n_chains` GSs, each chain hop shared by every balloon further out
/// — the congestion shape real topologies produce, with path lengths
/// up to n/n_chains hops. Flows carry the generator's tier weights
/// and control class, so the timed path is the production tiered
/// fill, not the flat one.
struct Mesh {
    specs: Vec<FlowSpec>,
    /// The same flows folded into site×class aggregates (demand flows
    /// are site-major, bulk first, so a key-change walk groups them).
    groups: Vec<AggregateSpec>,
    n_links: usize,
    demands: Vec<u64>,
    capacities: Vec<u64>,
}

fn build_mesh(n: usize, flows_per_site: usize, n_chains: usize) -> Mesh {
    let sites: Vec<PlatformId> = (0..n as u32).map(PlatformId).collect();
    let demand_cfg = DemandConfig {
        flows_per_site,
        ..DemandConfig::default()
    };
    let gen = DemandGenerator::new(demand_cfg, &sites, &RngStreams::new(seed()));

    // Link ids: balloon i's uplink toward its chain parent. Balloon
    // i < n_chains hangs off GS (i % n_chains); otherwise off balloon
    // i - n_chains. Each chain also gets one GS→EC tunnel link (ids
    // n..n+n_chains).
    let n_links = n + n_chains;
    let site_links: Vec<Vec<u32>> = (0..n)
        .map(|i| {
            let mut links = Vec::new();
            let mut at = i;
            loop {
                links.push(at as u32);
                if at < n_chains {
                    break;
                }
                at -= n_chains;
            }
            links.push((n + at % n_chains) as u32); // GS→EC
            links
        })
        .collect();

    let specs: Vec<FlowSpec> = gen
        .flows()
        .iter()
        .map(|f| {
            FlowSpec::new(
                site_links[f.site.0 as usize].clone(),
                f.tier_weight,
                f.class,
            )
        })
        .collect();
    // Site×class aggregates over the same population: one node per
    // (site, class) run of the site-major flow order.
    let mut groups: Vec<AggregateSpec> = Vec::new();
    let mut last: Option<(PlatformId, TrafficClass)> = None;
    for (fi, f) in gen.flows().iter().enumerate() {
        if last != Some((f.site, f.class)) {
            groups.push(AggregateSpec {
                links: site_links[f.site.0 as usize].clone(),
                class: f.class,
                members: Vec::new(),
            });
            last = Some((f.site, f.class));
        }
        groups
            .last_mut()
            .expect("group pushed")
            .members
            .push(AggregateMember {
                flow: fi as u32,
                weight: f.tier_weight,
            });
    }
    // Evening-peak demand; deterministic per seed.
    let at = SimTime::from_hours(20);
    let demands: Vec<u64> = (0..gen.flows().len())
        .map(|i| gen.offered_bps(i, at))
        .collect();
    // Radio links ride the MCS ladder (margin varies by position in
    // the chain — outer links run hotter margins); tunnels are wired.
    let capacities: Vec<u64> = (0..n_links)
        .map(|l| {
            if l >= n {
                10_000_000_000
            } else {
                let margin = 3.0 + (l % 6) as f64 * 3.0;
                (tssdn_rf::capacity_mbps(margin) * 1e6) as u64
            }
        })
        .collect();
    Mesh {
        specs,
        groups,
        n_links,
        demands,
        capacities,
    }
}

/// Time `cold` and `warm` over `iters` runs each, alternating one of
/// each, so a stretch the host deschedules the process lands on both
/// sides; returns their (p50_ns, p95_ns). At 41 samples p95 is the
/// 39th smallest, so two stalled samples of a side cannot decide it.
fn time_cold_warm<C, W>(
    iters: usize,
    mut cold: impl FnMut() -> C,
    mut warm: impl FnMut() -> W,
) -> ((f64, f64), (f64, f64)) {
    fn sample<T>(f: &mut impl FnMut() -> T) -> f64 {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as f64;
        drop(out);
        ns
    }
    let (mut c, mut w) = (Vec::with_capacity(iters), Vec::with_capacity(iters));
    for _ in 0..iters {
        c.push(sample(&mut cold));
        w.push(sample(&mut warm));
    }
    let p = |xs: &[f64]| {
        (
            percentile(xs, 50.0).expect("non-empty"),
            percentile(xs, 95.0).expect("non-empty"),
        )
    };
    (p(&c), p(&w))
}

struct MeshResult {
    balloons: usize,
    flows: usize,
    links: usize,
    aggregates: usize,
    allocator: &'static str,
    saturation: f64,
    cold: (f64, f64),
    warm: (f64, f64),
}

/// Flat ladder tier: the per-flow allocator exactly as production
/// runs it with aggregation off. The recorded `peak_goodput` is the
/// regression anchor — it must not move across allocator-internal
/// changes.
fn run_mesh_flat(n: usize, iters: usize) -> MeshResult {
    // ≥5k aggregate flows at every size.
    let flows_per_site = 5000usize.div_ceil(n);
    let mesh = build_mesh(n, flows_per_site, 3);
    assert!(
        mesh.specs.len() >= 5000,
        "flow floor violated: {}",
        mesh.specs.len()
    );

    // ---- identity gates first: never time a divergent allocator ----
    let mut reused = FairShareAllocator::new();
    reused.set_flows(mesh.specs.clone(), mesh.n_links);
    let base = reused.allocate(&mesh.demands, &mesh.capacities);
    // Rerun identity: the reused allocator (recycled scratch) must
    // reproduce its own answer bit-for-bit.
    assert!(
        reused.allocate(&mesh.demands, &mesh.capacities) == base,
        "{n}-balloon mesh: re-allocation on reused scratch diverged"
    );
    // Lossless-collapse identity: singleton aggregates make the
    // hierarchical tree a relabeling of the flat problem, so the
    // distributed rates — and hence per-class goodput — must be
    // byte-identical to the flat answer.
    let singleton_groups: Vec<AggregateSpec> = mesh
        .specs
        .iter()
        .enumerate()
        .map(|(fi, s)| AggregateSpec {
            links: s.links.clone(),
            class: s.class,
            members: vec![AggregateMember {
                flow: fi as u32,
                weight: s.weight,
            }],
        })
        .collect();
    let mut hier = HierarchicalAllocator::new();
    hier.set_aggregates(singleton_groups, mesh.n_links, mesh.specs.len());
    assert!(
        hier.allocate(&mesh.demands, &mesh.capacities) == base,
        "{n}-balloon mesh: singleton hierarchical collapse diverged from flat"
    );

    let delivered: u64 = base.iter().sum();
    let offered: u64 = mesh.demands.iter().sum();
    let saturation = delivered as f64 / offered as f64;
    eprintln!(
        "  [{n}] {} flows, {} links, goodput at peak {:.3} — identity gates OK",
        mesh.specs.len(),
        mesh.n_links,
        saturation
    );

    // ---- timings ----
    // Cold: topology changed (replan) — rebuild incidence + allocate.
    // Warm: capacity-only tick (weather fade) — cached incidence.
    let (cold, warm) = time_cold_warm(
        iters,
        || {
            let mut a = FairShareAllocator::new();
            a.set_flows(mesh.specs.clone(), mesh.n_links);
            a.allocate(&mesh.demands, &mesh.capacities)
        },
        || reused.allocate(&mesh.demands, &mesh.capacities),
    );
    assert!(
        warm.1 <= cold.1 * WARM_COLD_SLACK,
        "{n}-balloon mesh: warm p95 {:.2}ms exceeds cold p95 {:.2}ms × {WARM_COLD_SLACK}",
        warm.1 / 1e6,
        cold.1 / 1e6,
    );

    MeshResult {
        balloons: n,
        flows: mesh.specs.len(),
        links: mesh.n_links,
        aggregates: 0,
        allocator: "flat",
        saturation,
        cold,
        warm,
    }
}

/// Million-flow tier: 1000 sites × 1000 flows/site through the
/// site×class aggregate tree — the fleet size the flat per-flow fill
/// cannot hold under the tick budget.
fn run_mesh_hierarchical(iters: usize) -> MeshResult {
    let n = 1000;
    // 999 bulk flows + 1 control flow per site = exactly 1000
    // flows/site, one million flows fleet-wide.
    let mesh = build_mesh(n, 999, 25);
    let n_flows = mesh.specs.len();
    assert_eq!(n_flows, 1_000_000, "million-flow tier sized wrong");
    let n_aggs = mesh.groups.len();

    // ---- identity gates first ----
    let mut reused = HierarchicalAllocator::new();
    reused.set_aggregates(mesh.groups.clone(), mesh.n_links, n_flows);
    let base = reused.allocate(&mesh.demands, &mesh.capacities);
    assert!(
        reused.allocate(&mesh.demands, &mesh.capacities) == base,
        "million-flow tier: re-allocation on reused scratch diverged"
    );

    let delivered: u64 = base.iter().sum();
    let offered: u64 = mesh.demands.iter().sum();
    let saturation = delivered as f64 / offered as f64;
    eprintln!(
        "  [{n}] {} flows → {} aggregates, {} links, goodput at peak {:.3} — identity gates OK",
        n_flows, n_aggs, mesh.n_links, saturation
    );

    // ---- timings ----
    // Cold: topology changed — rebuild the aggregate tree + allocate.
    // Warm: capacity-only tick — cached tree, recycled scratch.
    let (cold, warm) = time_cold_warm(
        iters,
        || {
            let mut a = HierarchicalAllocator::new();
            a.set_aggregates(mesh.groups.clone(), mesh.n_links, n_flows);
            a.allocate(&mesh.demands, &mesh.capacities)
        },
        || reused.allocate(&mesh.demands, &mesh.capacities),
    );
    assert!(
        cold.0 <= MILLION_FLOW_BUDGET_NS,
        "million-flow cold p50 {:.2}ms blows the {:.0}ms tick budget",
        cold.0 / 1e6,
        MILLION_FLOW_BUDGET_NS / 1e6,
    );
    assert!(
        warm.1 <= cold.1 * WARM_COLD_SLACK,
        "million-flow tier: warm p95 {:.2}ms exceeds cold p95 {:.2}ms × {WARM_COLD_SLACK}",
        warm.1 / 1e6,
        cold.1 / 1e6,
    );

    MeshResult {
        balloons: n,
        flows: n_flows,
        links: mesh.n_links,
        aggregates: n_aggs,
        allocator: "hierarchical",
        saturation,
        cold,
        warm,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_traffic.json".to_string());

    let iters = if smoke { 41 } else { 101 };
    const SIZES: &[usize] = &[25, 50, 100];
    println!("=== traffic allocator scaling: max-min fill at fleet scale ===");
    println!(
        "meshes: {SIZES:?} balloons flat + 1000-balloon hierarchical (1M flows), \
         {iters} iters, {} mode",
        if smoke { "smoke" } else { "full" }
    );

    let mut results: Vec<MeshResult> = SIZES.iter().map(|&n| run_mesh_flat(n, iters)).collect();
    results.push(run_mesh_hierarchical(iters));

    println!();
    println!(
        "{:>8} {:>8} {:>7} {:>6} {:>13} {:>12} {:>12} {:>12} {:>12}",
        "balloons",
        "flows",
        "links",
        "aggs",
        "allocator",
        "cold p50",
        "cold p95",
        "warm p50",
        "warm p95"
    );
    for r in &results {
        println!(
            "{:>8} {:>8} {:>7} {:>6} {:>13} {:>11.2}ms {:>11.2}ms {:>11.2}ms {:>11.2}ms",
            r.balloons,
            r.flows,
            r.links,
            r.aggregates,
            r.allocator,
            r.cold.0 / 1e6,
            r.cold.1 / 1e6,
            r.warm.0 / 1e6,
            r.warm.1 / 1e6,
        );
    }

    // Hand-rolled JSON (no serde in the workspace).
    let meshes_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"balloons\": {},\n      \"flows\": {},\n      \"links\": {},\n      \
                 \"aggregates\": {},\n      \"allocator\": \"{}\",\n      \
                 \"peak_goodput\": {:.4},\n      \
                 \"cold\": {{\"p50_ns\": {:.0}, \"p95_ns\": {:.0}}},\n      \
                 \"warm\": {{\"p50_ns\": {:.0}, \"p95_ns\": {:.0}}}\n    }}",
                r.balloons,
                r.flows,
                r.links,
                r.aggregates,
                r.allocator,
                r.saturation,
                r.cold.0,
                r.cold.1,
                r.warm.0,
                r.warm.1,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"traffic_scale\",\n  \"manifest\": {},\n  \"seed\": {},\n  \"iters\": {},\n  \"meshes\": [\n{}\n  ]\n}}\n",
        tssdn_bench::manifest_json(if smoke { "smoke" } else { "full" }),
        seed(),
        iters,
        meshes_json.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
}
