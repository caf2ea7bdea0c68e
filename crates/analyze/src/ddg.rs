//! DDG-level lints: redundant dependence edges, dead/unreachable
//! operations, SCC decomposition with per-SCC RecMII attribution, and
//! resource-pressure warnings.

use optimod_ddg::{Loop, OpId, SchedEdge};
use optimod_machine::{Machine, OpClass};

use crate::lint::{Finding, LintCode};

/// Largest MII the scheduler will attempt to formulate. The ILP carries
/// `II` row binaries per operation, so a pathological recurrence (huge
/// validated latencies around a cycle) would otherwise demand an absurd
/// allocation before the solver even starts. Above it [`lint_loop`]
/// reports [`LintCode::MiiOverflow`] and the scheduler, which re-exports
/// this constant as `optimod::MAX_SCHEDULABLE_II`, refuses the loop.
pub const MAX_SCHEDULABLE_II: u32 = 1 << 16;

/// Largest iteration distance for which [`lint_loop`] searches
/// edge-dominance paths; edges with larger distance are never reported
/// redundant. Bounds the per-edge longest-path DP.
const REDUNDANCY_DISTANCE: u32 = 8;

/// Runs every DDG lint over `l` and returns the findings in a stable order
/// (by lint code, then by subject creation order).
///
/// An invalid loop yields a single [`LintCode::InvalidLoop`] error finding;
/// the structural lints only run on validated loops.
pub fn lint_loop(l: &Loop, machine: &Machine) -> Vec<Finding> {
    if let Err(e) = l.validate() {
        return vec![Finding::new(LintCode::InvalidLoop, l.name(), e.to_string())];
    }
    let mut out = Vec::new();
    redundant_edge_findings(l, &mut out);
    liveness_findings(l, &mut out);
    scc_findings(l, &mut out);
    resource_findings(l, machine, &mut out);
    out
}

/// Strongly connected components of the dependence graph, each sorted by
/// operation index; components are returned in reverse topological order of
/// the condensation (Tarjan's invariant).
pub fn sccs(l: &Loop) -> Vec<Vec<OpId>> {
    let n = l.num_ops();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in l.edges() {
        adj[e.from.index()].push(e.to.index());
    }
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<OpId>> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // Iterative Tarjan: frames hold (vertex, next child position).
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(frame) = frames.last_mut() {
            let (v, pos) = *frame;
            if pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if pos < adj[v].len() {
                let w = adj[v][pos];
                frame.1 += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(OpId::from_index(w));
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_by_key(|id| id.index());
                    out.push(comp);
                }
            }
        }
    }
    out
}

/// RecMII contribution of one strongly connected component: the smallest
/// `II` such that no cycle through the component's internal edges has
/// positive total `latency - II * distance`. Zero for components without a
/// cycle.
pub fn scc_rec_mii(l: &Loop, comp: &[OpId]) -> u32 {
    let mut member = vec![false; l.num_ops()];
    for id in comp {
        member[id.index()] = true;
    }
    let internal: Vec<&SchedEdge> = l
        .edges()
        .iter()
        .filter(|e| member[e.from.index()] && member[e.to.index()])
        .collect();
    if internal.is_empty() {
        return 0;
    }
    let hi: i64 = internal
        .iter()
        .map(|e| e.latency.max(0))
        .sum::<i64>()
        .max(1);
    let mut lo: i64 = 0;
    let mut hi = hi;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if has_positive_cycle(l.num_ops(), &internal, mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    u32::try_from(lo).unwrap_or(u32::MAX)
}

/// Bellman-Ford positive-cycle test over a subset of edges under
/// `weight(e) = latency - ii * distance`.
fn has_positive_cycle(n: usize, edges: &[&SchedEdge], ii: i64) -> bool {
    let mut dist = vec![0i64; n];
    for _ in 0..n {
        let mut changed = false;
        for e in edges {
            let w = e.latency - ii * e.distance as i64;
            let cand = dist[e.from.index()] + w;
            if cand > dist[e.to.index()] {
                dist[e.to.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
    }
    for e in edges {
        let w = e.latency - ii * e.distance as i64;
        if dist[e.from.index()] + w > dist[e.to.index()] {
            return true;
        }
    }
    false
}

/// Indices (into [`Loop::edges`]) of edges implied by a dominating path: a
/// path from the edge's source to its sink, not using the edge itself, with
/// total latency `>=` the edge's latency and total distance `<=` the edge's
/// distance.
///
/// The implication is independent of `II`: for any `II >= 0`, the path's
/// dependence constraints force `t(to) + II*w - t(from) >= latency`, so the
/// edge adds nothing. Two parallel identical edges dominate each other and
/// are both reported; removing *all* edges of such a mutual pair would be
/// unsound, which is why this is a lint and not a transform.
pub fn redundant_edges(l: &Loop, max_distance: u32) -> Vec<usize> {
    let n = l.num_ops();
    let edges = l.edges();
    let Some(topo) = zero_distance_topo(l) else {
        return Vec::new(); // zero-distance cycle: validate() already rejects
    };
    // Zero-distance adjacency with original edge indices, for the in-layer
    // relaxation of the DP.
    let mut zadj: Vec<Vec<(usize, usize, i64)>> = vec![Vec::new(); n];
    for (ei, e) in edges.iter().enumerate() {
        if e.distance == 0 {
            zadj[e.from.index()].push((ei, e.to.index(), e.latency));
        }
    }
    let mut out = Vec::new();
    for (ei, e) in edges.iter().enumerate() {
        if e.distance > max_distance {
            continue;
        }
        if dominating_path(l, &topo, &zadj, ei) {
            out.push(ei);
        }
    }
    out
}

/// Longest-path DP layered by iteration distance: is there a path from
/// `edges[skip].from` to `edges[skip].to`, avoiding edge `skip`, with
/// distance `<= edges[skip].distance` and latency `>= edges[skip].latency`?
fn dominating_path(
    l: &Loop,
    topo: &[usize],
    zadj: &[Vec<(usize, usize, i64)>],
    skip: usize,
) -> bool {
    const NEG: i64 = i64::MIN / 4;
    let n = l.num_ops();
    let edges = l.edges();
    let e = &edges[skip];
    let w = e.distance as usize;
    let (src, dst) = (e.from.index(), e.to.index());
    // best[d][v]: longest latency of a path src -> v with total distance d.
    let mut best = vec![vec![NEG; n]; w + 1];
    best[0][src] = 0;
    for d in 0..=w {
        if d > 0 {
            // Cross-layer edges (distance >= 1) feeding layer d.
            for (ei, x) in edges.iter().enumerate() {
                if ei == skip || x.distance == 0 {
                    continue;
                }
                let delta = x.distance as usize;
                if delta > d {
                    continue;
                }
                let base = best[d - delta][x.from.index()];
                if base > NEG {
                    let t = &mut best[d][x.to.index()];
                    *t = (*t).max(base + x.latency);
                }
            }
        }
        // Zero-distance edges stay within the layer; the zero-distance
        // subgraph is acyclic, so one sweep in topological order settles it.
        for &u in topo {
            let base = best[d][u];
            if base <= NEG {
                continue;
            }
            for &(ei, v, lat) in &zadj[u] {
                if ei == skip {
                    continue;
                }
                let t = &mut best[d][v];
                *t = (*t).max(base + lat);
            }
        }
    }
    // A path of *smaller* distance dominates a fortiori. The empty path
    // (src == dst at layer 0, latency 0) legitimately dominates a
    // non-positive self-edge: `0 >= l` already implies `t_u - t_u >= l - II*w`.
    (0..=w).any(|d| {
        let lat = best[d][dst];
        lat > NEG && lat >= e.latency
    })
}

/// Topological order of the zero-distance subgraph, or `None` if it has a
/// cycle (which [`Loop::validate`] rejects).
fn zero_distance_topo(l: &Loop) -> Option<Vec<usize>> {
    let n = l.num_ops();
    let mut indeg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in l.edges() {
        if e.distance == 0 {
            adj[e.from.index()].push(e.to.index());
            indeg[e.to.index()] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &w in &adj[v] {
            indeg[w] -= 1;
            if indeg[w] == 0 {
                queue.push(w);
            }
        }
    }
    (order.len() == n).then_some(order)
}

fn redundant_edge_findings(l: &Loop, out: &mut Vec<Finding>) {
    for ei in redundant_edges(l, REDUNDANCY_DISTANCE) {
        let e = &l.edges()[ei];
        out.push(Finding::new(
            LintCode::RedundantEdge,
            format!("edge {}->{}", l.op(e.from).name, l.op(e.to).name),
            format!(
                "{:?} edge (latency {}, distance {}) is implied by another dependence path \
                 of equal-or-stronger latency and equal-or-smaller distance; it adds no \
                 scheduling constraint at any II",
                e.kind, e.latency, e.distance
            ),
        ));
    }
}

/// True for operation classes whose only effect is the value they produce.
fn produces_value_only(class: OpClass) -> bool {
    !matches!(class, OpClass::Store | OpClass::Branch)
}

fn liveness_findings(l: &Loop, out: &mut Vec<Finding>) {
    let n = l.num_ops();
    let mut has_edge = vec![false; n];
    let mut has_flow_out = vec![false; n];
    for e in l.edges() {
        has_edge[e.from.index()] = true;
        has_edge[e.to.index()] = true;
        if matches!(e.kind, optimod_ddg::DepKind::Flow) {
            has_flow_out[e.from.index()] = true;
        }
    }
    for (i, op) in l.ops().iter().enumerate() {
        if !has_edge[i] {
            out.push(Finding::new(
                LintCode::UnreachableOp,
                op.name.clone(),
                format!(
                    "{} operation has no dependence edges at all; it still occupies an \
                     issue slot and its resources every iteration",
                    op.class
                ),
            ));
        } else if produces_value_only(op.class) && !has_flow_out[i] {
            out.push(Finding::new(
                LintCode::DeadValue,
                op.name.clone(),
                format!(
                    "{} operation produces a value no other operation consumes \
                     (no outgoing flow dependence)",
                    op.class
                ),
            ));
        }
    }
}

fn scc_findings(l: &Loop, out: &mut Vec<Finding>) {
    let comps = sccs(l);
    let recs: Vec<u32> = comps.iter().map(|c| scc_rec_mii(l, c)).collect();
    let overall = recs.iter().copied().max().unwrap_or(0);
    for (comp, &rec) in comps.iter().zip(&recs) {
        if rec == 0 {
            continue; // acyclic component: no recurrence to attribute
        }
        let names: Vec<&str> = comp.iter().map(|&id| l.op(id).name.as_str()).collect();
        let critical = if rec == overall { " (critical)" } else { "" };
        out.push(Finding::new(
            LintCode::SccRecMii,
            format!("scc {{{}}}", names.join(", ")),
            format!(
                "recurrence over {} op(s) contributes RecMII {}{}; loop RecMII is {}",
                comp.len(),
                rec,
                critical,
                overall
            ),
        ));
    }
}

fn resource_findings(l: &Loop, machine: &Machine, out: &mut Vec<Finding>) {
    let mut demand = vec![0u64; machine.num_resources()];
    for op in l.ops() {
        for &(r, _) in machine.usages(op.class) {
            demand[r.index()] += 1;
        }
    }
    let res_mii = machine
        .resources()
        .map(|r| demand[r.index()].div_ceil(machine.resource_count(r) as u64) as u32)
        .max()
        .unwrap_or(0);
    let rec = sccs(l).iter().map(|c| scc_rec_mii(l, c)).max().unwrap_or(0);
    let mii = res_mii.max(rec).max(1);
    if res_mii >= rec && res_mii >= 1 {
        for r in machine.resources() {
            let d = demand[r.index()];
            let c = machine.resource_count(r) as u64;
            if d.div_ceil(c) as u32 == res_mii {
                let slots = c * mii as u64;
                out.push(Finding::new(
                    LintCode::HotResource,
                    machine.resource_name(r).to_string(),
                    format!(
                        "binding resource: {} usage slots per iteration on {} unit(s) force \
                         ResMII {}; at II={} its MRT rows are {}% occupied",
                        d,
                        c,
                        res_mii,
                        mii,
                        (100 * d) / slots.max(1)
                    ),
                ));
            }
        }
    }
    if mii > MAX_SCHEDULABLE_II {
        out.push(Finding::new(
            LintCode::MiiOverflow,
            l.name().to_string(),
            format!(
                "MII {} (ResMII {}, RecMII {}) exceeds the schedulable ceiling {}",
                mii, res_mii, rec, MAX_SCHEDULABLE_II
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimod_ddg::LoopBuilder;
    use optimod_machine::example_3fu;

    #[test]
    fn chain_has_singleton_sccs_and_no_recurrence() {
        let m = example_3fu();
        let mut b = LoopBuilder::new("chain");
        let a = b.op(OpClass::Load, "a");
        let c = b.op(OpClass::FAdd, "c");
        let s = b.op(OpClass::Store, "s");
        b.flow(a, c, 0);
        b.flow(c, s, 0);
        let l = b.build(&m);
        let comps = sccs(&l);
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| c.len() == 1));
        assert!(comps.iter().all(|c| scc_rec_mii(&l, c) == 0));
    }

    #[test]
    fn recurrence_scc_rec_mii_matches_cycle_ratio() {
        let m = example_3fu();
        let mut b = LoopBuilder::new("rec");
        let x = b.op(OpClass::FAdd, "x");
        let y = b.op(OpClass::FMul, "y");
        b.flow(x, y, 0); // latency 1 (FAdd on example_3fu)
        b.flow(y, x, 1); // latency 4 (FMul), distance 1
        let l = b.build(&m);
        let comps = sccs(&l);
        let cyc: Vec<_> = comps.iter().filter(|c| c.len() == 2).collect();
        assert_eq!(cyc.len(), 1);
        assert_eq!(scc_rec_mii(&l, cyc[0]), 5);
    }

    #[test]
    fn direct_edge_weaker_than_path_is_redundant() {
        let m = example_3fu();
        let mut b = LoopBuilder::new("redundant");
        let a = b.op(OpClass::Load, "a");
        let c = b.op(OpClass::FAdd, "c");
        let s = b.op(OpClass::Store, "s");
        b.flow(a, c, 0); // latency 2 (Load)
        b.flow(c, s, 0); // latency 1 (FAdd)
                         // Direct memory edge a->s, latency 1 <= path latency 3, distance 0.
        b.dep(a, s, 1, 0, optimod_ddg::DepKind::Memory);
        let l = b.build(&m);
        let red = redundant_edges(&l, 8);
        assert_eq!(red.len(), 1);
        let e = &l.edges()[red[0]];
        assert_eq!((e.from, e.to), (a, s));
        assert_eq!(e.kind, optimod_ddg::DepKind::Memory);
    }

    #[test]
    fn stronger_direct_edge_is_not_redundant() {
        let m = example_3fu();
        let mut b = LoopBuilder::new("needed");
        let a = b.op(OpClass::Load, "a");
        let c = b.op(OpClass::FAdd, "c");
        let s = b.op(OpClass::Store, "s");
        b.flow(a, c, 0);
        b.flow(c, s, 0);
        // Latency 10 exceeds the path's 3: the edge binds.
        b.dep(a, s, 10, 0, optimod_ddg::DepKind::Memory);
        let l = b.build(&m);
        assert!(redundant_edges(&l, 8).is_empty());
    }

    #[test]
    fn smaller_distance_path_dominates_larger_distance_edge() {
        let m = example_3fu();
        let mut b = LoopBuilder::new("dist");
        let a = b.op(OpClass::Load, "a");
        let s = b.op(OpClass::Store, "s");
        b.flow(a, s, 0); // latency 2, distance 0
                         // Same endpoints, weaker latency, larger distance: dominated.
        b.dep(a, s, 1, 2, optimod_ddg::DepKind::Memory);
        let l = b.build(&m);
        let red = redundant_edges(&l, 8);
        assert_eq!(red.len(), 1);
        assert_eq!(l.edges()[red[0]].distance, 2);
    }

    #[test]
    fn lint_flags_dead_and_unreachable_ops() {
        let m = example_3fu();
        let mut b = LoopBuilder::new("dead");
        let a = b.op(OpClass::Load, "a");
        let c = b.op(OpClass::FAdd, "dead-add");
        let s = b.op(OpClass::Store, "s");
        let _orphan = b.op(OpClass::IAlu, "orphan");
        b.flow(a, c, 0); // c's result goes nowhere
        b.flow(a, s, 0);
        let l = b.build(&m);
        let fs = lint_loop(&l, &m);
        assert!(fs
            .iter()
            .any(|f| f.code == LintCode::DeadValue && f.subject == "dead-add"));
        assert!(fs
            .iter()
            .any(|f| f.code == LintCode::UnreachableOp && f.subject == "orphan"));
    }

    #[test]
    fn mii_overflow_fires_above_ceiling() {
        let m = example_3fu();
        let mut b = LoopBuilder::new("overflow");
        let x = b.op(OpClass::FAdd, "x");
        b.dep(x, x, 1 << 20, 1, optimod_ddg::DepKind::Control);
        let l = b.build(&m);
        let fs = lint_loop(&l, &m);
        assert!(fs.iter().any(|f| f.code == LintCode::MiiOverflow));
    }
}
