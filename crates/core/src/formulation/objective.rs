//! Secondary-objective formulations: register requirements (MaxLive),
//! buffers, cumulative lifetimes, schedule length.
//!
//! # Kill pseudo-operations
//!
//! Objectives that measure register lifetimes add, per virtual register
//! `v`, a *kill pseudo-operation* with row binaries `κ[v][r]` and stage
//! `kk_v`, constrained to issue no earlier than the definition and every
//! use (`time(kill) >= time(use) + dist·II`, expressed as a dependence
//! pseudo-edge with latency 0 and distance `-dist` in whichever style the
//! formulation uses). Minimization presses the kill onto the last use, so
//! the lifetime `[time(def), time(kill)]` is exact at the optimum.
//!
//! # Exact per-row live counts
//!
//! Splitting the lifetime into whole `II`-wraps plus a cyclic row window,
//! the number of instances of `v` live in row `r` is *exactly*
//!
//! ```text
//! live(v, r) = kk_v − k_def + Σ_{z=0}^{r} a[z][def] − Σ_{z=0}^{r−1} κ[v][z]
//! ```
//!
//! (the window-wrap indicator cancels between the two cumulative sums; see
//! DESIGN.md §4.2). Every term is ±1 on a distinct variable, so the MaxLive
//! rows `Σ_v live(v,r) <= MaxLive` are 0-1-structured — our reconstruction
//! of the formulation of Eichenberger, Davidson & Abraham (ICS'95, the
//! paper's reference \[4\]).
//!
//! # Buffers
//!
//! A lifetime spanning `Q` full wraps plus a window of `E+1` rows needs
//! `Q+1 = kk − k_def − wrap + 1` buffers. The structured form (after DuPont
//! de Dinechin, reference \[15\]) pins the binary `wrap_v` with the window
//! inequalities `0 <= Σ_{z<=r} a[z][def] − Σ_{z<r} κ[v][z] + wrap_v <= 1`;
//! the traditional form (Govindarajan et al., reference \[7\]) instead uses
//! `b_v·II >= time(kill) − time(def) + 1` with its `II`-sized coefficient.

use optimod_ddg::Loop;
use optimod_ilp::{LinExpr, Sense, VarId};

use super::{dependence, BuiltModel, DepStyle, FormulationConfig, Objective};

/// Installs the configured objective (and any kill machinery) into `built`.
pub fn install(built: &mut BuiltModel, l: &Loop, cfg: &FormulationConfig) {
    if cfg.objective.needs_kills(cfg.dep_style) || cfg.max_live_limit.is_some() {
        add_kill_nodes(built, l, cfg.dep_style);
    }
    match cfg.objective {
        Objective::FirstFeasible => {}
        Objective::MinMaxLive => install_max_live(built, l),
        Objective::MinBuffers => match cfg.dep_style {
            DepStyle::Structured => install_buffers_structured(built, l),
            DepStyle::Traditional => install_buffers_traditional(built, l),
        },
        Objective::MinCumLifetime => match cfg.dep_style {
            DepStyle::Structured => install_lifetime_structured(built, l),
            DepStyle::Traditional => install_lifetime_traditional(built, l),
        },
        Objective::MinSchedLength => install_sched_length(built, l),
    }
    if let Some(limit) = cfg.max_live_limit {
        install_max_live_limit(built, l, limit);
    }
}

/// Caps the register requirement: when a MaxLive variable exists its upper
/// bound is tightened; otherwise the per-row live-count constraints are
/// emitted against the constant limit.
fn install_max_live_limit(built: &mut BuiltModel, l: &Loop, limit: u32) {
    if let Some(ml) = built.max_live_var {
        let ub = built.model.ub(ml).min(limit as f64);
        let lb = built.model.lb(ml).min(ub);
        built.model.set_bounds(ml, lb, ub);
        return;
    }
    for r in 0..built.ii as usize {
        let mut expr = LinExpr::new();
        for v in 0..l.vregs().len() {
            expr += live_expr(built, l, v, r);
        }
        built
            .model
            .add_le(expr, limit as f64, format!("reg-limit[{r}]"));
    }
}

/// Stage upper bound for the kill of `v`: the defining op's last possible
/// stage plus the largest use distance.
fn kill_stage_bound(built: &BuiltModel, l: &Loop, v: usize) -> i64 {
    let max_dist = l.vregs()[v]
        .uses
        .iter()
        .map(|u| u.distance as i64)
        .max()
        .unwrap_or(0);
    built.num_stages - 1 + max_dist
}

fn add_kill_nodes(built: &mut BuiltModel, l: &Loop, style: DepStyle) {
    let ii = built.ii;
    for (v, vr) in l.vregs().iter().enumerate() {
        let rows: Vec<VarId> = (0..ii)
            .map(|r| built.model.bool_var(format!("kill[{v}][{r}]")))
            .collect();
        let kk = built.model.int_var(
            0.0,
            kill_stage_bound(built, l, v) as f64,
            format!("kkill[{v}]"),
        );
        built
            .model
            .add_ordered_set(&rows, format!("kill-assign[{v}]"));
        // Kill at or after the definition.
        let d = vr.def.index();
        dependence::add_dependence(
            &mut built.model,
            style,
            ii,
            (&built.a[d], built.k[d]),
            (&rows, kk),
            0,
            0,
            &format!("kill-def[{v}]"),
        );
        // Kill at or after every use: time(kill) >= time(use) + dist*II,
        // i.e. an edge with latency 0 and distance -dist.
        for (ui, u) in vr.uses.iter().enumerate() {
            let uop = u.op.index();
            dependence::add_dependence(
                &mut built.model,
                style,
                ii,
                (&built.a[uop], built.k[uop]),
                (&rows, kk),
                0,
                -(u.distance as i64),
                &format!("kill-use[{v}][{ui}]"),
            );
        }
        built.kill_row.push(rows);
        built.kill_stage.push(kk);
    }
}

/// `live(v, r)` as a linear expression (see module docs).
fn live_expr(built: &BuiltModel, l: &Loop, v: usize, r: usize) -> LinExpr {
    let vr = &l.vregs()[v];
    let d = vr.def.index();
    let mut e = LinExpr::new();
    e.add_term(built.kill_stage[v], 1.0);
    e.add_term(built.k[d], -1.0);
    for z in 0..=r {
        e.add_term(built.a[d][z], 1.0);
    }
    for z in 0..r {
        e.add_term(built.kill_row[v][z], -1.0);
    }
    e
}

fn install_max_live(built: &mut BuiltModel, l: &Loop) {
    let ub: i64 = (0..l.vregs().len())
        .map(|v| kill_stage_bound(built, l, v) + 1)
        .sum();
    let ml = built.model.int_var(0.0, ub.max(0) as f64, "max-live");
    for r in 0..built.ii as usize {
        let mut expr = LinExpr::new();
        for v in 0..l.vregs().len() {
            expr += live_expr(built, l, v, r);
        }
        expr.add_term(ml, -1.0);
        built.model.add_le(expr, 0.0, format!("maxlive[{r}]"));
    }
    built
        .model
        .set_objective(Sense::Minimize, LinExpr::term(ml, 1.0));
    built.max_live_var = Some(ml);
}

fn install_buffers_structured(built: &mut BuiltModel, l: &Loop) {
    let mut obj = LinExpr::new();
    for (v, vr) in l.vregs().iter().enumerate() {
        let d = vr.def.index();
        let wrap = built.model.bool_var(format!("wrap[{v}]"));
        // Window inequalities pin `wrap` to "kill row < def row".
        for r in 0..built.ii as usize {
            let mut win = LinExpr::new();
            for z in 0..=r {
                win.add_term(built.a[d][z], 1.0);
            }
            for z in 0..r {
                win.add_term(built.kill_row[v][z], -1.0);
            }
            win.add_term(wrap, 1.0);
            built
                .model
                .add_ge(win.clone(), 0.0, format!("win-lo[{v}][{r}]"));
            built.model.add_le(win, 1.0, format!("win-hi[{v}][{r}]"));
        }
        // buffers(v) = kk - k_def - wrap + 1
        obj.add_term(built.kill_stage[v], 1.0);
        obj.add_term(built.k[d], -1.0);
        obj.add_term(wrap, -1.0);
        obj.add_constant(1.0);
    }
    built.model.set_objective(Sense::Minimize, obj);
}

fn install_buffers_traditional(built: &mut BuiltModel, l: &Loop) {
    let ii = built.ii as f64;
    let mut obj = LinExpr::new();
    for (v, vr) in l.vregs().iter().enumerate() {
        let d = vr.def.index();
        let ub = kill_stage_bound(built, l, v) + 2;
        let b = built.model.int_var(1.0, ub as f64, format!("buf[{v}]"));
        // b*II >= time(kill) - time(def) + 1, with times expanded into
        // row-weighted binaries and II-weighted stages (not 0-1-structured).
        let mut e = LinExpr::term(b, ii);
        for r in 0..built.ii as usize {
            e.add_term(built.kill_row[v][r], -(r as f64));
            e.add_term(built.a[d][r], r as f64);
        }
        e.add_term(built.kill_stage[v], -ii);
        e.add_term(built.k[d], ii);
        built.model.add_ge(e, 1.0, format!("buf-cover[{v}]"));
        obj.add_term(b, 1.0);
    }
    built.model.set_objective(Sense::Minimize, obj);
}

fn install_lifetime_structured(built: &mut BuiltModel, l: &Loop) {
    // Cumulative lifetime = Σ_v Σ_r live(v, r): re-weight the same live
    // counts; constraints are unchanged, so this stays 0-1-structured.
    let ii = built.ii as i64;
    let mut obj = LinExpr::new();
    for (v, vr) in l.vregs().iter().enumerate() {
        let d = vr.def.index();
        obj.add_term(built.kill_stage[v], ii as f64);
        obj.add_term(built.k[d], -(ii as f64));
        for z in 0..built.ii as i64 {
            obj.add_term(built.a[d][z as usize], (ii - z) as f64);
            obj.add_term(built.kill_row[v][z as usize], -((ii - 1 - z) as f64));
        }
    }
    built.model.set_objective(Sense::Minimize, obj);
}

fn install_lifetime_traditional(built: &mut BuiltModel, l: &Loop) {
    // After reference [16]: one lifetime variable per register bounded
    // below by each use; no kill nodes. Measures `time(last use) -
    // time(def)`; the reported cumulative lifetime adds one reserved cycle
    // per register, a constant that does not affect the argmin.
    let ii = built.ii as i64;
    let mut obj = LinExpr::new();
    for (v, vr) in l.vregs().iter().enumerate() {
        let d = vr.def.index();
        let ub = (kill_stage_bound(built, l, v) + 2) * ii;
        let lv = built.model.int_var(0.0, ub as f64, format!("life[{v}]"));
        for (ui, u) in vr.uses.iter().enumerate() {
            let uop = u.op.index();
            // L_v >= time(use) + dist*II - time(def)
            let mut e = LinExpr::term(lv, 1.0);
            for r in 0..built.ii as usize {
                e.add_term(built.a[uop][r], -(r as f64));
                e.add_term(built.a[d][r], r as f64);
            }
            e.add_term(built.k[uop], -(ii as f64));
            e.add_term(built.k[d], ii as f64);
            built.model.add_ge(
                e,
                (u.distance as i64 * ii) as f64,
                format!("life[{v}][{ui}]"),
            );
        }
        obj.add_term(lv, 1.0);
    }
    built.model.set_objective(Sense::Minimize, obj);
}

fn install_sched_length(built: &mut BuiltModel, l: &Loop) {
    let ii = built.ii as i64;
    let t = built
        .model
        .int_var(0.0, (built.num_stages * ii) as f64, "makespan");
    for i in 0..l.num_ops() {
        let mut e = LinExpr::term(t, 1.0);
        for r in 0..built.ii as usize {
            e.add_term(built.a[i][r], -(r as f64));
        }
        e.add_term(built.k[i], -(ii as f64));
        built.model.add_ge(e, 0.0, format!("span[{i}]"));
    }
    built
        .model
        .set_objective(Sense::Minimize, LinExpr::term(t, 1.0));
}
