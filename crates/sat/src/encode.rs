//! CNF encoding of the modulo scheduling feasibility problem.
//!
//! The encoding mirrors the paper's 0-1-structured ILP (the Ineq. 20
//! formulation) literal for literal:
//!
//! * **time-slot variables** `x[op][t]` for `t = stage*II + row` over the
//!   same horizon the ILP uses (`num_stages` stages of `II` rows each);
//! * **assignment (Eq. 1)**: exactly one slot per operation — an
//!   at-least-one clause plus a sequential-counter at-most-one;
//! * **dependence rows as implications**: for an edge with
//!   `time(to) + distance*II - time(from) >= latency`, each slot `u` of
//!   the producer implies the disjunction of consumer slots
//!   `v >= u + latency - distance*II`;
//! * **MRT resource rows (Ineq. 5) as at-most-k**: per-row indicator
//!   literals `y[op][row]` (implied upward by the slot variables of that
//!   row) feed a Sinz sequential-counter cardinality circuit with the
//!   machine's capacity as the bound.
//!
//! Presolve fixings arrive as [`SlotDomains`]: stage bounds and forbidden
//! rows computed by `optimod-analyze` on the ILP model restrict which slot
//! variables exist at all — the unit-clause form of honoring OM101/OM102.

use optimod_ddg::Loop;
use optimod_machine::Machine;

use crate::cdcl::{Cnf, Lit};

/// Per-operation slot restrictions, normally read off the presolved ILP
/// model's variable bounds (stage-bound tightening and MRT-row fixing).
#[derive(Debug, Clone)]
pub struct SlotDomains {
    /// Stage count of the horizon (`k` bounds are `[0, num_stages-1]`).
    pub num_stages: i64,
    /// Per-op inclusive stage bounds.
    pub stage_bounds: Vec<(i64, i64)>,
    /// `row_allowed[op][row]`: whether the MRT row is still available.
    pub row_allowed: Vec<Vec<bool>>,
}

impl SlotDomains {
    /// Domains with no presolve restrictions.
    pub fn unrestricted(num_ops: usize, ii: u32, num_stages: i64) -> SlotDomains {
        SlotDomains {
            num_stages,
            stage_bounds: vec![(0, num_stages - 1); num_ops],
            row_allowed: vec![vec![true; ii as usize]; num_ops],
        }
    }
}

/// Deliberate encoder corruptions for the differential-oracle tests.
///
/// Production paths always pass the default (clean) options; the
/// portfolio's acceptance test arms one of these to prove an encoder bug
/// is *caught* as a cross-backend disagreement, not silently accepted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodeOptions {
    /// Omit the dependence clauses of edge `#i` (makes SAT too permissive:
    /// it may claim feasibility the certifier then refuses).
    pub omit_edge: Option<usize>,
    /// Forbid every slot of op `#i` (makes SAT too strict: it reports
    /// unsatisfiable where the ILP finds a schedule — a pure verdict
    /// disagreement).
    pub forbid_op: Option<usize>,
}

impl EncodeOptions {
    /// Whether any sabotage is armed (i.e. the encoding is untrustworthy).
    pub fn sabotaged(&self) -> bool {
        self.omit_edge.is_some() || self.forbid_op.is_some()
    }
}

/// A compiled CNF encoding plus the slot-variable map needed to decode a
/// model back into schedule times (and vice versa).
#[derive(Debug, Clone)]
pub struct Encoding {
    /// The formula.
    pub cnf: Cnf,
    /// Initiation interval the encoding was built for.
    pub ii: u32,
    /// `slot_var[op][t]`: the variable for "op issues at time t", when the
    /// slot is inside the op's domain.
    slot_var: Vec<Vec<Option<usize>>>,
}

impl Encoding {
    /// Decodes a satisfying assignment into per-op issue times.
    ///
    /// Returns a message naming the broken operation if the model selects
    /// no slot (an exactly-one violation — possible only for a corrupted
    /// model, e.g. under fault injection).
    pub fn decode(&self, model: &[bool]) -> Result<Vec<i64>, String> {
        let mut times = Vec::with_capacity(self.slot_var.len());
        for (op, slots) in self.slot_var.iter().enumerate() {
            let t = slots
                .iter()
                .enumerate()
                .find_map(|(t, v)| v.filter(|&v| model[v]).map(|_| t as i64));
            match t {
                Some(t) => times.push(t),
                None => return Err(format!("no time slot selected for op{op}")),
            }
        }
        Ok(times)
    }

    /// The positive slot literals pinning a concrete schedule, or `None`
    /// when some time falls outside the op's encoded domain. Appended as
    /// unit clauses, these ask the solver "does this schedule extend to a
    /// full model?" — the ILP→SAT direction of the round-trip tests.
    pub fn assumptions_for_times(&self, times: &[i64]) -> Option<Vec<Lit>> {
        if times.len() != self.slot_var.len() {
            return None;
        }
        times
            .iter()
            .zip(&self.slot_var)
            .map(|(&t, slots)| {
                usize::try_from(t)
                    .ok()
                    .and_then(|t| slots.get(t).copied().flatten())
                    .map(Lit::pos)
            })
            .collect()
    }

    /// Number of operations encoded.
    pub fn num_ops(&self) -> usize {
        self.slot_var.len()
    }
}

/// Sinz sequential-counter at-most-`k` over `lits` (duplicates count
/// twice, matching repeated ILP coefficients).
fn at_most_k(cnf: &mut Cnf, lits: &[Lit], k: usize) {
    at_most_k_guarded(cnf, lits, k, None);
}

/// [`at_most_k`] with an optional guard literal added to every emitted
/// clause: a true guard (a relaxed selector) satisfies the whole counter,
/// switching the constraint group off without touching the formula.
fn at_most_k_guarded(cnf: &mut Cnf, lits: &[Lit], k: usize, guard: Option<Lit>) {
    let n = lits.len();
    if n <= k {
        return;
    }
    let clause = |body: Vec<Lit>| -> Vec<Lit> {
        match guard {
            Some(g) => {
                let mut c = Vec::with_capacity(body.len() + 1);
                c.push(g);
                c.extend(body);
                c
            }
            None => body,
        }
    };
    if k == 0 {
        for &l in lits {
            cnf.add_clause(clause(vec![l.negated()]));
        }
        return;
    }
    // r[i][j] (i in 0..n-1, j in 0..k): "at least j+1 of lits[0..=i] hold".
    let r: Vec<Vec<usize>> = (0..n - 1)
        .map(|_| (0..k).map(|_| cnf.new_var()).collect())
        .collect();
    cnf.add_clause(clause(vec![lits[0].negated(), Lit::pos(r[0][0])]));
    for &rj in &r[0][1..] {
        cnf.add_clause(clause(vec![Lit::neg(rj)]));
    }
    for i in 1..n - 1 {
        cnf.add_clause(clause(vec![lits[i].negated(), Lit::pos(r[i][0])]));
        cnf.add_clause(clause(vec![Lit::neg(r[i - 1][0]), Lit::pos(r[i][0])]));
        for j in 1..k {
            cnf.add_clause(clause(vec![
                lits[i].negated(),
                Lit::neg(r[i - 1][j - 1]),
                Lit::pos(r[i][j]),
            ]));
            cnf.add_clause(clause(vec![Lit::neg(r[i - 1][j]), Lit::pos(r[i][j])]));
        }
        cnf.add_clause(clause(vec![lits[i].negated(), Lit::neg(r[i - 1][k - 1])]));
    }
    cnf.add_clause(clause(vec![
        lits[n - 1].negated(),
        Lit::neg(r[n - 2][k - 1]),
    ]));
}

/// Builds the CNF for scheduling `l` on `machine` at `ii` under the given
/// slot domains (see the module docs for the constraint-by-constraint
/// correspondence with the ILP).
pub fn encode(
    l: &Loop,
    machine: &Machine,
    ii: u32,
    domains: &SlotDomains,
    opts: &EncodeOptions,
) -> Encoding {
    let n = l.num_ops();
    debug_assert_eq!(domains.stage_bounds.len(), n);
    debug_assert_eq!(domains.row_allowed.len(), n);
    let horizon = (domains.num_stages * ii as i64).max(0) as usize;
    let mut cnf = Cnf::new();

    // Slot variables, restricted to each op's domain.
    let mut slot_var: Vec<Vec<Option<usize>>> = Vec::with_capacity(n);
    for op in 0..n {
        let (s_lo, s_hi) = domains.stage_bounds[op];
        let mut slots = vec![None; horizon];
        for (t, slot) in slots.iter_mut().enumerate() {
            let stage = (t as i64).div_euclid(ii as i64);
            let row = t % ii as usize;
            if stage >= s_lo && stage <= s_hi && domains.row_allowed[op][row] {
                *slot = Some(cnf.new_var());
            }
        }
        slot_var.push(slots);
    }

    // Assignment (Eq. 1): exactly one slot per op.
    for slots in &slot_var {
        let lits: Vec<Lit> = slots.iter().flatten().map(|&v| Lit::pos(v)).collect();
        cnf.add_clause(lits.clone()); // at-least-one (empty => unsat)
        at_most_k(&mut cnf, &lits, 1);
    }

    // Dependence implications.
    for (ei, e) in l.edges().iter().enumerate() {
        if opts.omit_edge == Some(ei) {
            continue;
        }
        let lag = e.latency - e.distance as i64 * ii as i64;
        let (from, to) = (e.from.index(), e.to.index());
        if from == to {
            // Self edge: time cancels, the constraint is `0 >= lag`.
            if lag > 0 {
                cnf.add_clause(Vec::new());
            }
            continue;
        }
        for (u, from_slot) in slot_var[from].iter().enumerate() {
            let Some(xu) = *from_slot else { continue };
            let mut clause = vec![Lit::neg(xu)];
            let lo = (u as i64 + lag).max(0) as usize;
            for to_slot in slot_var[to].iter().skip(lo) {
                if let Some(xv) = *to_slot {
                    clause.push(Lit::pos(xv));
                }
            }
            cnf.add_clause(clause);
        }
    }

    // Resource rows (Ineq. 5): at-most-cap over per-row indicators. The
    // slot collection matches the ILP builder: resources with fewer than
    // two usage slots in the whole loop cannot conflict.
    let mut row_lit: Vec<Vec<Option<usize>>> = vec![vec![None; ii as usize]; n];
    for q in machine.resources() {
        let mut slots: Vec<(usize, u32)> = Vec::new(); // (op, offset)
        for (i, op) in l.ops().iter().enumerate() {
            for &(r, c) in machine.usages(op.class) {
                if r == q {
                    slots.push((i, c));
                }
            }
        }
        if slots.len() < 2 {
            continue;
        }
        let cap = machine.resource_count(q) as usize;
        for r in 0..ii as i64 {
            let mut lits = Vec::with_capacity(slots.len());
            for &(i, c) in &slots {
                let row = (r - c as i64).rem_euclid(ii as i64) as usize;
                let y = match row_lit[i][row] {
                    Some(y) => y,
                    None => {
                        let y = cnf.new_var();
                        // One-directional definition suffices: x => y keeps
                        // the counter sound, and any real schedule extends
                        // to a model by setting exactly the implied y's.
                        for (t, slot) in slot_var[i].iter().enumerate() {
                            if t % ii as usize == row {
                                if let Some(x) = *slot {
                                    cnf.add_clause(vec![Lit::neg(x), Lit::pos(y)]);
                                }
                            }
                        }
                        row_lit[i][row] = Some(y);
                        y
                    }
                };
                lits.push(Lit::pos(y));
            }
            at_most_k(&mut cnf, &lits, cap);
        }
    }

    // Sabotage: forbid every slot of one op (test-only; see EncodeOptions).
    if let Some(op) = opts.forbid_op {
        if let Some(slots) = slot_var.get(op) {
            for &v in slots.iter().flatten() {
                cnf.add_clause(vec![Lit::neg(v)]);
            }
        }
    }

    Encoding { cnf, ii, slot_var }
}

/// A source-level constraint group the grouped encoder can switch off.
///
/// Groups are the unit of infeasibility explanation: each gets one
/// assumption selector in [`encode_grouped`], and an unsat core over the
/// selectors names exactly the groups whose interaction is contradictory.
/// The per-op assignment constraint (Eq. 1) is *structural* — "every
/// operation issues exactly once" is the definition of a schedule, not a
/// relaxable source constraint — so it carries no group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConstraintGroup {
    /// All implication clauses of dependence edge `#i` (creation order in
    /// the loop).
    Edge(usize),
    /// The Sinz at-most-capacity counter of one MRT resource row
    /// (Ineq. 5).
    ResourceRow {
        /// Dense resource index (creation order in the machine).
        resource: usize,
        /// MRT row within `0..II`.
        row: usize,
    },
    /// The presolve-restricted slot domain of op `#i` (stage bounds plus
    /// forbidden MRT rows), expressed as relaxable forbid clauses over the
    /// full unrestricted slot grid.
    Window(usize),
}

/// A CNF encoding with one assumption selector per source constraint
/// group, built by [`encode_grouped`].
///
/// Unlike [`encode`], the slot grid is *unrestricted*: presolve domains
/// become relaxable [`ConstraintGroup::Window`] clauses instead of
/// missing variables, so the explanation engine can ask whether the
/// window restrictions themselves participate in an infeasibility.
#[derive(Debug, Clone)]
pub struct GroupedEncoding {
    /// The formula plus the slot-variable decode map.
    pub enc: Encoding,
    /// Groups in deterministic order: edges, then resource rows, then
    /// restricted windows.
    pub groups: Vec<ConstraintGroup>,
    /// `selectors[g]` is the positive assumption literal activating
    /// `groups[g]`. Empty when built in subset mode ([`encode_subset`]),
    /// where inactive groups are simply not emitted.
    pub selectors: Vec<Lit>,
}

impl GroupedEncoding {
    /// Maps an unsat core of selector literals back to group indices,
    /// sorted ascending and deduplicated. Literals that are not selectors
    /// of this encoding are ignored.
    pub fn core_groups(&self, core: &[Lit]) -> Vec<usize> {
        let mut out: Vec<usize> = core
            .iter()
            .filter_map(|l| self.selectors.iter().position(|&s| s == *l))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Emission mode of the grouped encoder: selector-relaxable or a fixed
/// subset (for independent certification of a claimed core).
enum GroupMode<'a> {
    Selectors,
    Subset(&'a [bool]),
}

/// Registers group `g` and decides how its clauses are emitted: `None`
/// skips the group entirely (inactive in subset mode), `Some(None)` emits
/// unguarded, `Some(Some(lit))` prefixes every clause with the negated
/// selector.
fn begin_group(
    mode: &GroupMode<'_>,
    cnf: &mut Cnf,
    groups: &mut Vec<ConstraintGroup>,
    selectors: &mut Vec<Lit>,
    g: ConstraintGroup,
) -> Option<Option<Lit>> {
    let idx = groups.len();
    groups.push(g);
    match mode {
        GroupMode::Selectors => {
            let sel = cnf.new_var();
            selectors.push(Lit::pos(sel));
            Some(Some(Lit::neg(sel)))
        }
        GroupMode::Subset(active) => {
            if active.get(idx).copied().unwrap_or(false) {
                Some(None)
            } else {
                None
            }
        }
    }
}

fn encode_with_groups(
    l: &Loop,
    machine: &Machine,
    ii: u32,
    domains: &SlotDomains,
    mode: GroupMode<'_>,
) -> GroupedEncoding {
    let n = l.num_ops();
    debug_assert_eq!(domains.stage_bounds.len(), n);
    debug_assert_eq!(domains.row_allowed.len(), n);
    let horizon = (domains.num_stages * ii as i64).max(0) as usize;
    let mut cnf = Cnf::new();
    let mut groups: Vec<ConstraintGroup> = Vec::new();
    let mut selectors: Vec<Lit> = Vec::new();

    // Full unrestricted slot grid (windows are groups, not missing vars).
    let slot_var: Vec<Vec<Option<usize>>> = (0..n)
        .map(|_| (0..horizon).map(|_| Some(cnf.new_var())).collect())
        .collect();

    // Assignment (Eq. 1): structural, always on.
    for slots in &slot_var {
        let lits: Vec<Lit> = slots.iter().flatten().map(|&v| Lit::pos(v)).collect();
        cnf.add_clause(lits.clone());
        at_most_k(&mut cnf, &lits, 1);
    }

    // Dependence implications, one group per edge with any clauses.
    for (ei, e) in l.edges().iter().enumerate() {
        let lag = e.latency - e.distance as i64 * ii as i64;
        let (from, to) = (e.from.index(), e.to.index());
        if from == to && lag <= 0 {
            continue; // vacuously satisfied: nothing to relax, no group
        }
        let Some(guard) = begin_group(
            &mode,
            &mut cnf,
            &mut groups,
            &mut selectors,
            ConstraintGroup::Edge(ei),
        ) else {
            continue;
        };
        if from == to {
            // Self edge with positive lag: violated outright — the clause
            // is the bare relaxation guard (empty in subset mode).
            cnf.add_clause(guard.into_iter().collect());
            continue;
        }
        for (u, from_slot) in slot_var[from].iter().enumerate() {
            let Some(xu) = *from_slot else { continue };
            let mut clause = Vec::new();
            clause.extend(guard);
            clause.push(Lit::neg(xu));
            let lo = (u as i64 + lag).max(0) as usize;
            for to_slot in slot_var[to].iter().skip(lo) {
                if let Some(xv) = *to_slot {
                    clause.push(Lit::pos(xv));
                }
            }
            cnf.add_clause(clause);
        }
    }

    // Resource rows (Ineq. 5): one group per emitted at-most-cap counter.
    // Slot collection matches the ILP builder; the y-indicator definitions
    // (x => y) stay unguarded — they only define what "op in row" means,
    // the relaxable constraint is the capacity counter itself.
    let mut row_lit: Vec<Vec<Option<usize>>> = vec![vec![None; ii as usize]; n];
    for q in machine.resources() {
        let mut slots: Vec<(usize, u32)> = Vec::new(); // (op, offset)
        for (i, op) in l.ops().iter().enumerate() {
            for &(r, c) in machine.usages(op.class) {
                if r == q {
                    slots.push((i, c));
                }
            }
        }
        let cap = machine.resource_count(q) as usize;
        if slots.len() < 2 || slots.len() <= cap {
            continue; // the counter would emit no clauses
        }
        for r in 0..ii as i64 {
            let Some(guard) = begin_group(
                &mode,
                &mut cnf,
                &mut groups,
                &mut selectors,
                ConstraintGroup::ResourceRow {
                    resource: q.index(),
                    row: r as usize,
                },
            ) else {
                continue;
            };
            let mut lits = Vec::with_capacity(slots.len());
            for &(i, c) in &slots {
                let row = (r - c as i64).rem_euclid(ii as i64) as usize;
                let y = match row_lit[i][row] {
                    Some(y) => y,
                    None => {
                        let y = cnf.new_var();
                        for (t, slot) in slot_var[i].iter().enumerate() {
                            if t % ii as usize == row {
                                if let Some(x) = *slot {
                                    cnf.add_clause(vec![Lit::neg(x), Lit::pos(y)]);
                                }
                            }
                        }
                        row_lit[i][row] = Some(y);
                        y
                    }
                };
                lits.push(Lit::pos(y));
            }
            at_most_k_guarded(&mut cnf, &lits, cap, guard);
        }
    }

    // Presolve windows: one group per op with a restricted domain, as
    // forbid clauses over the slots outside it.
    for (op, slots) in slot_var.iter().enumerate() {
        let (s_lo, s_hi) = domains.stage_bounds[op];
        let forbidden: Vec<usize> = (0..horizon)
            .filter(|&t| {
                let stage = (t as i64).div_euclid(ii as i64);
                let row = t % ii as usize;
                stage < s_lo || stage > s_hi || !domains.row_allowed[op][row]
            })
            .collect();
        if forbidden.is_empty() {
            continue;
        }
        let Some(guard) = begin_group(
            &mode,
            &mut cnf,
            &mut groups,
            &mut selectors,
            ConstraintGroup::Window(op),
        ) else {
            continue;
        };
        for t in forbidden {
            if let Some(x) = slots[t] {
                let mut clause = Vec::new();
                clause.extend(guard);
                clause.push(Lit::neg(x));
                cnf.add_clause(clause);
            }
        }
    }

    GroupedEncoding {
        enc: Encoding { cnf, ii, slot_var },
        groups,
        selectors,
    }
}

/// Builds the selector-relaxable CNF for explaining infeasibility: the
/// same constraint system as [`encode`], but over the full slot grid,
/// with every [`ConstraintGroup`]'s clauses guarded by a fresh assumption
/// selector. Solving under all selectors asks the original feasibility
/// question; an unsat core over the selectors names the conflicting
/// groups.
pub fn encode_grouped(
    l: &Loop,
    machine: &Machine,
    ii: u32,
    domains: &SlotDomains,
) -> GroupedEncoding {
    encode_with_groups(l, machine, ii, domains, GroupMode::Selectors)
}

/// Builds the CNF containing only the groups with `active[g] == true`
/// (indices per [`encode_grouped`]'s deterministic group order), with no
/// selectors — the independent re-check used to certify a claimed core:
/// the core subset alone must be unsatisfiable, and every
/// single-member-dropped subset satisfiable.
pub fn encode_subset(
    l: &Loop,
    machine: &Machine,
    ii: u32,
    domains: &SlotDomains,
    active: &[bool],
) -> GroupedEncoding {
    encode_with_groups(l, machine, ii, domains, GroupMode::Subset(active))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdcl::{solve, solve_with_assumptions, AssumeOutcome, SatLimits, SatOutcome};
    use optimod_ddg::kernels;
    use optimod_machine::example_3fu;

    fn unrestricted(l: &Loop, ii: u32) -> SlotDomains {
        // Mirror the ILP horizon: asap-based min length + the default
        // 20-cycle slack (see `optimod::formulation::build_model`).
        let n = l.num_ops();
        // A generous horizon is sound for tests: more stages only add
        // feasible space.
        let num_stages = 16 / ii as i64 + 4;
        SlotDomains::unrestricted(n, ii, num_stages)
    }

    #[test]
    fn figure1_sat_at_ii2_and_unsat_at_ii1() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let limits = SatLimits::default();

        let enc = encode(&l, &m, 2, &unrestricted(&l, 2), &EncodeOptions::default());
        let (out, stats) = solve(&enc.cnf, &limits);
        let SatOutcome::Sat(model) = out else {
            panic!("figure1 must be satisfiable at II=2, got {out:?}");
        };
        let times = enc.decode(&model).expect("model decodes");
        assert_eq!(times.len(), l.num_ops());
        assert!(stats.sat_propagations > 0);

        // 5 ops on 3 FUs cannot pack at II=1.
        let enc1 = encode(&l, &m, 1, &unrestricted(&l, 1), &EncodeOptions::default());
        assert_eq!(solve(&enc1.cnf, &limits).0, SatOutcome::Unsat);
    }

    #[test]
    fn decoded_times_respect_dependences_and_resources() {
        let m = example_3fu();
        for l in [
            kernels::figure1(&m),
            kernels::saxpy(&m),
            kernels::dot_product(&m),
        ] {
            let ii = 2;
            let enc = encode(&l, &m, ii, &unrestricted(&l, ii), &EncodeOptions::default());
            let (out, _) = solve(&enc.cnf, &SatLimits::default());
            let SatOutcome::Sat(model) = out else {
                panic!("{} must be satisfiable at II=2", l.name());
            };
            let times = enc.decode(&model).expect("decodes");
            for e in l.edges() {
                assert!(
                    times[e.to.index()] + e.distance as i64 * ii as i64 - times[e.from.index()]
                        >= e.latency,
                    "{}: dependence violated",
                    l.name()
                );
            }
        }
    }

    #[test]
    fn schedule_round_trips_as_assumptions() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let ii = 2;
        let enc = encode(&l, &m, ii, &unrestricted(&l, ii), &EncodeOptions::default());
        let (out, _) = solve(&enc.cnf, &SatLimits::default());
        let SatOutcome::Sat(model) = out else {
            panic!("sat");
        };
        let times = enc.decode(&model).expect("decodes");
        let assumptions = enc.assumptions_for_times(&times).expect("in domain");
        assert!(matches!(
            solve_with_assumptions(&enc.cnf, &assumptions, &SatLimits::default()).0,
            AssumeOutcome::Sat(_)
        ));
    }

    #[test]
    fn grouped_unsat_encoding_yields_a_nonempty_selector_core() {
        // figure1 at II=1: 5 ops on 3 FUs cannot pack — the grouped
        // encoding under all selectors must be unsat with a core naming
        // at least one real constraint group.
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let g = encode_grouped(&l, &m, 1, &unrestricted(&l, 1));
        assert_eq!(g.groups.len(), g.selectors.len());
        let (out, _) = solve_with_assumptions(&g.enc.cnf, &g.selectors, &SatLimits::default());
        let AssumeOutcome::Unsat(core) = out else {
            panic!("grouped figure1 at II=1 must be unsat, got {}", out.name());
        };
        let groups = g.core_groups(&core);
        assert!(!groups.is_empty(), "core must name constraint groups");
        // With everything relaxed (no assumptions) the same formula is
        // satisfiable: any op anywhere.
        let (relaxed, _) = solve_with_assumptions(&g.enc.cnf, &[], &SatLimits::default());
        assert!(matches!(relaxed, AssumeOutcome::Sat(_)));
    }

    #[test]
    fn grouped_and_subset_modes_enumerate_identical_groups() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let ii = 2;
        let g = encode_grouped(&l, &m, ii, &unrestricted(&l, ii));
        let all = vec![true; g.groups.len()];
        let s = encode_subset(&l, &m, ii, &unrestricted(&l, ii), &all);
        assert_eq!(g.groups, s.groups);
        assert!(s.selectors.is_empty());
        // The all-active subset asks the original feasibility question.
        assert!(matches!(
            solve(&s.enc.cnf, &SatLimits::default()).0,
            SatOutcome::Sat(_)
        ));
        let s1 = encode_subset(&l, &m, 1, &unrestricted(&l, 1), &[true; 64]);
        assert_eq!(
            solve(&s1.enc.cnf, &SatLimits::default()).0,
            SatOutcome::Unsat
        );
        // No groups active: only the structural assignment remains — sat.
        let none = encode_subset(&l, &m, 1, &unrestricted(&l, 1), &[]);
        assert!(matches!(
            solve(&none.enc.cnf, &SatLimits::default()).0,
            SatOutcome::Sat(_)
        ));
    }

    #[test]
    fn window_groups_cover_restricted_domains() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let ii = 2;
        let mut domains = unrestricted(&l, ii);
        // Forbid every row of op 0: with the window group active the
        // formula is unsat; relaxed, it is sat again.
        domains.row_allowed[0] = vec![false; ii as usize];
        let g = encode_grouped(&l, &m, ii, &domains);
        let widx = g
            .groups
            .iter()
            .position(|&gr| gr == ConstraintGroup::Window(0))
            .expect("restricted op 0 has a window group");
        let (out, _) = solve_with_assumptions(&g.enc.cnf, &g.selectors, &SatLimits::default());
        let AssumeOutcome::Unsat(core) = out else {
            panic!("fully-forbidden op must be unsat, got {}", out.name());
        };
        // The raw core need not be minimal, but it must implicate the
        // window group (deletion-based minimization lives in
        // optimod-analyze).
        assert!(g.core_groups(&core).contains(&widx));
        let without: Vec<Lit> = g
            .selectors
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != widx)
            .map(|(_, &s)| s)
            .collect();
        let (out, _) = solve_with_assumptions(&g.enc.cnf, &without, &SatLimits::default());
        assert!(matches!(out, AssumeOutcome::Sat(_)));
    }

    #[test]
    fn forbid_op_sabotage_is_unsat() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let opts = EncodeOptions {
            forbid_op: Some(0),
            ..Default::default()
        };
        assert!(opts.sabotaged());
        let enc = encode(&l, &m, 2, &unrestricted(&l, 2), &opts);
        assert_eq!(solve(&enc.cnf, &SatLimits::default()).0, SatOutcome::Unsat);
    }

    #[test]
    fn at_most_k_counts_correctly() {
        // 5 literals, k=2: exactly the assignments with <= 2 true survive.
        let mut cnf = Cnf::new();
        let vs: Vec<usize> = (0..5).map(|_| cnf.new_var()).collect();
        let lits: Vec<Lit> = vs.iter().map(|&v| Lit::pos(v)).collect();
        at_most_k(&mut cnf, &lits, 2);
        // Force three true: must be unsat.
        let mut forced = cnf.clone();
        for &v in &vs[..3] {
            forced.add_clause(vec![Lit::pos(v)]);
        }
        assert_eq!(solve(&forced, &SatLimits::default()).0, SatOutcome::Unsat);
        // Force two true: satisfiable.
        let mut ok = cnf.clone();
        for &v in &vs[..2] {
            ok.add_clause(vec![Lit::pos(v)]);
        }
        assert!(matches!(
            solve(&ok, &SatLimits::default()).0,
            SatOutcome::Sat(_)
        ));
    }
}
