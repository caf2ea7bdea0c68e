//! A small conflict-driven clause-learning SAT solver.
//!
//! The classic architecture in miniature: two-watched-literal unit
//! propagation, first-UIP conflict analysis with clause learning,
//! VSIDS-style variable activities with phase saving, and Luby-sequence
//! restarts. Everything is deterministic given [`SatLimits::seed`] — the
//! seed only jitters the initial activity order, after which ties break by
//! variable index — so portfolio runs and golden counters are replayable.
//!
//! The solver observes the same cooperative machinery as the ILP solver:
//! the shared [`StopFlag`] (checked between conflicts) and the seeded
//! [`FaultPlan`] (sites [`FaultSite::SatPropagate`],
//! [`FaultSite::SatAnalyze`], [`FaultSite::SatRestart`]). A tripped `Stall`
//! or `SpuriousTimeout` surfaces as [`SatOutcome::Unknown`]; a `Panic` is
//! raised inside [`FaultPlan::fire`] and must be caught by the caller's
//! isolation layer, exactly like an ILP worker panic.

use std::time::{Duration, Instant};

use optimod_ilp::{FaultAction, FaultPlan, FaultSite, SolveStats, StopFlag};

/// A propositional literal: variable index with a sign bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of variable `v`.
    pub fn pos(v: usize) -> Lit {
        Lit((v as u32) << 1)
    }

    /// The negative literal of variable `v`.
    pub fn neg(v: usize) -> Lit {
        Lit(((v as u32) << 1) | 1)
    }

    /// The underlying variable index.
    pub fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether this is a negated literal.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index (for watch lists): `2*var + sign`.
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_neg() {
            write!(f, "-x{}", self.var())
        } else {
            write!(f, "x{}", self.var())
        }
    }
}

/// A CNF formula under construction: a variable counter plus clauses.
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// An empty formula.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Allocates a fresh variable and returns its index.
    pub fn new_var(&mut self) -> usize {
        self.num_vars += 1;
        self.num_vars - 1
    }

    /// Adds a clause (the empty clause makes the formula unsatisfiable).
    pub fn add_clause(&mut self, lits: Vec<Lit>) {
        debug_assert!(lits.iter().all(|l| l.var() < self.num_vars));
        self.clauses.push(lits);
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses added so far.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses added so far.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }
}

/// How a SAT solve ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable; the model assigns every variable.
    Sat(Vec<bool>),
    /// Proven unsatisfiable.
    Unsat,
    /// A limit, cancellation, or injected fault stopped the search before
    /// a verdict.
    Unknown,
}

impl SatOutcome {
    /// Stable lower-case name (used in trace events).
    pub fn name(&self) -> &'static str {
        match self {
            SatOutcome::Sat(_) => "sat",
            SatOutcome::Unsat => "unsat",
            SatOutcome::Unknown => "unknown",
        }
    }
}

/// How a SAT solve under assumptions ended.
///
/// The difference from [`SatOutcome`] is the refutation payload: an
/// unsatisfiable answer names the *unsat core* — the subset of assumption
/// literals the refutation actually used — which is the raw material of
/// infeasibility explanations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssumeOutcome {
    /// Satisfiable under all assumptions; the model assigns every variable.
    Sat(Vec<bool>),
    /// Unsatisfiable under the assumptions. The core is the subset of
    /// assumption literals involved in the refutation; an empty core means
    /// the formula is unsatisfiable on its own, regardless of assumptions.
    Unsat(Vec<Lit>),
    /// A limit, cancellation, or injected fault stopped the search before
    /// a verdict.
    Unknown,
}

impl AssumeOutcome {
    /// Stable lower-case name (used in trace events).
    pub fn name(&self) -> &'static str {
        match self {
            AssumeOutcome::Sat(_) => "sat",
            AssumeOutcome::Unsat(_) => "unsat",
            AssumeOutcome::Unknown => "unknown",
        }
    }
}

/// Limits and shared machinery for one SAT solve.
#[derive(Debug, Clone)]
pub struct SatLimits {
    /// Wall-clock budget.
    pub time_limit: Duration,
    /// Conflict budget (the SAT analogue of a node limit).
    pub conflict_limit: u64,
    /// Determinism seed (jitters the initial activity order).
    pub seed: u64,
    /// Cooperative cancellation, checked between conflicts.
    pub stop: StopFlag,
    /// Deterministic fault injection (SAT sites; see [`FaultSite::SAT`]).
    pub fault: FaultPlan,
}

impl Default for SatLimits {
    fn default() -> Self {
        SatLimits {
            time_limit: Duration::from_secs(900),
            conflict_limit: u64::MAX,
            seed: 0,
            stop: StopFlag::new(),
            fault: FaultPlan::none(),
        }
    }
}

const UNASSIGNED: i8 = 0;
const VAL_TRUE: i8 = 1;
const VAL_FALSE: i8 = -1;

/// Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
fn luby(mut i: u64) -> u64 {
    // Knuth's closed form: find the subsequence containing i.
    let mut k = 1u64;
    while (1u64 << k) < i + 2 {
        k += 1;
    }
    loop {
        if i + 1 == (1u64 << k) - 1 {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
        k = 1;
        while (1u64 << k) < i + 2 {
            k += 1;
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Solver<'a> {
    clauses: Vec<Vec<Lit>>,
    /// `watches[lit.index()]`: clause indices watching `lit`.
    watches: Vec<Vec<usize>>,
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<usize>, // usize::MAX = decision / unset
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    phase: Vec<bool>,
    seen: Vec<bool>,
    stats: SolveStats,
    limits: &'a SatLimits,
    start: Instant,
    interrupted: bool,
}

const NO_REASON: usize = usize::MAX;

impl<'a> Solver<'a> {
    fn new(cnf: &Cnf, limits: &'a SatLimits) -> Solver<'a> {
        let n = cnf.num_vars();
        let mut seed = limits.seed ^ 0x5EED_CDC1;
        let activity = (0..n)
            .map(|_| (splitmix64(&mut seed) % 1024) as f64 * 1e-9)
            .collect();
        Solver {
            clauses: Vec::with_capacity(cnf.num_clauses()),
            watches: vec![Vec::new(); 2 * n],
            assign: vec![UNASSIGNED; n],
            level: vec![0; n],
            reason: vec![NO_REASON; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            activity,
            var_inc: 1.0,
            phase: vec![false; n],
            seen: vec![false; n],
            stats: SolveStats::default(),
            limits,
            start: Instant::now(),
            interrupted: false,
        }
    }

    fn value(&self, l: Lit) -> i8 {
        let v = self.assign[l.var()];
        if l.is_neg() {
            -v
        } else {
            v
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: usize) {
        debug_assert_eq!(self.value(l), UNASSIGNED);
        self.assign[l.var()] = if l.is_neg() { VAL_FALSE } else { VAL_TRUE };
        self.level[l.var()] = self.decision_level();
        self.reason[l.var()] = reason;
        self.phase[l.var()] = !l.is_neg();
        self.trail.push(l);
        self.stats.sat_propagations += 1;
    }

    /// Installs a problem clause. Returns `false` on an immediate
    /// top-level conflict (empty clause or falsified unit).
    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        // Simplify: drop falsified-at-level-0 literals, detect tautologies
        // and satisfied clauses, dedup.
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            if self.value(l) == VAL_TRUE {
                return true; // already satisfied at level 0
            }
            if self.value(l) == VAL_FALSE {
                continue; // falsified at level 0: drop
            }
            if c.contains(&l.negated()) {
                return true; // tautology
            }
            if !c.contains(&l) {
                c.push(l);
            }
        }
        match c.len() {
            0 => false,
            1 => {
                self.enqueue(c[0], NO_REASON);
                self.propagate().is_none()
            }
            _ => {
                let idx = self.clauses.len();
                self.watches[c[0].index()].push(idx);
                self.watches[c[1].index()].push(idx);
                self.clauses.push(c);
                true
            }
        }
    }

    /// Unit propagation; returns a conflicting clause index, if any.
    fn propagate(&mut self) -> Option<usize> {
        if let Some(action) = self.fire(FaultSite::SatPropagate) {
            self.apply_fault(action);
            if self.interrupted {
                return None;
            }
        }
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = p.negated();
            let mut i = 0;
            'clauses: while i < self.watches[false_lit.index()].len() {
                let ci = self.watches[false_lit.index()][i];
                // Normalize: the false literal sits at position 1.
                if self.clauses[ci][0] == false_lit {
                    self.clauses[ci].swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci][1], false_lit);
                let first = self.clauses[ci][0];
                if self.value(first) == VAL_TRUE {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..self.clauses[ci].len() {
                    let l = self.clauses[ci][k];
                    if self.value(l) != VAL_FALSE {
                        self.clauses[ci].swap(1, k);
                        self.watches[false_lit.index()].swap_remove(i);
                        self.watches[l.index()].push(ci);
                        continue 'clauses;
                    }
                }
                // Unit or conflicting.
                if self.value(first) == VAL_FALSE {
                    return Some(ci);
                }
                self.enqueue(first, ci);
                i += 1;
            }
        }
        None
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis: returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, u32) {
        if let Some(action) = self.fire(FaultSite::SatAnalyze) {
            self.apply_fault(action);
        }
        let mut learned: Vec<Lit> = vec![Lit::pos(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut ci = conflict;
        let mut trail_idx = self.trail.len();
        loop {
            let start = if p.is_some() { 1 } else { 0 };
            for k in start..self.clauses[ci].len() {
                let q = self.clauses[ci][k];
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Walk back the trail to the next marked literal.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var()] {
                    break;
                }
            }
            let lit = self.trail[trail_idx];
            self.seen[lit.var()] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = lit.negated();
                break;
            }
            p = Some(lit);
            ci = self.reason[lit.var()];
            debug_assert_ne!(ci, NO_REASON, "non-decision must have a reason");
            // Normalize so the implied literal is at position 0.
            if self.clauses[ci][0] != lit {
                let pos = self.clauses[ci]
                    .iter()
                    .position(|&l| l == lit)
                    .expect("reason clause contains its implied literal");
                self.clauses[ci].swap(0, pos);
            }
        }
        for l in &learned {
            self.seen[l.var()] = false;
        }
        let back_level = learned[1..]
            .iter()
            .map(|l| self.level[l.var()])
            .max()
            .unwrap_or(0);
        // Put a maximum-level literal at position 1 so it gets watched.
        if learned.len() > 1 {
            let pos = 1 + learned[1..]
                .iter()
                .position(|l| self.level[l.var()] == back_level)
                .expect("max exists");
            learned.swap(1, pos);
        }
        self.var_inc /= 0.95;
        (learned, back_level)
    }

    fn backtrack(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            for l in self.trail.drain(lim..) {
                self.assign[l.var()] = UNASSIGNED;
                self.reason[l.var()] = NO_REASON;
            }
        }
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> bool {
        let mut best: Option<usize> = None;
        for v in 0..self.assign.len() {
            if self.assign[v] == UNASSIGNED
                && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        let Some(v) = best else {
            return false;
        };
        self.stats.sat_decisions += 1;
        self.trail_lim.push(self.trail.len());
        let lit = if self.phase[v] {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        };
        self.enqueue(lit, NO_REASON);
        true
    }

    fn fire(&mut self, site: FaultSite) -> Option<FaultAction> {
        let action = self.limits.fault.fire(site);
        if action.is_some() {
            self.stats.faults_injected += 1;
        }
        action
    }

    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            // Both degrade to "no verdict", through the same path a real
            // deadline takes; the portfolio falls back to the ILP.
            FaultAction::Stall | FaultAction::SpuriousTimeout => self.interrupted = true,
            // A tripped panic never reaches here (raised inside `fire`); a
            // perturbation is latched by the plan and consumed by the
            // portfolio's decode path, mirroring the ILP incumbent path.
            FaultAction::Panic | FaultAction::PerturbIncumbent => {}
        }
    }

    fn out_of_budget(&self) -> bool {
        self.interrupted
            || self.stats.sat_conflicts >= self.limits.conflict_limit
            || self.limits.stop.is_stopped()
            || self.start.elapsed() >= self.limits.time_limit
    }

    /// Final-conflict analysis (the assumption analogue of [`Self::analyze`]):
    /// given an assumption `p` found falsified by propagation from earlier
    /// assumption levels, walks the implication trail backwards and collects
    /// the subset of assumptions the falsification depends on. Decisions on
    /// the trail are assumption placements by construction — the search never
    /// makes a free decision while assumptions are pending — so the returned
    /// literals are exactly assumption literals: `p` itself plus every
    /// assumption reachable through reason clauses from `¬p`.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut core = vec![p];
        if self.decision_level() == 0 {
            return core;
        }
        self.seen[p.var()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let v = self.trail[i].var();
            if !self.seen[v] {
                continue;
            }
            if self.reason[v] == NO_REASON {
                debug_assert!(self.level[v] > 0, "level-0 literals have no core share");
                core.push(self.trail[i]);
            } else {
                let ci = self.reason[v];
                for k in 0..self.clauses[ci].len() {
                    let q = self.clauses[ci][k];
                    if q.var() != v && self.level[q.var()] > 0 {
                        self.seen[q.var()] = true;
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var()] = false;
        core
    }

    fn search(&mut self, assumptions: &[Lit]) -> AssumeOutcome {
        let restart_base = 128u64;
        loop {
            let conflicts_before_restart = restart_base * luby(self.stats.sat_restarts);
            let mut conflicts_here = 0u64;
            loop {
                if let Some(conflict) = self.propagate() {
                    self.stats.sat_conflicts += 1;
                    conflicts_here += 1;
                    if self.decision_level() == 0 {
                        return AssumeOutcome::Unsat(Vec::new());
                    }
                    let (learned, back_level) = self.analyze(conflict);
                    self.backtrack(back_level);
                    self.stats.sat_learned += 1;
                    if learned.len() == 1 {
                        self.enqueue(learned[0], NO_REASON);
                    } else {
                        let idx = self.clauses.len();
                        self.watches[learned[0].index()].push(idx);
                        self.watches[learned[1].index()].push(idx);
                        let asserting = learned[0];
                        self.clauses.push(learned);
                        self.enqueue(asserting, idx);
                    }
                    if self.out_of_budget() {
                        return AssumeOutcome::Unknown;
                    }
                } else {
                    if self.interrupted || self.out_of_budget() {
                        return AssumeOutcome::Unknown;
                    }
                    if conflicts_here >= conflicts_before_restart && self.decision_level() > 0 {
                        self.stats.sat_restarts += 1;
                        if let Some(action) = self.fire(FaultSite::SatRestart) {
                            self.apply_fault(action);
                            if self.interrupted {
                                return AssumeOutcome::Unknown;
                            }
                        }
                        self.backtrack(0);
                        break; // next Luby segment
                    }
                    // Pending assumptions enter as pseudo-decisions, one
                    // level each, before any free VSIDS decision.
                    if (self.decision_level() as usize) < assumptions.len() {
                        let a = assumptions[self.decision_level() as usize];
                        match self.value(a) {
                            VAL_TRUE => {
                                // Already implied: open an empty level so
                                // the level index keeps tracking the prefix.
                                self.trail_lim.push(self.trail.len());
                            }
                            VAL_FALSE => {
                                let core = self.analyze_final(a);
                                return AssumeOutcome::Unsat(core);
                            }
                            _ => {
                                self.trail_lim.push(self.trail.len());
                                self.enqueue(a, NO_REASON);
                            }
                        }
                        continue;
                    }
                    if !self.decide() {
                        let model = self.assign.iter().map(|&v| v == VAL_TRUE).collect();
                        return AssumeOutcome::Sat(model);
                    }
                }
            }
        }
    }
}

/// Solves `cnf` under `limits`. Deterministic given the seed (and absent
/// cancellation or time limits binding mid-search). The effort comes back
/// in the `sat_*` and `faults_injected` counters of a [`SolveStats`], the
/// same record the ILP fills, so callers merge it with `absorb`.
pub fn solve(cnf: &Cnf, limits: &SatLimits) -> (SatOutcome, SolveStats) {
    let (out, stats) = solve_with_assumptions(cnf, &[], limits);
    let out = match out {
        AssumeOutcome::Sat(model) => SatOutcome::Sat(model),
        AssumeOutcome::Unsat(_) => SatOutcome::Unsat,
        AssumeOutcome::Unknown => SatOutcome::Unknown,
    };
    (out, stats)
}

/// Solves `cnf` under the given assumption literals.
///
/// Assumptions are placed as pseudo-decisions ahead of the search proper
/// (the MiniSat discipline), so an unsatisfiable answer comes back with an
/// unsat core: the subset of `assumptions` the refutation used, extracted
/// by final-conflict analysis over the implication trail. The core is not
/// guaranteed minimal — callers wanting a minimal unsatisfiable subset
/// shrink it by deletion (re-solving with members dropped), as
/// `optimod-analyze`'s explanation engine does.
pub fn solve_with_assumptions(
    cnf: &Cnf,
    assumptions: &[Lit],
    limits: &SatLimits,
) -> (AssumeOutcome, SolveStats) {
    let mut s = Solver::new(cnf, limits);
    for clause in cnf.clauses() {
        if !s.add_clause(clause) {
            return (AssumeOutcome::Unsat(Vec::new()), s.stats);
        }
    }
    if s.interrupted {
        return (AssumeOutcome::Unknown, s.stats);
    }
    let outcome = s.search(assumptions);
    (outcome, s.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SatLimits {
        SatLimits::default()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut cnf = Cnf::new();
        let v = cnf.new_var();
        cnf.add_clause(vec![Lit::pos(v)]);
        let (out, _) = solve(&cnf, &quick());
        assert_eq!(out, SatOutcome::Sat(vec![true]));

        cnf.add_clause(vec![Lit::neg(v)]);
        let (out, _) = solve(&cnf, &quick());
        assert_eq!(out, SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = Cnf::new();
        let _ = cnf.new_var();
        cnf.add_clause(vec![]);
        assert_eq!(solve(&cnf, &quick()).0, SatOutcome::Unsat);
    }

    #[test]
    fn exactly_one_chain_propagates() {
        // x0..x3 exactly-one, plus x0..x2 forbidden => x3 forced.
        let mut cnf = Cnf::new();
        let vs: Vec<usize> = (0..4).map(|_| cnf.new_var()).collect();
        cnf.add_clause(vs.iter().map(|&v| Lit::pos(v)).collect());
        for i in 0..4 {
            for j in i + 1..4 {
                cnf.add_clause(vec![Lit::neg(vs[i]), Lit::neg(vs[j])]);
            }
        }
        for &v in &vs[..3] {
            cnf.add_clause(vec![Lit::neg(v)]);
        }
        match solve(&cnf, &quick()).0 {
            SatOutcome::Sat(m) => assert_eq!(m, vec![false, false, false, true]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    /// Pigeonhole PHP(4,3): 4 pigeons, 3 holes — classically hard for
    /// resolution at scale, trivially unsat here, and a good exerciser of
    /// conflict analysis and learning.
    #[test]
    fn pigeonhole_is_unsat() {
        let (pigeons, holes) = (4usize, 3usize);
        let mut cnf = Cnf::new();
        let var = |p: usize, h: usize| p * holes + h;
        for _ in 0..pigeons * holes {
            cnf.new_var();
        }
        for p in 0..pigeons {
            cnf.add_clause((0..holes).map(|h| Lit::pos(var(p, h))).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    cnf.add_clause(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        let (out, stats) = solve(&cnf, &quick());
        assert_eq!(out, SatOutcome::Unsat);
        assert!(stats.sat_conflicts > 0, "PHP must require search");
    }

    #[test]
    fn deterministic_given_a_seed() {
        let mut cnf = Cnf::new();
        let vs: Vec<usize> = (0..30).map(|_| cnf.new_var()).collect();
        // Random-ish 3-clauses over 30 vars, fixed construction.
        for i in 0..60 {
            let a = vs[(i * 7) % 30];
            let b = vs[(i * 13 + 5) % 30];
            let c = vs[(i * 29 + 11) % 30];
            let l = |v: usize, neg: bool| if neg { Lit::neg(v) } else { Lit::pos(v) };
            cnf.add_clause(vec![l(a, i % 2 == 0), l(b, i % 3 == 0), l(c, i % 5 == 0)]);
        }
        let limits = SatLimits {
            seed: 42,
            ..Default::default()
        };
        let (out1, stats1) = solve(&cnf, &limits);
        let (out2, stats2) = solve(&cnf, &limits);
        assert_eq!(out1, out2);
        assert_eq!(stats1, stats2);
    }

    #[test]
    fn stop_flag_yields_unknown() {
        let mut cnf = Cnf::new();
        let v = cnf.new_var();
        let w = cnf.new_var();
        cnf.add_clause(vec![Lit::pos(v), Lit::pos(w)]);
        let limits = SatLimits::default();
        limits.stop.stop();
        assert_eq!(solve(&cnf, &limits).0, SatOutcome::Unknown);
    }

    #[test]
    fn assumption_core_names_only_the_culprits() {
        // ¬a ∨ ¬b: assuming {c, a, b} must come back unsat with a core
        // naming a and b — and never the irrelevant c.
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        let c = cnf.new_var();
        cnf.add_clause(vec![Lit::neg(a), Lit::neg(b)]);
        let assumptions = [Lit::pos(c), Lit::pos(a), Lit::pos(b)];
        let (out, _) = solve_with_assumptions(&cnf, &assumptions, &quick());
        let AssumeOutcome::Unsat(core) = out else {
            panic!("expected unsat under contradictory assumptions, got {out:?}");
        };
        assert!(!core.is_empty(), "refutation used assumptions");
        assert!(core.contains(&Lit::pos(a)) && core.contains(&Lit::pos(b)));
        assert!(!core.contains(&Lit::pos(c)), "c plays no part: {core:?}");
    }

    #[test]
    fn assumption_core_through_learned_conflicts() {
        // PHP(4,3) is unsat on its own; per-pigeon "placed" selectors make
        // it satisfiable until all four are assumed. The core must be
        // non-empty and consist of assumption literals only.
        let (pigeons, holes) = (4usize, 3usize);
        let mut cnf = Cnf::new();
        let var = |p: usize, h: usize| p * holes + h;
        for _ in 0..pigeons * holes {
            cnf.new_var();
        }
        let sels: Vec<usize> = (0..pigeons).map(|_| cnf.new_var()).collect();
        for (p, &sel) in sels.iter().enumerate() {
            let mut clause: Vec<Lit> = (0..holes).map(|h| Lit::pos(var(p, h))).collect();
            clause.push(Lit::neg(sel));
            cnf.add_clause(clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    cnf.add_clause(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        let assumptions: Vec<Lit> = sels.iter().map(|&s| Lit::pos(s)).collect();
        let (out, _) = solve_with_assumptions(&cnf, &assumptions, &quick());
        let AssumeOutcome::Unsat(core) = out else {
            panic!("fully selected PHP must be unsat, got {out:?}");
        };
        assert!(!core.is_empty());
        assert!(core.iter().all(|l| assumptions.contains(l)), "{core:?}");
        // Dropping any one pigeon leaves 3 pigeons in 3 holes: satisfiable.
        for drop in 0..pigeons {
            let partial: Vec<Lit> = assumptions
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != drop)
                .map(|(_, &l)| l)
                .collect();
            let (out, _) = solve_with_assumptions(&cnf, &partial, &quick());
            assert!(
                matches!(out, AssumeOutcome::Sat(_)),
                "dropping pigeon {drop} must satisfy, got {}",
                out.name()
            );
        }
    }

    #[test]
    fn unconditional_unsat_has_an_empty_core() {
        let mut cnf = Cnf::new();
        let v = cnf.new_var();
        let w = cnf.new_var();
        cnf.add_clause(vec![Lit::pos(v)]);
        cnf.add_clause(vec![Lit::neg(v)]);
        let (out, _) = solve_with_assumptions(&cnf, &[Lit::pos(w)], &quick());
        assert_eq!(out, AssumeOutcome::Unsat(Vec::new()));
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }
}
