//! Sparse LU factorization of the simplex basis with a product-form eta file.
//!
//! The basis matrices arising from the modulo-scheduling formulations are
//! extremely sparse (the 0-1-structured rows of Ineq. 20 carry a handful of
//! ±1 entries each), so an explicit dense inverse wastes both the
//! factorization (O(m³)) and every FTRAN/BTRAN (O(m²)). This module stores
//! the basis as `P B Q = L U` with
//!
//! * `L` unit lower triangular, held column-wise in pivot coordinates,
//! * `U` upper triangular, held column-wise (off-diagonal) plus a diagonal,
//! * `P`/`Q` the row/column pivot orders chosen by Markowitz selection with
//!   threshold partial pivoting,
//!
//! which supports all four triangular solves (`L`, `Lᵀ`, `U`, `Uᵀ`) needed
//! by FTRAN (`B v = a`) and BTRAN (`Bᵀ y = c`) with a single dense scratch
//! vector. Between refactorizations, basis changes are absorbed as
//! product-form eta updates: after a pivot on basis position `r` with
//! transformed column `v = B⁻¹ a`, the new basis is `B' = B·E` where `E` is
//! the identity with column `r` replaced by `v`, so
//!
//! * FTRAN applies the etas **in order** after the base LU solve
//!   (`z_r ← z_r / v_r`, then `z_i ← z_i − v_i z_r`), and
//! * BTRAN applies the transposed etas **in reverse** before the base
//!   transpose solve (`y_r ← (y_r − Σ_{i≠r} v_i y_i) / v_r`).
//!
//! The eta file is bounded: [`SparseBasis::eta_nnz`] lets the caller force a
//! refactorization once the accumulated update entries outgrow the factor.
//!
//! The eta file is also a stack the basis can return down. Every factor
//! [`SparseBasis`] builds (refactorization, identity reset, or a phase-1
//! sign change on the identity) and every eta
//! it pushes takes a stamp from one process-wide counter, so a
//! [`FactorMark`] (factor stamp, eta count, top eta's stamp) names one exact
//! factor state. [`SparseBasis::rollback`] truncates the eta file back to a
//! mark when the stamps still match and refuses otherwise: after a
//! refactorization or reset (new factor stamp), after the marked etas were
//! truncated and re-pushed (new top stamp), or for a mark taken on another
//! basis (stamps are never reused).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::tol::{ELIM_SKIP_TOL, LU_DROP_TOL, LU_PIVOT_REL, SINGULAR_TOL};

/// A numerically singular basis was handed to [`LuFactor::factor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Singular;

/// Sparse LU factors of one basis matrix, `P B Q = L U`.
///
/// All internal row/column indices of `L` and `U` are *pivot coordinates*
/// (elimination order); `row_of`/`col_of` map them back to original
/// constraint rows and basis positions.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuFactor {
    m: usize,
    /// `row_of[k]` = original constraint row eliminated at step `k`.
    row_of: Vec<u32>,
    /// `col_of[k]` = basis position whose column was the pivot at step `k`.
    col_of: Vec<u32>,
    /// Unit-lower-triangular multipliers, column-wise: `l_cols[k]` holds
    /// `(i, L_ik)` with `i > k`.
    l_cols: Vec<Vec<(u32, f64)>>,
    /// Off-diagonal of `U`, column-wise: `u_cols[k]` holds `(i, U_ik)` with
    /// `i < k`.
    u_cols: Vec<Vec<(u32, f64)>>,
    u_diag: Vec<f64>,
}

impl LuFactor {
    /// Factor for a ±1-diagonal basis (the initial slack basis, possibly
    /// with signed artificial columns): `B = diag(signs)` in original
    /// coordinates, no fill, no permutation.
    pub(crate) fn diagonal(signs: &[f64]) -> Self {
        let m = signs.len();
        LuFactor {
            m,
            row_of: (0..m as u32).collect(),
            col_of: (0..m as u32).collect(),
            l_cols: vec![Vec::new(); m],
            u_cols: vec![Vec::new(); m],
            u_diag: signs.to_vec(),
        }
    }

    /// True while the factor is a pure diagonal (no elimination happened),
    /// which is when [`LuFactor::set_diag`] is legal.
    pub(crate) fn is_diagonal(&self) -> bool {
        self.l_cols.iter().all(Vec::is_empty)
            && self.u_cols.iter().all(Vec::is_empty)
            && self
                .row_of
                .iter()
                .enumerate()
                .all(|(k, &r)| r as usize == k)
            && self
                .col_of
                .iter()
                .enumerate()
                .all(|(k, &c)| c as usize == k)
    }

    /// Overwrites one diagonal entry of a diagonal factor (phase 1 installs
    /// signed artificial columns into the initial slack basis this way).
    pub(crate) fn set_diag(&mut self, i: usize, sign: f64) {
        debug_assert!(self.is_diagonal(), "set_diag on a factored basis");
        self.u_diag[i] = sign;
    }

    /// Factorizes an `m × m` basis given by a column oracle: `col(q, f)`
    /// must call `f(row, value)` for every nonzero of the basis column at
    /// position `q`, each row at most once. Markowitz pivot selection —
    /// minimize `(row_count − 1)(col_count − 1)` over entries passing
    /// `|a| ≥ SINGULAR_TOL` and the relative threshold
    /// `|a| ≥ LU_PIVOT_REL · max|column|` — with ties broken toward larger
    /// magnitude, then smaller row, then smaller column.
    ///
    /// The pivot order is a contract: the factor is bit for bit the one
    /// [`LuFactor::reference_factor`] builds by sweeping the whole active
    /// submatrix at every step, and debug builds check that on every call.
    /// `scratch` only lends its allocations; it carries nothing between
    /// calls.
    pub(crate) fn factor(
        scratch: &mut LuScratch,
        m: usize,
        col: impl Fn(usize, &mut dyn FnMut(usize, f64)),
    ) -> Result<Self, Singular> {
        let result = scratch.factor(m, &col);
        #[cfg(debug_assertions)]
        {
            let reference = Self::reference_factor(m, &col);
            debug_assert!(
                match (&result, &reference) {
                    (Ok(a), Ok(b)) => a.same_bits(b),
                    (Err(Singular), Err(Singular)) => true,
                    _ => false,
                },
                "LU factor diverged from reference_factor (m = {m})"
            );
        }
        result
    }

    /// Bitwise equality: pivot orders, every `L`/`U` entry and the
    /// diagonal, values compared by `to_bits`.
    #[cfg(any(test, debug_assertions))]
    fn same_bits(&self, other: &LuFactor) -> bool {
        let ents = |a: &[Vec<(u32, f64)>], b: &[Vec<(u32, f64)>]| {
            a.len() == b.len()
                && a.iter().zip(b).all(|(a, b)| {
                    a.len() == b.len()
                        && a.iter()
                            .zip(b)
                            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
                })
        };
        self.m == other.m
            && self.row_of == other.row_of
            && self.col_of == other.col_of
            && ents(&self.l_cols, &other.l_cols)
            && ents(&self.u_cols, &other.u_cols)
            && self.u_diag.len() == other.u_diag.len()
            && self
                .u_diag
                .iter()
                .zip(&other.u_diag)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// The Markowitz factorization that defines [`LuFactor::factor`]'s
    /// output: it rescans the whole active submatrix at every step for the
    /// exact column maxima and counts, then keeps the first best entry of a
    /// row-major scan. O(m·nnz); kept only as the bitwise oracle.
    #[cfg(any(test, debug_assertions))]
    #[allow(clippy::needless_range_loop)] // pivot steps index parallel arrays
    fn reference_factor(
        m: usize,
        col: impl Fn(usize, &mut dyn FnMut(usize, f64)),
    ) -> Result<Self, Singular> {
        // Active-submatrix rows, sorted by column position. The invariant
        // maintained below: active rows only ever contain unpivoted columns,
        // so `rows[i].len()` is the live Markowitz row count.
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        for q in 0..m {
            col(q, &mut |i, a| {
                if a != 0.0 {
                    rows[i].push((q as u32, a));
                }
            });
        }
        for r in rows.iter_mut() {
            r.sort_unstable_by_key(|&(q, _)| q);
        }
        // Rows known to contain each column; entries can go stale after
        // elimination and are re-checked (lazy deletion).
        let mut col_rows: Vec<Vec<u32>> = vec![Vec::new(); m];
        for (i, r) in rows.iter().enumerate() {
            for &(q, _) in r {
                col_rows[q as usize].push(i as u32);
            }
        }
        let mut row_active = vec![true; m];
        let mut col_active = vec![true; m];
        let mut col_max = vec![0.0f64; m];
        let mut col_cnt = vec![0u32; m];

        let mut fac = LuFactor {
            m,
            row_of: Vec::with_capacity(m),
            col_of: Vec::with_capacity(m),
            l_cols: vec![Vec::new(); m],
            u_cols: vec![Vec::new(); m],
            u_diag: vec![0.0; m],
        };
        // L and U are recorded in original coordinates during elimination
        // and remapped to pivot coordinates once the full orders are known.
        let mut l_tmp: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        let mut u_rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        let mut spill: Vec<(u32, f64)> = Vec::new();

        for step in 0..m {
            // One sweep over the active submatrix recovers the exact column
            // maxima and counts (cheaper and safer than maintaining them
            // incrementally under drop tolerances).
            col_max.iter_mut().for_each(|x| *x = 0.0);
            col_cnt.iter_mut().for_each(|x| *x = 0);
            for (i, row) in rows.iter().enumerate() {
                if !row_active[i] {
                    continue;
                }
                for &(q, a) in row {
                    let q = q as usize;
                    col_cnt[q] += 1;
                    if a.abs() > col_max[q] {
                        col_max[q] = a.abs();
                    }
                }
            }
            // Markowitz selection over threshold-eligible entries.
            let mut best: Option<(usize, usize, f64, u64)> = None; // (row, col, val, score)
            for (i, row) in rows.iter().enumerate() {
                if !row_active[i] {
                    continue;
                }
                let rdeg = row.len() as u64;
                for &(q, a) in row {
                    let q = q as usize;
                    if a.abs() < SINGULAR_TOL || a.abs() < LU_PIVOT_REL * col_max[q] {
                        continue;
                    }
                    let score = (rdeg - 1) * (col_cnt[q] as u64 - 1);
                    let better = match best {
                        None => true,
                        Some((_, _, bv, bs)) => score < bs || (score == bs && a.abs() > bv.abs()),
                    };
                    if better {
                        best = Some((i, q, a, score));
                    }
                }
            }
            let Some((pr, pc, pv, _)) = best else {
                return Err(Singular);
            };
            fac.row_of.push(pr as u32);
            fac.col_of.push(pc as u32);
            fac.u_diag[step] = pv;
            row_active[pr] = false;
            col_active[pc] = false;

            // The pivot row (minus the pivot entry) becomes row `step` of U.
            let pivot_row = std::mem::take(&mut rows[pr]);
            u_rows[step] = pivot_row
                .iter()
                .filter(|&&(q, _)| q as usize != pc)
                .copied()
                .collect();

            // Eliminate the pivot column from every other active row.
            let candidates = std::mem::take(&mut col_rows[pc]);
            for &ri in &candidates {
                let ri = ri as usize;
                if !row_active[ri] {
                    continue;
                }
                let Ok(pos) = rows[ri].binary_search_by_key(&(pc as u32), |&(q, _)| q) else {
                    continue; // stale index entry
                };
                let mult = rows[ri][pos].1 / pv;
                l_tmp[step].push((ri as u32, mult));
                // rows[ri] ← rows[ri] − mult · pivot_row, merged by column.
                spill.clear();
                let old = &rows[ri];
                let mut a_it = old.iter().copied().peekable();
                let mut b_it = pivot_row.iter().copied().peekable();
                while a_it.peek().is_some() || b_it.peek().is_some() {
                    let take_a = match (a_it.peek(), b_it.peek()) {
                        (Some(&(qa, _)), Some(&(qb, _))) => {
                            if qa == qb {
                                let (q, av) = a_it.next().unwrap();
                                let (_, bv) = b_it.next().unwrap();
                                if q as usize != pc {
                                    let x = av - mult * bv;
                                    if x.abs() > LU_DROP_TOL {
                                        spill.push((q, x));
                                    }
                                }
                                continue;
                            }
                            qa < qb
                        }
                        (Some(_), None) => true,
                        (None, Some(_)) => false,
                        (None, None) => unreachable!(),
                    };
                    if take_a {
                        let (q, av) = a_it.next().unwrap();
                        if q as usize != pc {
                            spill.push((q, av));
                        }
                    } else {
                        let (q, bv) = b_it.next().unwrap();
                        if q as usize != pc {
                            let x = -mult * bv;
                            if x.abs() > LU_DROP_TOL {
                                // Fill-in: register the row under the new column.
                                col_rows[q as usize].push(ri as u32);
                                spill.push((q, x));
                            }
                        }
                    }
                }
                rows[ri].clear();
                rows[ri].extend_from_slice(&spill);
            }
        }
        debug_assert!(col_active.iter().all(|&a| !a));

        // Remap L and U from original coordinates into pivot coordinates.
        (fac.l_cols, fac.u_cols) = pivot_coords(&fac.row_of, &fac.col_of, &l_tmp, &u_rows);
        Ok(fac)
    }

    /// Solves `B x = rhs`. `rhs` is dense in original row coordinates and is
    /// consumed as scratch; the solution lands in `out`, indexed by **basis
    /// position**. `work` is an `m`-length scratch vector.
    pub(crate) fn ftran(&self, rhs: &[f64], work: &mut [f64], out: &mut [f64]) {
        let m = self.m;
        // Permute into pivot coordinates: w = P·rhs.
        for k in 0..m {
            work[k] = rhs[self.row_of[k] as usize];
        }
        // Forward solve L z = w (column-oriented).
        for k in 0..m {
            let val = work[k];
            if val != 0.0 {
                for &(i, mult) in &self.l_cols[k] {
                    work[i as usize] -= mult * val;
                }
            }
        }
        // Back solve U x = z (column-oriented).
        for k in (0..m).rev() {
            let xk = work[k] / self.u_diag[k];
            work[k] = xk;
            if xk != 0.0 {
                for &(i, v) in &self.u_cols[k] {
                    work[i as usize] -= v * xk;
                }
            }
        }
        // Scatter back to basis positions: x = Q·w.
        for k in 0..m {
            out[self.col_of[k] as usize] = work[k];
        }
    }

    /// Solves `Bᵀ y = c`. `c` is dense, indexed by basis position; the
    /// solution lands in `out`, indexed by original constraint row. `work`
    /// is an `m`-length scratch vector.
    pub(crate) fn btran(&self, c: &[f64], work: &mut [f64], out: &mut [f64]) {
        let m = self.m;
        // With M = L·U in pivot coordinates, Bᵀ y = c becomes Mᵀ yp = cp
        // where cp_q = c[col_of[q]] and yp_k = y[row_of[k]].
        // Forward solve Uᵀ w = cp (u_cols[q] is row q of Uᵀ).
        for q in 0..m {
            let mut s = c[self.col_of[q] as usize];
            for &(i, v) in &self.u_cols[q] {
                s -= v * work[i as usize];
            }
            work[q] = s / self.u_diag[q];
        }
        // Back solve Lᵀ yp = w (l_cols[k] is row k of Lᵀ, entries i > k).
        for k in (0..m).rev() {
            let mut s = work[k];
            for &(i, mult) in &self.l_cols[k] {
                s -= mult * work[i as usize];
            }
            work[k] = s;
        }
        for k in 0..m {
            out[self.row_of[k] as usize] = work[k];
        }
    }
}

/// Sentinel "no index" of a [`CountLists`] link.
const NIL: u32 = u32::MAX;

/// Counts from this one up share the last bucket of a [`CountLists`]: the
/// pivot search seldom looks that far, and a long row or column that loses
/// entries one by one then stays where it is.
const BUCKETS: usize = 8;

/// Indices bucketed by a count (active rows by degree, active columns by
/// count) as doubly linked lists: insert, remove and re-bucket are O(1),
/// and the pivot search walks one bucket at a time. Counts of [`BUCKETS`]
/// and more share the last bucket.
#[derive(Debug, Default)]
struct CountLists {
    /// First index of each bucket, `NIL` when empty.
    head: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    /// The bucket each index is filed under.
    count: Vec<u32>,
}

impl CountLists {
    fn reset(&mut self, n: usize) {
        self.head.clear();
        self.head.resize(BUCKETS + 1, NIL);
        self.next.clear();
        self.next.resize(n, NIL);
        self.prev.clear();
        self.prev.resize(n, NIL);
        self.count.clear();
        self.count.resize(n, 0);
    }

    fn insert(&mut self, i: usize, count: u32) {
        let count = count.min(BUCKETS as u32);
        let h = self.head[count as usize];
        self.count[i] = count;
        self.prev[i] = NIL;
        self.next[i] = h;
        if h != NIL {
            self.prev[h as usize] = i as u32;
        }
        self.head[count as usize] = i as u32;
    }

    fn remove(&mut self, i: usize) {
        let (p, n) = (self.prev[i], self.next[i]);
        if p == NIL {
            self.head[self.count[i] as usize] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
    }

    fn refile(&mut self, i: usize, count: u32) {
        if self.count[i] != count.min(BUCKETS as u32) {
            self.remove(i);
            self.insert(i, count);
        }
    }
}

/// Heap key of a singleton entry: the smallest key is the tie-break
/// winner, larger `|a|` first (`|a|` is non-negative, so its bit pattern
/// orders like its value), then smaller row, then smaller column, packed
/// into one integer in that order.
type SingletonKey = Reverse<u128>;

fn singleton_key(i: usize, q: usize, abs: f64) -> SingletonKey {
    Reverse((u128::from(!abs.to_bits()) << 64) | (i as u128) << 32 | q as u128)
}

/// Threshold test of a pivot candidate, written as the reference scan
/// writes it.
fn eligible(abs: f64, col_max: f64) -> bool {
    !(abs < SINGULAR_TOL || abs < LU_PIVOT_REL * col_max)
}

/// The position of column `q` in a sorted active row, if present.
fn find(row: &[(u32, f64)], q: usize) -> Option<usize> {
    row.binary_search_by_key(&(q as u32), |&(c, _)| c).ok()
}

/// The value of column `q` in a sorted active row, if present.
fn lookup(row: &[(u32, f64)], q: usize) -> Option<f64> {
    find(row, q).map(|p| row[p].1)
}

/// One Markowitz pivot candidate, ordered by score, then `−|a|`, then
/// row, then column: the order in which the reference's row-major scan
/// keeps the first best entry it meets.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    score: u64,
    row: usize,
    col: usize,
    val: f64,
}

/// Keeps `c` if it beats the best candidate so far.
fn offer(best: &mut Option<Candidate>, c: Candidate) {
    if best.is_none_or(|b| c.beats(&b)) {
        *best = Some(c);
    }
}

impl Candidate {
    fn beats(&self, other: &Candidate) -> bool {
        let (a, b) = (self.val.abs(), other.val.abs());
        self.score < other.score
            || (self.score == other.score
                && (a > b || (a == b && (self.row, self.col) < (other.row, other.col))))
    }
}

/// The exact count and maximum magnitude of one active column, kept up to
/// date entry by entry. The maximum is exact while some entry attains it
/// (`at_max > 0`); once the last such entry goes, it is only an upper bound
/// until the column is rescanned.
#[derive(Debug, Clone, Copy, Default)]
struct ColStat {
    cnt: u32,
    max: f64,
    /// Active entries with `|a| == max`.
    at_max: u32,
}

impl ColStat {
    fn add(&mut self, abs: f64) {
        self.cnt += 1;
        if abs > self.max {
            self.max = abs;
            self.at_max = 1;
        } else if abs == self.max {
            self.at_max += 1;
        }
    }

    fn remove(&mut self, abs: f64) {
        self.cnt -= 1;
        if abs == self.max {
            self.at_max -= 1;
        }
    }

    /// True when `max` is only an upper bound.
    fn stale(&self) -> bool {
        self.at_max == 0 && self.cnt > 0
    }
}

/// A basis column oracle, as [`LuFactor::factor`] takes it.
type Oracle<'a> = dyn Fn(usize, &mut dyn FnMut(usize, f64)) + 'a;

/// Working storage of [`LuFactor::factor`]: the active submatrix and the
/// pivot-search structures, kept by [`SparseBasis`] so that each
/// refactorization reuses the previous one's allocations.
///
/// The search never sweeps the active submatrix. Row degrees, column
/// counts and column maxima are updated entry by entry as rows are
/// eliminated (see [`ColStat`]). A column is rescanned when it becomes a
/// singleton, whose entry must be found, and when a threshold test fails
/// against a maximum that went stale: a stale maximum is an upper bound,
/// so an entry that passes against it passes. Entries whose
/// row or column is a singleton score 0 and wait in a heap ordered by the
/// tie-break; pivoting one moves no value of the active submatrix, so a
/// column singleton only drops its row and a row singleton only drops its
/// column from the other rows. Without one, rows and columns are
/// searched by count `k = 2, 3, …` until `(k − 1)²`, the lowest score an
/// unseen entry can have, is strictly greater than the best score found,
/// so every tie has been seen; the columns of the last, shared bucket are
/// searched whole.
#[derive(Debug, Default)]
pub(crate) struct LuScratch {
    /// Active-submatrix rows, sorted by column position; active rows only
    /// ever contain unpivoted columns, so `rows[i].len()` is the row's
    /// Markowitz count.
    rows: Vec<Vec<(u32, f64)>>,
    /// Rows known to contain each column, in registration order (which
    /// fixes the order of `L`'s entries). Entries go stale after
    /// elimination and are re-checked (lazy deletion).
    col_rows: Vec<Vec<u32>>,
    row_active: Vec<bool>,
    col_active: Vec<bool>,
    /// Count and maximum magnitude of each active column.
    cols: Vec<ColStat>,
    /// Stamps, one per row, that drop repeated registrations in a rescan.
    mark: Vec<u32>,
    /// Stamps, one per column: the pivot row's columns carry the step's
    /// stamp, the columns an eliminated row already holds the row's.
    col_mark: Vec<u32>,
    /// The pivot row's values, scattered by column.
    col_val: Vec<f64>,
    stamp: u32,
    row_lists: CountLists,
    col_lists: CountLists,
    /// Every entry that became a row or column singleton (lazy deletion:
    /// a singleton keeps its value until its row or column is pivoted).
    singletons: BinaryHeap<SingletonKey>,
    /// Singletons that failed the relative threshold this step.
    deferred: Vec<SingletonKey>,
    /// The pivot row of the current step.
    pivot_row: Vec<(u32, f64)>,
    /// Fill-in of the row being eliminated, while it merges in.
    spill: Vec<(u32, f64)>,
    /// The columns of `L`, one per step, holding original rows until the
    /// factor is assembled.
    l_steps: Vec<Vec<(u32, f64)>>,
    /// The off-diagonal columns of `U`, by original column. A pivot row's
    /// entries go in at its step, so each column fills in row order.
    u_by_col: Vec<Vec<(u32, f64)>>,
    /// Each original row's step, while a factor is assembled.
    step_of_row: Vec<u32>,
}

/// Scratch holds no state between factorizations, so a clone starts empty
/// instead of copying buffers.
impl Clone for LuScratch {
    fn clone(&self) -> Self {
        LuScratch::default()
    }
}

impl LuScratch {
    fn factor(&mut self, m: usize, col: &Oracle) -> Result<LuFactor, Singular> {
        self.load(m, col);
        let mut row_of = Vec::with_capacity(m);
        let mut col_of = Vec::with_capacity(m);
        let mut u_diag = Vec::with_capacity(m);
        for step in 0..m {
            let p = self.select().ok_or(Singular)?;
            row_of.push(p.row as u32);
            col_of.push(p.col as u32);
            u_diag.push(p.val);
            self.eliminate(step, p.row, p.col, p.val);
        }
        // Into pivot coordinates: `L`'s rows by their steps, `U`'s columns
        // by the steps that pivoted them. The factor gets copies, allocated
        // in pivot order at their exact sizes, which keeps its columns
        // together for the solves; the scratch keeps its buffers.
        self.step_of_row.resize(m, 0);
        for (k, &r) in row_of.iter().enumerate() {
            self.step_of_row[r as usize] = k as u32;
        }
        let mut l_cols = Vec::with_capacity(m);
        for (k, l) in self.l_steps[..m].iter_mut().enumerate() {
            for e in l.iter_mut() {
                e.0 = self.step_of_row[e.0 as usize];
            }
            debug_assert!(l.iter().all(|&(i, _)| i as usize > k));
            l_cols.push(l.clone());
        }
        let u_cols = col_of
            .iter()
            .map(|&q| self.u_by_col[q as usize].clone())
            .collect();
        Ok(LuFactor {
            m,
            row_of,
            col_of,
            l_cols,
            u_cols,
            u_diag,
        })
    }

    /// Loads the basis into the active submatrix in one pass over the
    /// oracle and files every row, column and singleton.
    fn load(&mut self, m: usize, col: &Oracle) {
        for v in [&mut self.rows, &mut self.l_steps, &mut self.u_by_col] {
            v.resize_with(m, Vec::new);
            v[..m].iter_mut().for_each(Vec::clear);
        }
        self.cols.clear();
        self.cols.resize(m, ColStat::default());
        let (rows, cols) = (&mut self.rows, &mut self.cols);
        // Columns arrive in position order, so every row comes out sorted.
        for (q, stat) in cols.iter_mut().enumerate() {
            col(q, &mut |i, a| {
                if a != 0.0 {
                    rows[i].push((q as u32, a));
                    stat.add(a.abs());
                }
            });
        }
        // Registration is in row order.
        self.col_rows.resize_with(m, Vec::new);
        self.col_rows[..m].iter_mut().for_each(Vec::clear);
        for (i, r) in self.rows[..m].iter().enumerate() {
            for &(q, _) in r {
                self.col_rows[q as usize].push(i as u32);
            }
        }
        self.mark.clear();
        self.mark.resize(m, 0);
        self.col_mark.clear();
        self.col_mark.resize(m, 0);
        self.col_val.resize(m, 0.0);
        self.stamp = 0;
        self.row_active.clear();
        self.row_active.resize(m, true);
        self.col_active.clear();
        self.col_active.resize(m, true);
        self.row_lists.reset(m);
        self.col_lists.reset(m);
        for i in 0..m {
            self.row_lists.insert(i, self.rows[i].len() as u32);
            self.col_lists.insert(i, self.cols[i].cnt);
        }
        let mut singletons = std::mem::take(&mut self.singletons).into_vec();
        singletons.clear();
        for (i, r) in self.rows[..m].iter().enumerate() {
            if let [(q, a)] = r[..] {
                singletons.push(singleton_key(i, q as usize, a.abs()));
            }
        }
        for (q, list) in self.col_rows[..m].iter().enumerate() {
            // An entry alone in its row and its column is filed once.
            if let [i] = list[..] {
                if self.rows[i as usize].len() > 1 {
                    singletons.push(singleton_key(i as usize, q, self.cols[q].max));
                }
            }
        }
        self.singletons = BinaryHeap::from(singletons);
    }

    /// The pivot the reference scan would pick, or `None` when no entry
    /// passes the threshold.
    fn select(&mut self) -> Option<Candidate> {
        // Score 0: the smallest valid, eligible singleton key. A singleton's
        // value never changes while its row and column are active, so a
        // dead or too-small one is dropped for good; one under the relative
        // threshold may pass later, when its column's maximum falls.
        let mut found = None;
        while let Some(&top) = self.singletons.peek() {
            let Reverse(key) = top;
            let (i, q) = ((key >> 32) as u32 as usize, key as u32 as usize);
            let abs = f64::from_bits(!((key >> 64) as u64));
            if !self.row_active[i] || !self.col_active[q] || abs < SINGULAR_TOL {
                self.singletons.pop();
            } else if !self.passes(abs, q) {
                self.deferred.push(top);
                self.singletons.pop();
            } else {
                let val = lookup(&self.rows[i], q).expect("live singleton");
                found = Some(Candidate {
                    score: 0,
                    row: i,
                    col: q,
                    val,
                });
                break;
            }
        }
        self.singletons.extend(self.deferred.drain(..));
        if found.is_some() {
            return found;
        }
        // Count-ordered search. After bucket `k`, an unseen entry has row
        // and column counts above `k`, so its score is at least `k²`.
        let mut best: Option<Candidate> = None;
        for k in 2..BUCKETS {
            if best.is_some_and(|b| ((k - 1) * (k - 1)) as u64 > b.score) {
                return best;
            }
            self.scan_columns(k, &mut best);
            // Every column of count `k` or less has been seen, so an unseen
            // entry of a row of count `k` scores at least `(k − 1)·k`.
            if best.is_some_and(|b| ((k - 1) * k) as u64 > b.score) {
                return best;
            }
            let mut i = self.row_lists.head[k];
            while i != NIL {
                let ii = i as usize;
                i = self.row_lists.next[ii];
                for x in 0..k {
                    let (q, val) = self.rows[ii][x];
                    let q = q as usize;
                    let score = (k as u64 - 1) * (self.cols[q].cnt as u64 - 1);
                    if best.is_some_and(|b| score > b.score) {
                        continue;
                    }
                    if self.passes(val.abs(), q) {
                        offer(
                            &mut best,
                            Candidate {
                                score,
                                row: ii,
                                col: q,
                                val,
                            },
                        );
                    }
                }
            }
        }
        // What is left unseen lies in the columns of the last bucket.
        if best.is_none_or(|b| ((BUCKETS - 1) * (BUCKETS - 1)) as u64 <= b.score) {
            self.scan_columns(BUCKETS, &mut best);
        }
        best
    }

    /// Offers every eligible entry of the columns filed under bucket `k`
    /// that could beat `best`.
    fn scan_columns(&mut self, k: usize, best: &mut Option<Candidate>) {
        let mut q = self.col_lists.head[k];
        while q != NIL {
            let qi = q as usize;
            q = self.col_lists.next[qi];
            if self.cols[qi].stale() {
                self.rescan(qi);
            }
            let ColStat { cnt, max, .. } = self.cols[qi];
            if self.col_rows[qi].len() > 2 * cnt as usize {
                let row_active = &self.row_active;
                self.col_rows[qi].retain(|&i| row_active[i as usize]);
            }
            for &i in &self.col_rows[qi] {
                let i = i as usize;
                if !self.row_active[i] {
                    continue;
                }
                // Score before looking the entry up (the registration may
                // be stale, its row even empty): a higher score cannot win.
                let score = (self.rows[i].len() as u64).saturating_sub(1) * (cnt as u64 - 1);
                if best.is_some_and(|b| score > b.score) {
                    continue;
                }
                let Some(val) = lookup(&self.rows[i], qi) else {
                    continue;
                };
                if eligible(val.abs(), max) {
                    offer(
                        best,
                        Candidate {
                            score,
                            row: i,
                            col: qi,
                            val,
                        },
                    );
                }
            }
        }
    }

    /// The threshold test of an entry of column `q`, rescanning the column
    /// when the entry fails only against a stale maximum.
    fn passes(&mut self, abs: f64, q: usize) -> bool {
        if eligible(abs, self.cols[q].max) {
            return true;
        }
        if !self.cols[q].stale() {
            return false;
        }
        self.rescan(q);
        eligible(abs, self.cols[q].max)
    }

    /// Recomputes the count and maximum of active column `q` from its
    /// entries, and returns the row of one of them.
    fn rescan(&mut self, q: usize) -> Option<usize> {
        rescan(
            q,
            &mut self.col_rows[q],
            &mut self.cols[q],
            &self.rows,
            &self.row_active,
            &mut self.mark,
            &mut self.stamp,
        )
    }

    /// Pivots on `(pr, pc)`: the pivot row becomes a row of `U`, every
    /// other active row holding `pc` is eliminated (its multiplier becomes
    /// an entry of this step's `L` column), and the counts and singletons
    /// of the touched rows and columns are brought up to date.
    fn eliminate(&mut self, step: usize, pr: usize, pc: usize, pv: f64) {
        let LuScratch {
            rows,
            col_rows,
            row_active,
            col_active,
            cols,
            mark,
            col_mark,
            col_val,
            stamp,
            row_lists,
            col_lists,
            singletons,
            pivot_row,
            spill,
            l_steps,
            u_by_col,
            ..
        } = self;
        let l_col = &mut l_steps[step];
        row_active[pr] = false;
        col_active[pc] = false;
        row_lists.remove(pr);
        col_lists.remove(pc);

        // The pivot row (minus the pivot entry) becomes the next row of U,
        // and its entries scatter by column for the eliminations below.
        std::mem::swap(pivot_row, &mut rows[pr]);
        rows[pr].clear();
        *stamp += 1;
        let pivot_stamp = *stamp;
        for &(q, v) in pivot_row.iter() {
            let q = q as usize;
            if q != pc {
                u_by_col[q].push((step as u32, v));
                cols[q].remove(v.abs());
                col_mark[q] = pivot_stamp;
                col_val[q] = v;
            }
        }
        // From here on the pivot row holds its other columns only.
        pivot_row.remove(find(pivot_row, pc).expect("pivot entry"));

        // Eliminate the pivot column from every other active row:
        // rows[ri] ← rows[ri] − mult · pivot_row, in place. Fill-in
        // registers rows under other columns only, so the pivot column's
        // list holds still while it is walked.
        let walk = std::mem::take(&mut col_rows[pc]);
        for &ri in &walk {
            let ri = ri as usize;
            if !row_active[ri] {
                continue;
            }
            let row = &mut rows[ri];
            let Some(pos) = find(row, pc) else {
                continue; // stale index entry
            };
            let mult = row[pos].1 / pv;
            l_col.push((ri as u32, mult));
            if pivot_row.is_empty() {
                row.remove(pos);
            } else {
                // Update the entries the pivot row shares, marking them; an
                // update that cancels leaves the row, as does the pivot
                // column's entry.
                *stamp += 1;
                let row_stamp = *stamp;
                let mut kept = 0;
                for x in 0..row.len() {
                    let (q, av) = row[x];
                    let qi = q as usize;
                    if col_mark[qi] != pivot_stamp {
                        if x != pos {
                            row[kept] = (q, av);
                            kept += 1;
                        }
                        continue;
                    }
                    col_mark[qi] = row_stamp;
                    let v = av - mult * col_val[qi];
                    let c = &mut cols[qi];
                    c.remove(av.abs());
                    if v.abs() > LU_DROP_TOL {
                        c.add(v.abs());
                        row[kept] = (q, v);
                        kept += 1;
                    }
                }
                row.truncate(kept);
                // The pivot row's other columns are fill-in.
                for &(q, _) in pivot_row.iter() {
                    let qi = q as usize;
                    if col_mark[qi] == row_stamp {
                        col_mark[qi] = pivot_stamp;
                        continue;
                    }
                    let v = -mult * col_val[qi];
                    if v.abs() > LU_DROP_TOL {
                        // Fill-in: register the row under the new column.
                        col_rows[qi].push(ri as u32);
                        cols[qi].add(v.abs());
                        row.push((q, v));
                    }
                }
                merge_tail(row, kept, spill);
            }
            row_lists.refile(ri, row.len() as u32);
            if let [(q, v)] = row[..] {
                singletons.push(singleton_key(ri, q as usize, v.abs()));
            }
        }
        col_rows[pc] = walk;
        col_rows[pc].clear();

        // Only the pivot row's columns lost or changed entries: re-bucket
        // them, and rescan one that became a singleton (whose entry must be
        // found). A stale maximum waits for a threshold test that needs it.
        for &(q, _) in pivot_row.iter() {
            let q = q as usize;
            col_lists.refile(q, cols[q].cnt);
            if cols[q].cnt == 1 {
                let i = rescan(
                    q,
                    &mut col_rows[q],
                    &mut cols[q],
                    rows,
                    row_active,
                    mark,
                    stamp,
                )
                .expect("a counted entry");
                singletons.push(singleton_key(i, q, cols[q].max));
            }
        }
    }
}

/// Merges the sorted run `row[sorted..]` into the sorted run before it.
fn merge_tail(row: &mut [(u32, f64)], sorted: usize, spill: &mut Vec<(u32, f64)>) {
    if sorted == row.len() {
        return;
    }
    spill.clear();
    spill.extend_from_slice(&row[sorted..]);
    let (mut a, mut b) = (sorted, spill.len());
    for w in (0..row.len()).rev() {
        if b == 0 {
            break;
        }
        if a > 0 && row[a - 1].0 > spill[b - 1].0 {
            a -= 1;
            row[w] = row[a];
        } else {
            b -= 1;
            row[w] = spill[b];
        }
    }
}

/// Recomputes the count and maximum of active column `q`, dropping
/// pivoted rows and repeated registrations (a row whose entry cancelled
/// and filled in again) from its list. First occurrences are kept, so the
/// registration order stays as it was. Returns the row of the last entry
/// counted.
fn rescan(
    q: usize,
    list: &mut Vec<u32>,
    stat: &mut ColStat,
    rows: &[Vec<(u32, f64)>],
    row_active: &[bool],
    mark: &mut [u32],
    stamp: &mut u32,
) -> Option<usize> {
    *stamp += 1;
    list.retain(|&i| {
        let i = i as usize;
        row_active[i] && std::mem::replace(&mut mark[i], *stamp) != *stamp
    });
    let mut fresh = ColStat::default();
    let mut last = None;
    for &i in list.iter() {
        if let Some(a) = lookup(&rows[i as usize], q) {
            fresh.add(a.abs());
            last = Some(i as usize);
        }
    }
    debug_assert_eq!(fresh.cnt, stat.cnt, "column {q} count drifted");
    *stat = fresh;
    last
}

/// Builds `L` and `U` column-wise in pivot coordinates from what
/// [`LuFactor::reference_factor`]'s elimination recorded in original
/// coordinates: `l_steps[k]`, the
/// multipliers `(row, L)` of step `k`, keeps its entry order, and
/// `u_steps[k]`, the pivot row `(column, U)` of step `k` without its pivot,
/// scatters into columns in step order, which leaves every column sorted
/// by row.
#[cfg(any(test, debug_assertions))]
#[allow(clippy::type_complexity)] // the two factors, as `LuFactor` holds them
fn pivot_coords(
    row_of: &[u32],
    col_of: &[u32],
    l_steps: &[Vec<(u32, f64)>],
    u_steps: &[Vec<(u32, f64)>],
) -> (Vec<Vec<(u32, f64)>>, Vec<Vec<(u32, f64)>>) {
    let m = row_of.len();
    let mut pos_of_row = vec![0u32; m];
    let mut pos_of_col = vec![0u32; m];
    for k in 0..m {
        pos_of_row[row_of[k] as usize] = k as u32;
        pos_of_col[col_of[k] as usize] = k as u32;
    }
    let l_cols = l_steps
        .iter()
        .enumerate()
        .map(|(k, step)| {
            let col: Vec<(u32, f64)> = step
                .iter()
                .map(|&(ri, v)| (pos_of_row[ri as usize], v))
                .collect();
            debug_assert!(col.iter().all(|&(i, _)| i as usize > k));
            col
        })
        .collect();
    let mut u_cnt = vec![0usize; m];
    for &(q, _) in u_steps.iter().flatten() {
        u_cnt[pos_of_col[q as usize] as usize] += 1;
    }
    let mut u_cols: Vec<Vec<(u32, f64)>> = u_cnt.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (k, step) in u_steps.iter().enumerate() {
        for &(q, v) in step {
            let qc = pos_of_col[q as usize] as usize;
            debug_assert!(qc > k);
            u_cols[qc].push((k as u32, v));
        }
    }
    (l_cols, u_cols)
}

/// One product-form update: basis position `r` was replaced by a column
/// whose transformed image was `v = B⁻¹ a`.
#[derive(Debug, Clone)]
struct Eta {
    r: u32,
    /// Stamp from [`next_stamp`] identifying this push.
    stamp: u64,
    /// `1 / v_r`.
    inv_piv: f64,
    /// This eta's range in the file's entry arrays: `(i, v_i)` for `i ≠ r`
    /// with `|v_i|` above the skip tolerance.
    start: usize,
    end: usize,
}

/// Bounded product-form eta file layered on top of an [`LuFactor`]. The
/// off-pivot entries of all etas live in two flat arrays, eta after eta,
/// so FTRAN and BTRAN stream through contiguous memory.
#[derive(Debug, Clone, Default)]
pub(crate) struct EtaFile {
    etas: Vec<Eta>,
    index: Vec<u32>,
    value: Vec<f64>,
}

impl EtaFile {
    pub(crate) fn clear(&mut self) {
        self.etas.clear();
        self.index.clear();
        self.value.clear();
    }

    /// Number of eta updates currently stacked on the base factor.
    pub(crate) fn len(&self) -> usize {
        self.etas.len()
    }

    /// Stamp of the `len`-th eta (the top of a file of that length), or 0
    /// for an empty prefix.
    fn stamp_below(&self, len: usize) -> u64 {
        len.checked_sub(1).map_or(0, |k| self.etas[k].stamp)
    }

    /// Drops every eta above the first `len`.
    fn truncate(&mut self, len: usize) {
        if let Some(eta) = self.etas.get(len) {
            self.index.truncate(eta.start);
            self.value.truncate(eta.start);
            self.etas.truncate(len);
        }
    }

    /// Total stored off-pivot entries across all etas — the FTRAN/BTRAN
    /// surcharge per solve, and the quantity the refactorization cadence
    /// bounds.
    pub(crate) fn nnz(&self) -> usize {
        self.index.len()
    }

    /// Records the pivot `(r, v)`; `v` is the dense transformed column.
    pub(crate) fn push(&mut self, r: usize, v: &[f64]) {
        let start = self.index.len();
        for (i, &x) in v.iter().enumerate() {
            if i != r && x.abs() > ELIM_SKIP_TOL {
                self.index.push(i as u32);
                self.value.push(x);
            }
        }
        self.etas.push(Eta {
            r: r as u32,
            stamp: next_stamp(),
            inv_piv: 1.0 / v[r],
            start,
            end: self.index.len(),
        });
    }

    /// Applies the eta inverses in chronological order (FTRAN tail):
    /// `z ← E_k⁻¹ ⋯ E_1⁻¹ z`, all in basis-position coordinates.
    pub(crate) fn ftran(&self, z: &mut [f64]) {
        for eta in &self.etas {
            let zr = z[eta.r as usize] * eta.inv_piv;
            z[eta.r as usize] = zr;
            if zr != 0.0 {
                let range = eta.start..eta.end;
                for (&i, &v) in self.index[range.clone()].iter().zip(&self.value[range]) {
                    z[i as usize] -= v * zr;
                }
            }
        }
    }

    /// Applies the transposed eta inverses in reverse order (BTRAN head):
    /// `y ← E_1⁻ᵀ ⋯ E_k⁻ᵀ y`, all in basis-position coordinates.
    pub(crate) fn btran(&self, y: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let range = eta.start..eta.end;
            let mut s = y[eta.r as usize];
            for (&i, &v) in self.index[range.clone()].iter().zip(&self.value[range]) {
                s -= v * y[i as usize];
            }
            y[eta.r as usize] = s * eta.inv_piv;
        }
    }
}

/// Source of factor and eta stamps, shared by every [`SparseBasis`] in the
/// process so a stamp never repeats. It starts at 1: stamp 0 is the
/// default basis's factor and the empty eta prefix.
static STAMPS: AtomicU64 = AtomicU64::new(1);

fn next_stamp() -> u64 {
    STAMPS.fetch_add(1, Ordering::Relaxed)
}

/// One exact state of a [`SparseBasis`]: the base factor and the eta
/// prefix stacked on it. Plain integers, so a mark costs nothing to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FactorMark {
    lu: u64,
    etas: usize,
    top: u64,
}

/// The complete sparse basis representation: base LU factor + eta file +
/// scratch storage, exposing exactly the operations the simplex loops need.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseBasis {
    m: usize,
    lu: LuFactor,
    /// Stamp of `lu`, renewed whenever the factor is rebuilt.
    lu_stamp: u64,
    etas: EtaFile,
    /// Pivot-coordinate scratch for the triangular solves.
    work: Vec<f64>,
    /// Original-row-coordinate scratch for gathers.
    rhs: Vec<f64>,
    /// Working storage lent to every refactorization.
    scratch: LuScratch,
}

impl SparseBasis {
    /// Resets to the identity basis of dimension `m`, reusing the scratch
    /// allocations where possible.
    pub(crate) fn reset_identity(&mut self, m: usize) {
        let ones = vec![1.0; m];
        self.m = m;
        self.lu = LuFactor::diagonal(&ones);
        self.lu_stamp = next_stamp();
        self.etas.clear();
        self.work.clear();
        self.work.resize(m, 0.0);
        self.rhs.clear();
        self.rhs.resize(m, 0.0);
    }

    /// Phase-1 hook: replace the `i`-th diagonal of the (still diagonal)
    /// factor with the sign of an installed artificial column.
    pub(crate) fn set_diag_sign(&mut self, i: usize, sign: f64) {
        self.lu.set_diag(i, sign);
        self.lu_stamp = next_stamp();
    }

    /// The current factor state, for a later [`SparseBasis::rollback`].
    pub(crate) fn mark(&self) -> FactorMark {
        let etas = self.etas.len();
        FactorMark {
            lu: self.lu_stamp,
            etas,
            top: self.etas.stamp_below(etas),
        }
    }

    /// Returns to the state `mark` names by truncating the eta file, so the
    /// basis represented is again the one marked. Refuses (changing
    /// nothing) unless the marked factor is still the base and the marked
    /// eta prefix is still in place.
    pub(crate) fn rollback(&mut self, mark: FactorMark) -> bool {
        let ok = mark.lu == self.lu_stamp
            && mark.etas <= self.etas.len()
            && self.etas.stamp_below(mark.etas) == mark.top;
        if ok {
            self.etas.truncate(mark.etas);
        }
        ok
    }

    pub(crate) fn eta_nnz(&self) -> usize {
        self.etas.nnz()
    }

    /// FTRAN of a sparse column: `out = B⁻¹ a` (basis-position coords).
    pub(crate) fn ftran_col(&mut self, entries: &[(u32, f64)], out: &mut [f64]) {
        self.rhs.iter_mut().for_each(|x| *x = 0.0);
        for &(i, a) in entries {
            self.rhs[i as usize] += a;
        }
        self.lu.ftran(&self.rhs, &mut self.work, out);
        self.etas.ftran(out);
    }

    /// FTRAN of a dense right-hand side in original row coordinates.
    pub(crate) fn ftran_rhs(&mut self, rhs: &[f64], out: &mut [f64]) {
        self.lu.ftran(rhs, &mut self.work, out);
        self.etas.ftran(out);
    }

    /// BTRAN: `out = B⁻ᵀ c` where `c` is indexed by basis position (consumed
    /// as scratch) and `out` by original constraint row.
    pub(crate) fn btran(&mut self, c: &mut [f64], out: &mut [f64]) {
        self.etas.btran(c);
        self.lu.btran(c, &mut self.work, out);
    }

    /// Absorbs a pivot at basis position `r` with transformed column `v` as
    /// an eta update.
    pub(crate) fn push_eta(&mut self, r: usize, v: &[f64]) {
        self.etas.push(r, v);
    }

    /// Refactorizes from the column oracle. On success the eta file is
    /// cleared; on a singular basis the previous factor (including etas) is
    /// kept, so the caller continues on the basis it had.
    pub(crate) fn refactor(
        &mut self,
        m: usize,
        col: impl Fn(usize, &mut dyn FnMut(usize, f64)),
    ) -> bool {
        match LuFactor::factor(&mut self.scratch, m, col) {
            Ok(lu) => {
                self.m = m;
                self.lu = lu;
                self.lu_stamp = next_stamp();
                self.etas.clear();
                self.work.resize(m, 0.0);
                self.rhs.resize(m, 0.0);
                true
            }
            Err(Singular) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The slack basis of dimension `m`, as a cold start installs it.
    fn identity(m: usize) -> SparseBasis {
        let mut sb = SparseBasis::default();
        sb.reset_identity(m);
        sb
    }

    /// Dense reference: `cols[q]` is the dense basis column at position `q`.
    fn dense_cols(cols: &[Vec<f64>]) -> impl Fn(usize, &mut dyn FnMut(usize, f64)) + '_ {
        move |q, f| {
            for (i, &a) in cols[q].iter().enumerate() {
                if a != 0.0 {
                    f(i, a);
                }
            }
        }
    }

    fn mat_vec(cols: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        let m = cols.len();
        let mut out = vec![0.0; m];
        for (q, col) in cols.iter().enumerate() {
            for (i, &a) in col.iter().enumerate() {
                out[i] += a * x[q];
            }
        }
        out
    }

    fn mat_t_vec(cols: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
        cols.iter()
            .map(|col| col.iter().zip(y).map(|(a, b)| a * b).sum())
            .collect()
    }

    fn check_solves(cols: &[Vec<f64>]) {
        let m = cols.len();
        let fac =
            LuFactor::factor(&mut LuScratch::default(), m, dense_cols(cols)).expect("nonsingular");
        let mut work = vec![0.0; m];
        let mut out = vec![0.0; m];
        // FTRAN: B x = e_i for each i.
        for i in 0..m {
            let mut rhs = vec![0.0; m];
            rhs[i] = 1.0;
            fac.ftran(&rhs, &mut work, &mut out);
            let back = mat_vec(cols, &out);
            for (k, &b) in back.iter().enumerate() {
                let want = if k == i { 1.0 } else { 0.0 };
                assert!((b - want).abs() < 1e-9, "ftran col {i} row {k}: {b}");
            }
        }
        // BTRAN: Bᵀ y = e_q for each q.
        for q in 0..m {
            let mut c = vec![0.0; m];
            c[q] = 1.0;
            fac.btran(&c, &mut work, &mut out);
            let back = mat_t_vec(cols, &out);
            for (k, &b) in back.iter().enumerate() {
                let want = if k == q { 1.0 } else { 0.0 };
                assert!((b - want).abs() < 1e-9, "btran col {q} pos {k}: {b}");
            }
        }
    }

    #[test]
    fn factors_identity() {
        let cols = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        check_solves(&cols);
    }

    #[test]
    fn factors_permuted_signed_diagonal() {
        let cols = vec![
            vec![0.0, -1.0, 0.0],
            vec![0.0, 0.0, 2.0],
            vec![1.0, 0.0, 0.0],
        ];
        check_solves(&cols);
    }

    #[test]
    fn factors_dense_3x3() {
        let cols = vec![
            vec![2.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ];
        check_solves(&cols);
    }

    #[test]
    fn factors_zero_one_structured() {
        // The shape the structured formulation produces: 0-1 rows with a
        // handful of entries, including duplicated-pattern columns that
        // force genuine elimination.
        let cols = vec![
            vec![1.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 1.0],
            vec![1.0, 0.0, 0.0, 0.0, 1.0],
        ];
        // This circulant is nonsingular for odd m.
        check_solves(&cols);
    }

    #[test]
    fn rejects_singular_matrix() {
        let cols = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert!(LuFactor::factor(&mut LuScratch::default(), 2, dense_cols(&cols)).is_err());
    }

    #[test]
    fn rejects_zero_column() {
        let cols = vec![vec![1.0, 0.0], vec![0.0, 0.0]];
        assert!(LuFactor::factor(&mut LuScratch::default(), 2, dense_cols(&cols)).is_err());
    }

    #[test]
    fn eta_updates_track_basis_change() {
        // Start from B0 = I, replace column 1 with a = (1, 2, 1)ᵀ, then
        // column 0 with a' = (3, 0, 1)ᵀ; compare eta-updated solves against
        // a direct factorization of the final basis.
        let m = 3;
        let mut sb = identity(m);
        let a1 = [(0u32, 1.0), (1u32, 2.0), (2u32, 1.0)];
        let mut v = vec![0.0; m];
        sb.ftran_col(&a1, &mut v);
        sb.push_eta(1, &v);
        let a0 = [(0u32, 3.0), (2u32, 1.0)];
        sb.ftran_col(&a0, &mut v);
        sb.push_eta(0, &v);

        let final_cols = vec![
            vec![3.0, 0.0, 1.0],
            vec![1.0, 2.0, 1.0],
            vec![0.0, 0.0, 1.0],
        ];
        let direct =
            LuFactor::factor(&mut LuScratch::default(), m, dense_cols(&final_cols)).unwrap();
        let mut work = vec![0.0; m];
        let mut want = vec![0.0; m];
        let mut got = vec![0.0; m];
        for i in 0..m {
            let mut rhs = vec![0.0; m];
            rhs[i] = 1.0;
            direct.ftran(&rhs, &mut work, &mut want);
            sb.ftran_rhs(&rhs, &mut got);
            for k in 0..m {
                assert!((got[k] - want[k]).abs() < 1e-10, "ftran {i}/{k}");
            }
        }
        for q in 0..m {
            let mut c = vec![0.0; m];
            c[q] = 1.0;
            direct.btran(&c, &mut work, &mut want);
            let mut c2 = vec![0.0; m];
            c2[q] = 1.0;
            sb.btran(&mut c2, &mut got);
            for k in 0..m {
                assert!((got[k] - want[k]).abs() < 1e-10, "btran {q}/{k}");
            }
        }
        assert_eq!(sb.etas.len(), 2);
        assert!(sb.eta_nnz() > 0);
    }

    #[test]
    fn refactor_clears_eta_file_and_keeps_old_factor_on_singular() {
        let m = 2;
        let mut sb = identity(m);
        let a = [(0u32, 2.0), (1u32, 1.0)];
        let mut v = vec![0.0; m];
        sb.ftran_col(&a, &mut v);
        sb.push_eta(0, &v);
        assert_eq!(sb.etas.len(), 1);

        // Singular refactor target: factor must refuse and keep the etas.
        let singular = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert!(!sb.refactor(m, dense_cols(&singular)));
        assert_eq!(sb.etas.len(), 1);

        // A good refactor clears them.
        let good = vec![vec![2.0, 1.0], vec![0.0, 1.0]];
        assert!(sb.refactor(m, dense_cols(&good)));
        assert_eq!(sb.etas.len(), 0);
        assert_eq!(sb.eta_nnz(), 0);
    }

    /// Every FTRAN of a unit vector and BTRAN of a unit vector, as bits.
    fn solve_bits(sb: &mut SparseBasis) -> Vec<u64> {
        let m = sb.m;
        let mut out = vec![0.0; m];
        let mut bits = Vec::new();
        for i in 0..m {
            sb.ftran_col(&[(i as u32, 1.0)], &mut out);
            bits.extend(out.iter().map(|x| x.to_bits()));
            let mut c = vec![0.0; m];
            c[i] = 1.0;
            sb.btran(&mut c, &mut out);
            bits.extend(out.iter().map(|x| x.to_bits()));
        }
        bits
    }

    /// Pivots `col` into the basis position where its transformed image is
    /// largest, as one eta.
    fn pivot_in(sb: &mut SparseBasis, col: &[(u32, f64)]) {
        let mut v = vec![0.0; sb.m];
        sb.ftran_col(col, &mut v);
        let r = (0..v.len())
            .max_by(|&a, &b| v[a].abs().total_cmp(&v[b].abs()))
            .expect("nonempty basis");
        sb.push_eta(r, &v);
    }

    /// A factored 5×5 circulant with one eta on top: the "parent" state.
    fn parent_basis() -> SparseBasis {
        let cols: Vec<Vec<f64>> = (0..5)
            .map(|q| {
                (0..5)
                    .map(|i| f64::from(u8::from(i == q || i == (q + 1) % 5)))
                    .collect()
            })
            .collect();
        let mut sb = identity(5);
        assert!(sb.refactor(5, dense_cols(&cols)));
        pivot_in(&mut sb, &[(0, 2.0), (2, -1.0), (4, 1.0)]);
        sb
    }

    const CHILD_COLS: [&[(u32, f64)]; 3] = [
        &[(1, 1.0), (3, 3.0)],
        &[(0, -2.0), (1, 1.0), (4, 1.0)],
        &[(2, 1.5), (3, 1.0)],
    ];

    #[test]
    fn rollback_restores_marked_solves_bit_for_bit() {
        for k in 1..=CHILD_COLS.len() {
            let mut sb = parent_basis();
            let mark = sb.mark();
            let (count, nnz) = (sb.etas.len(), sb.eta_nnz());
            let before = solve_bits(&mut sb);
            for col in &CHILD_COLS[..k] {
                pivot_in(&mut sb, col);
            }
            assert_eq!(sb.etas.len(), count + k);
            assert_ne!(
                solve_bits(&mut sb),
                before,
                "the pushed etas change the basis"
            );
            assert!(sb.rollback(mark), "a fresh mark must roll back");
            assert_eq!((sb.etas.len(), sb.eta_nnz()), (count, nnz));
            assert_eq!(solve_bits(&mut sb), before, "rollback after {k} etas");
            // Rolling back to where the basis already is changes nothing.
            assert!(sb.rollback(mark));
            assert_eq!(solve_bits(&mut sb), before);
        }
    }

    #[test]
    fn rollback_refuses_stale_and_foreign_marks() {
        let good: Vec<Vec<f64>> = (0..5)
            .map(|q| (0..5).map(|i| f64::from(u8::from(i == q))).collect())
            .collect();

        // A refactorization builds a new base factor.
        let mut sb = parent_basis();
        let mark = sb.mark();
        assert!(sb.refactor(5, dense_cols(&good)));
        assert!(!sb.rollback(mark), "mark survived a refactorization");

        // So does an identity reset, even to the same dimension.
        let mut sb = parent_basis();
        let mark = sb.mark();
        sb.reset_identity(5);
        assert!(!sb.rollback(mark), "mark survived an identity reset");

        // Truncate below the mark and push again to the same length: the
        // eta count matches but the top eta is a different one.
        let mut sb = parent_basis();
        let below = sb.mark();
        pivot_in(&mut sb, CHILD_COLS[0]);
        let mark = sb.mark();
        assert!(sb.rollback(below));
        pivot_in(&mut sb, CHILD_COLS[0]);
        assert_eq!(sb.etas.len(), below.etas + 1);
        let state = solve_bits(&mut sb);
        assert!(!sb.rollback(mark), "mark survived a truncate and re-push");
        assert_eq!(
            solve_bits(&mut sb),
            state,
            "a refused rollback changes nothing"
        );

        // A mark is refused by another basis, even one built the same way.
        let a = parent_basis();
        let mut b = parent_basis();
        pivot_in(&mut b, CHILD_COLS[1]);
        assert!(!b.rollback(a.mark()), "foreign mark accepted");
    }

    /// Seeded random bases of the shapes the pivot search must get right,
    /// each factored by `factor` (one scratch reused throughout, as
    /// `SparseBasis` does) and by `reference_factor`: the two must agree
    /// bit for bit, and on `Singular`.
    #[test]
    fn factor_matches_reference_bit_for_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut scratch = LuScratch::default();
        let (mut factored, mut singular) = (0, 0);
        for case in 0..600 {
            let m = rng.gen_range(1..=24usize);
            let mut cols = vec![vec![0.0; m]; m];
            let unit = |rng: &mut StdRng| if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            match case % 6 {
                // Random sparse, with a diagonal most of the time.
                0 => {
                    for (q, col) in cols.iter_mut().enumerate() {
                        for (i, a) in col.iter_mut().enumerate() {
                            if (i == q && rng.gen_bool(0.8)) || rng.gen_bool(0.15) {
                                *a = rng.gen_range(-2.0..2.0);
                            }
                        }
                    }
                }
                // ±1 0-1 shapes: an identity part (slacks) beside
                // structural columns of a few ±1 entries.
                1 => {
                    for (q, col) in cols.iter_mut().enumerate() {
                        if rng.gen_bool(0.4) {
                            col[q] = 1.0;
                        } else {
                            for _ in 0..rng.gen_range(1..=3) {
                                col[rng.gen_range(0..m)] = unit(&mut rng);
                            }
                        }
                    }
                }
                // Circulants: every row and column has the same count, so
                // the first pivot is decided by the tie-break alone.
                2 => {
                    let offsets: Vec<usize> = (0..rng.gen_range(1..=3))
                        .map(|_| rng.gen_range(0..m))
                        .collect();
                    for (q, col) in cols.iter_mut().enumerate() {
                        col[q] = 1.0;
                        for &o in &offsets {
                            col[(q + o) % m] = 1.0;
                        }
                    }
                }
                // Arrow matrices: dense first row and column plus a diagonal.
                3 => {
                    for (q, col) in cols.iter_mut().enumerate() {
                        col[q] = unit(&mut rng) * rng.gen_range(1..=4) as f64;
                        col[0] = unit(&mut rng);
                    }
                    for a in cols[0].iter_mut() {
                        *a = unit(&mut rng);
                    }
                }
                // Magnitudes over 1e-3..1e3: the relative threshold
                // rejects small entries beside large ones in a column.
                4 => {
                    for (q, col) in cols.iter_mut().enumerate() {
                        for (i, a) in col.iter_mut().enumerate() {
                            if i == q || rng.gen_bool(0.25) {
                                *a = unit(&mut rng) * 10f64.powf(rng.gen_range(-3.0..3.0));
                            }
                        }
                    }
                }
                // A duplicated column: singular.
                _ => {
                    for (q, col) in cols.iter_mut().enumerate() {
                        col[q] = rng.gen_range(0.5..2.0);
                        col[rng.gen_range(0..m)] += unit(&mut rng);
                    }
                    if m > 1 {
                        let (a, b) = (rng.gen_range(0..m), rng.gen_range(0..m));
                        if a != b {
                            cols[b] = cols[a].clone();
                        }
                    }
                }
            }
            let fast = LuFactor::factor(&mut scratch, m, dense_cols(&cols));
            let reference = LuFactor::reference_factor(m, dense_cols(&cols));
            match (&fast, &reference) {
                (Ok(a), Ok(b)) => {
                    assert!(a.same_bits(b), "case {case} (m = {m}): factors differ");
                    factored += 1;
                }
                (Err(Singular), Err(Singular)) => singular += 1,
                _ => panic!("case {case} (m = {m}): {fast:?} vs {reference:?}"),
            }
            if case % 6 == 5 && m > 1 && fast.is_ok() {
                let dup = (0..m).any(|a| (0..m).any(|b| a != b && cols[a] == cols[b]));
                assert!(!dup, "case {case}: a duplicated column factored");
            }
        }
        assert!(
            factored > 300 && singular > 50,
            "{factored} factored, {singular} singular"
        );
    }

    /// A basis of the shape the structured formulations hand the solver
    /// (Ineq. 20 and Ineq. 4 bases at the sizes perfbench factors): 50–75%
    /// unit slack columns, the rest 2–12 entries of ±1 with now and then
    /// an `II`-sized coefficient. Every row gets a slack or an entry, and
    /// one structural column is made near the relative threshold: one
    /// entry of 10, one of exactly `LU_PIVOT_REL · 10` and one just below.
    fn structured_basis(rng: &mut rand::rngs::StdRng, m: usize) -> Vec<Vec<f64>> {
        use rand::Rng;
        let mut cols = vec![vec![0.0; m]; m];
        let slacks = m * rng.gen_range(50..=75) / 100;
        let mut rows: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            rows.swap(i, rng.gen_range(0..=i));
        }
        let ii = rng.gen_range(2..=12) as f64;
        for (q, col) in cols.iter_mut().enumerate() {
            if q < slacks {
                col[rows[q]] = if rng.gen_bool(0.8) { 1.0 } else { -1.0 };
                continue;
            }
            // A row left without a slack, so no row stays empty.
            col[rows[q]] = 1.0;
            for _ in 1..rng.gen_range(2..=12) {
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let mag = if rng.gen_bool(0.1) { ii } else { 1.0 };
                col[rng.gen_range(0..m)] = sign * mag;
            }
        }
        // In rows without a slack, which stay until the nucleus.
        if m - slacks >= 3 {
            let q = rng.gen_range(slacks..m);
            let near = LU_PIVOT_REL * 10.0;
            for (k, v) in [10.0, near, near * (1.0 - 1e-12)].into_iter().enumerate() {
                cols[q][rows[slacks + (q - slacks + k) % (m - slacks)]] = v;
            }
        }
        cols
    }

    /// `factor` against `reference_factor` on structured bases with m in
    /// 60..=320, the sizes perfbench factors (the random classes above
    /// stop at m = 24).
    #[test]
    fn factor_matches_reference_at_perfbench_sizes() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x51AC);
        let mut scratch = LuScratch::default();
        let (mut factored, mut singular) = (0, 0);
        for case in 0..24 {
            let m = rng.gen_range(60..=320usize);
            let cols = structured_basis(&mut rng, m);
            let fast = LuFactor::factor(&mut scratch, m, dense_cols(&cols));
            let reference = LuFactor::reference_factor(m, dense_cols(&cols));
            match (&fast, &reference) {
                (Ok(a), Ok(b)) => {
                    assert!(a.same_bits(b), "case {case} (m = {m}): factors differ");
                    factored += 1;
                }
                (Err(Singular), Err(Singular)) => singular += 1,
                _ => panic!("case {case} (m = {m}): fast and reference disagree"),
            }
        }
        assert!(factored >= 12, "{factored} factored, {singular} singular");
    }

    /// One scratch, as `SparseBasis` keeps it, factors a seeded sequence of
    /// bases that grow and shrink, change shape and include a singular one;
    /// every factor must match one built with a fresh scratch, bit for bit.
    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        use rand::{rngs::StdRng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5C2A);
        let mut sb = identity(1);
        let sizes = [12, 180, 40, 320, 7, 96, 250, 3, 150, 60];
        for (case, &m) in sizes.iter().enumerate() {
            let mut cols = structured_basis(&mut rng, m);
            if case == 4 {
                // A repeated column: singular.
                cols[1] = cols[0].clone();
            } else if case % 3 == 2 {
                // Circulant ±1 columns beside the slacks.
                for (q, col) in cols.iter_mut().enumerate().skip(m / 2) {
                    col.iter_mut().for_each(|a| *a = 0.0);
                    col[q] = 1.0;
                    col[(q + 1) % m] = -1.0;
                }
            }
            let fresh = LuFactor::factor(&mut LuScratch::default(), m, dense_cols(&cols));
            let installed = sb.refactor(m, dense_cols(&cols));
            match fresh {
                Ok(f) => {
                    assert!(installed, "case {case} (m = {m}): reused scratch failed");
                    assert!(sb.lu.same_bits(&f), "case {case} (m = {m}): factors differ");
                }
                Err(Singular) => {
                    assert!(!installed, "case {case} (m = {m}): singular basis factored");
                }
            }
        }
    }

    #[test]
    fn markowitz_keeps_arrow_matrix_sparse() {
        // Arrow matrix: dense first row and column + diagonal. Eliminating
        // the dense corner first would fill the whole matrix; Markowitz
        // must pick diagonal pivots and keep L/U linear-sized.
        let m = 20;
        let mut cols = vec![vec![0.0; m]; m];
        for (q, col) in cols.iter_mut().enumerate() {
            col[q] = 4.0;
            col[0] = 1.0;
        }
        for v in cols[0].iter_mut() {
            *v = 1.0;
        }
        cols[0][0] = 4.0;
        let fac =
            LuFactor::factor(&mut LuScratch::default(), m, dense_cols(&cols)).expect("nonsingular");
        let l_nnz: usize = fac.l_cols.iter().map(Vec::len).sum();
        let u_nnz: usize = fac.u_cols.iter().map(Vec::len).sum();
        // A fill-free arrow factorization has m−1 entries in each factor.
        assert!(
            l_nnz <= 2 * m && u_nnz <= 2 * m,
            "fill-in exploded: L {l_nnz}, U {u_nnz}"
        );
        check_solves(&cols);
    }

    /// Explicit dense basis inverse — the simplex's original engine, kept as
    /// the reference [`SparseBasis`] is tested against.
    #[derive(Debug, Clone, Default)]
    struct DenseBasis {
        m: usize,
        binv: Vec<f64>,
    }

    impl DenseBasis {
        fn reset_identity(&mut self, m: usize) {
            self.m = m;
            self.binv.clear();
            self.binv.resize(m * m, 0.0);
            for i in 0..m {
                self.binv[i * m + i] = 1.0;
            }
        }

        fn set_diag_sign(&mut self, i: usize, sign: f64) {
            self.binv[i * self.m + i] = sign;
        }

        fn ftran_col(&self, entries: &[(u32, f64)], v: &mut [f64]) {
            let m = self.m;
            v.iter_mut().for_each(|x| *x = 0.0);
            for &(i, a) in entries {
                let col = i as usize;
                for (k, vk) in v.iter_mut().enumerate() {
                    *vk += self.binv[k * m + col] * a;
                }
            }
        }

        fn ftran_rhs(&self, rhs: &[f64], out: &mut [f64]) {
            let m = self.m;
            for (k, ok) in out.iter_mut().enumerate() {
                let row = &self.binv[k * m..(k + 1) * m];
                *ok = row.iter().zip(rhs).map(|(a, b)| a * b).sum();
            }
        }

        fn btran(&self, c: &mut [f64], out: &mut [f64]) {
            let m = self.m;
            out.iter_mut().for_each(|x| *x = 0.0);
            for (k, &ck) in c.iter().enumerate() {
                if ck != 0.0 {
                    let row = &self.binv[k * m..(k + 1) * m];
                    for (oi, ri) in out.iter_mut().zip(row) {
                        *oi += ck * ri;
                    }
                }
            }
        }

        fn btran_unit(&self, r: usize, out: &mut [f64]) {
            let m = self.m;
            out.copy_from_slice(&self.binv[r * m..(r + 1) * m]);
        }

        /// Gauss-Jordan rank-1 update of the inverse after a pivot on `row`
        /// with transformed column `v`.
        fn pivot(&mut self, row: usize, v: &[f64]) {
            let m = self.m;
            let inv_piv = 1.0 / v[row];
            for c in 0..m {
                self.binv[row * m + c] *= inv_piv;
            }
            let (before, rest) = self.binv.split_at_mut(row * m);
            let (pivot_row, after) = rest.split_at_mut(m);
            for (k, chunk) in before.chunks_exact_mut(m).enumerate() {
                let f = v[k];
                if f.abs() > ELIM_SKIP_TOL {
                    for (x, pr) in chunk.iter_mut().zip(pivot_row.iter()) {
                        *x -= f * pr;
                    }
                }
            }
            for (k, chunk) in after.chunks_exact_mut(m).enumerate() {
                let f = v[row + 1 + k];
                if f.abs() > ELIM_SKIP_TOL {
                    for (x, pr) in chunk.iter_mut().zip(pivot_row.iter()) {
                        *x -= f * pr;
                    }
                }
            }
        }

        /// Rebuilds the inverse from the basis columns by Gauss-Jordan
        /// elimination. Returns false (keeping the old inverse) on a
        /// numerically singular basis.
        #[allow(clippy::needless_range_loop)] // dense Gauss-Jordan indexing
        fn refactor(&mut self, m: usize, col: impl Fn(usize, &mut dyn FnMut(usize, f64))) -> bool {
            let mut bmat = vec![0.0; m * m];
            for q in 0..m {
                col(q, &mut |i, a| bmat[i * m + q] = a);
            }
            let mut inv = vec![0.0; m * m];
            for i in 0..m {
                inv[i * m + i] = 1.0;
            }
            for c0 in 0..m {
                let mut piv = c0;
                for r in c0 + 1..m {
                    if bmat[r * m + c0].abs() > bmat[piv * m + c0].abs() {
                        piv = r;
                    }
                }
                if bmat[piv * m + c0].abs() < SINGULAR_TOL {
                    return false;
                }
                if piv != c0 {
                    for c in 0..m {
                        bmat.swap(piv * m + c, c0 * m + c);
                        inv.swap(piv * m + c, c0 * m + c);
                    }
                }
                let d = 1.0 / bmat[c0 * m + c0];
                for c in 0..m {
                    bmat[c0 * m + c] *= d;
                    inv[c0 * m + c] *= d;
                }
                for r in 0..m {
                    if r == c0 {
                        continue;
                    }
                    let f = bmat[r * m + c0];
                    if f == 0.0 {
                        continue;
                    }
                    for c in 0..m {
                        bmat[r * m + c] -= f * bmat[c0 * m + c];
                        inv[r * m + c] -= f * inv[c0 * m + c];
                    }
                }
            }
            self.m = m;
            self.binv = inv;
            true
        }
    }

    /// One step of a basis history, as the simplex drives one.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Refactorize a structured basis drawn from this seed. Singular
        /// ones included: both sides must refuse and keep what they had.
        Refactor(u64),
        /// Pivot a column drawn from this seed in, as one eta.
        Pivot(u64),
        /// Take a mark.
        Mark,
        /// Roll back to the mark with this index, modulo the marks taken.
        Rollback(usize),
        /// Reset to the slack basis, as a cold start does, and give one
        /// diagonal a phase-1 artificial's sign (diagonal and sign drawn
        /// from the index).
        Reset(usize),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u64..1 << 32).prop_map(Step::Refactor),
            (0u64..1 << 32).prop_map(Step::Pivot),
            (0u64..1 << 32).prop_map(Step::Pivot),
            (0u64..1 << 32).prop_map(Step::Pivot),
            Just(Step::Mark),
            (0usize..8).prop_map(Step::Rollback),
            (0usize..64).prop_map(Step::Reset),
        ]
    }

    /// A mark as the oracle sees it: the factor it was taken on (counted
    /// by the oracle), its eta count, and the step that pushed its top eta.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct OracleMark {
        factor: usize,
        etas: usize,
        top: Option<usize>,
    }

    /// The dense side of a history: the inverse, the inverse after each
    /// eta on the current factor (a rollback restores one), and the step
    /// that pushed each eta, from which the oracle decides on its own which
    /// marks a rollback must accept.
    struct DenseHistory {
        dense: DenseBasis,
        after_eta: Vec<DenseBasis>,
        pushed_by: Vec<usize>,
        factor: usize,
    }

    impl DenseHistory {
        fn new_factor(&mut self) {
            self.factor += 1;
            self.after_eta = vec![self.dense.clone()];
            self.pushed_by.clear();
        }

        fn mark(&self) -> OracleMark {
            OracleMark {
                factor: self.factor,
                etas: self.pushed_by.len(),
                top: self.pushed_by.last().copied(),
            }
        }

        fn rollback(&mut self, mark: OracleMark) -> bool {
            let ok = mark.factor == self.factor
                && mark.etas <= self.pushed_by.len()
                && self.pushed_by[..mark.etas].last().copied() == mark.top;
            if ok {
                self.dense = self.after_eta[mark.etas].clone();
                self.after_eta.truncate(mark.etas + 1);
                self.pushed_by.truncate(mark.etas);
            }
            ok
        }
    }

    /// Every column of `B⁻¹` through `ftran_col` and `ftran_rhs`, and every
    /// row through `btran`, against the dense inverse.
    fn same_inverse(sb: &mut SparseBasis, dense: &DenseBasis) -> Result<(), String> {
        let m = dense.m;
        let (mut got, mut want) = (vec![0.0; m], vec![0.0; m]);
        let close = |what: &str, k: usize, got: &[f64], want: &[f64]| {
            let scale = want.iter().fold(1.0_f64, |a, x| a.max(x.abs()));
            match (0..m).find(|&i| (got[i] - want[i]).abs() > 1e-9 * scale) {
                Some(i) => Err(format!(
                    "{what} of e_{k}, entry {i}: sparse {} vs dense {}",
                    got[i], want[i]
                )),
                None => Ok(()),
            }
        };
        for k in 0..m {
            let mut unit = vec![0.0; m];
            unit[k] = 1.0;
            dense.ftran_col(&[(k as u32, 1.0)], &mut want);
            sb.ftran_col(&[(k as u32, 1.0)], &mut got);
            close("ftran_col", k, &got, &want)?;
            dense.ftran_rhs(&unit, &mut want);
            sb.ftran_rhs(&unit, &mut got);
            close("ftran_rhs", k, &got, &want)?;
            dense.btran(&mut unit.clone(), &mut want);
            sb.btran(&mut unit.clone(), &mut got);
            close("btran", k, &got, &want)?;
            dense.btran_unit(k, &mut want);
            close("btran (unit row)", k, &got, &want)?;
        }
        Ok(())
    }

    /// An entering column: one to four entries of ±1, now and then ±`II`.
    fn entering_column(seed: u64, m: usize) -> Vec<(u32, f64)> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let ii = rng.gen_range(2..=12) as f64;
        let mut col: Vec<(u32, f64)> = Vec::new();
        for _ in 0..rng.gen_range(1..=4) {
            let i = rng.gen_range(0..m) as u32;
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let mag = if rng.gen_bool(0.1) { ii } else { 1.0 };
            if !col.iter().any(|&(r, _)| r == i) {
                col.push((i, sign * mag));
            }
        }
        col
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `SparseBasis` against the dense inverse through random
        /// histories of refactorizations (of `structured_basis` matrices),
        /// eta pivots, marks, rollbacks and slack resets: both must agree
        /// on every FTRAN and BTRAN after every step, on which bases are
        /// singular, and on which marks a rollback accepts.
        #[test]
        fn dense_oracle_matches_sparse_basis(
            m in 3usize..=30,
            steps in proptest::collection::vec(step(), 1..=40),
        ) {
            use rand::{rngs::StdRng, SeedableRng};
            let mut sb = identity(m);
            let mut dense = DenseBasis::default();
            dense.reset_identity(m);
            let mut oracle = DenseHistory {
                after_eta: vec![dense.clone()],
                dense,
                pushed_by: Vec::new(),
                factor: 0,
            };
            let mut marks = Vec::new();
            for (n, &step) in steps.iter().enumerate() {
                match step {
                    Step::Refactor(seed) => {
                        let cols = structured_basis(&mut StdRng::seed_from_u64(seed), m);
                        let want = oracle.dense.refactor(m, dense_cols(&cols));
                        prop_assert_eq!(sb.refactor(m, dense_cols(&cols)), want, "step {}", n);
                        if want {
                            oracle.new_factor();
                        }
                    }
                    Step::Pivot(seed) => {
                        let col = entering_column(seed, m);
                        let mut v = vec![0.0; m];
                        oracle.dense.ftran_col(&col, &mut v);
                        let r = (0..m)
                            .max_by(|&a, &b| v[a].abs().total_cmp(&v[b].abs()))
                            .expect("m > 0");
                        if v[r].abs() < 1e-3 {
                            continue; // the column is (nearly) in the basis' span
                        }
                        let mut vs = vec![0.0; m];
                        sb.ftran_col(&col, &mut vs);
                        sb.push_eta(r, &vs);
                        oracle.dense.pivot(r, &v);
                        oracle.after_eta.push(oracle.dense.clone());
                        oracle.pushed_by.push(n);
                    }
                    Step::Mark => marks.push((sb.mark(), oracle.mark())),
                    Step::Rollback(i) => {
                        if let Some(&(mark, want)) = marks.get(i % marks.len().max(1)) {
                            prop_assert_eq!(sb.rollback(mark), oracle.rollback(want), "step {}", n);
                        }
                    }
                    Step::Reset(i) => {
                        let (diag, sign) = ((i / 2) % m, if i % 2 == 0 { -1.0 } else { 1.0 });
                        sb.reset_identity(m);
                        sb.set_diag_sign(diag, sign);
                        oracle.dense.reset_identity(m);
                        oracle.dense.set_diag_sign(diag, sign);
                        oracle.new_factor();
                    }
                }
                prop_assert_eq!(sb.etas.len(), oracle.pushed_by.len(), "step {}", n);
                same_inverse(&mut sb, &oracle.dense).map_err(|e| format!("step {n} {step:?}: {e}"))?;
            }
        }
    }
}
