//! Deterministic, seeded fault injection for the solve pipeline.
//!
//! The resilience machinery (stall watchdog, `catch_unwind` workers, the
//! scheduler's fallback ladder) only proves itself under faults, and the
//! faults the corpus happens to trigger are neither controlled nor
//! reproducible. A [`FaultPlan`] arms a small set of *injections* — at the
//! Nth hit of a named [`FaultSite`], perform a [`FaultAction`] — derived
//! deterministically from a single seed, so any chaos-sweep failure can be
//! replayed from its seed alone (`optimod --chaos SEED`).
//!
//! The plan travels inside `SolveLimits` next to `StopFlag` and is cloned
//! freely: clones share the hit counters, so "the 3rd node expansion"
//! means the 3rd across the whole solve, not per clone. A disabled plan
//! (the default) is a `None` pointer and costs one branch per site check.
//!
//! Sites only *report* what tripped; each call site maps the action onto
//! its own typed degradation path (a stalled LP, a spurious deadline, a
//! recovered panic). [`FaultAction::Panic`] is the exception: the panic is
//! raised here, inside [`FaultPlan::fire`], so it unwinds through exactly
//! the frames a genuine bug at that site would.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A named location in the solve pipeline where faults can be injected.
///
/// The first four sites live inside the ILP solver; the next three are
/// the daemon's (`optimod-daemon`): wire framing, cache persistence, and
/// job execution; the final three belong to the SAT backend
/// (`optimod-sat`). They share one plan so a single seed can describe a
/// fault anywhere in the service stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Inside the simplex pivot loop (one hit per iteration).
    SimplexPivot,
    /// Branch-and-bound node expansion: one hit per node a worker takes
    /// off a deque and finds within budget, the root included. A stall or
    /// spurious timeout stops the search as a limit; a panic is caught for
    /// that node alone.
    NodeExpand,
    /// Search worker startup: one hit per worker, before it takes any
    /// node. That includes worker 0, which runs inline on the calling
    /// thread at every thread count, so `threads = 1` hits it once per
    /// solve.
    WorkerStart,
    /// Schedule extraction from an integral solution (one hit per
    /// extraction attempt).
    Extraction,
    /// Daemon wire-frame write (one hit per reply frame). Actions map to
    /// torn frames, dropped connections, and corrupted payload bytes.
    WireFrame,
    /// Daemon cache-record write (one hit per store attempt). Actions map
    /// to a simulated kill mid-write (temp file left behind, no rename)
    /// and to semantic corruption that only the certifier can catch.
    CacheWrite,
    /// Daemon job execution (one hit per job a worker picks up).
    JobWorker,
    /// SAT backend unit propagation (`optimod-sat`, one hit per call into
    /// the watched-literal propagator).
    SatPropagate,
    /// SAT backend conflict analysis (one hit per 1-UIP derivation).
    SatAnalyze,
    /// SAT backend restart (one hit per Luby restart taken).
    SatRestart,
}

impl FaultSite {
    /// All sites, in a stable order (indexes the hit-counter array). The
    /// solver sites come first so seed-derived solver plans
    /// ([`FaultPlan::from_seed`]) are unchanged by the daemon extension.
    pub const ALL: [FaultSite; 10] = [
        FaultSite::SimplexPivot,
        FaultSite::NodeExpand,
        FaultSite::WorkerStart,
        FaultSite::Extraction,
        FaultSite::WireFrame,
        FaultSite::CacheWrite,
        FaultSite::JobWorker,
        FaultSite::SatPropagate,
        FaultSite::SatAnalyze,
        FaultSite::SatRestart,
    ];

    /// The solver-internal sites (the original chaos-sweep surface).
    pub const SOLVER: [FaultSite; 4] = [
        FaultSite::SimplexPivot,
        FaultSite::NodeExpand,
        FaultSite::WorkerStart,
        FaultSite::Extraction,
    ];

    /// The daemon-level sites (`optimod-daemon`'s chaos surface).
    pub const DAEMON: [FaultSite; 3] = [
        FaultSite::WireFrame,
        FaultSite::CacheWrite,
        FaultSite::JobWorker,
    ];

    /// The SAT-backend sites (`optimod-sat`'s chaos surface).
    pub const SAT: [FaultSite; 3] = [
        FaultSite::SatPropagate,
        FaultSite::SatAnalyze,
        FaultSite::SatRestart,
    ];

    /// Stable lower-case name (used in plan descriptions and traces).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::SimplexPivot => "simplex-pivot",
            FaultSite::NodeExpand => "node-expand",
            FaultSite::WorkerStart => "worker-start",
            FaultSite::Extraction => "extraction",
            FaultSite::WireFrame => "wire-frame",
            FaultSite::CacheWrite => "cache-write",
            FaultSite::JobWorker => "job-worker",
            FaultSite::SatPropagate => "sat-propagate",
            FaultSite::SatAnalyze => "sat-analyze",
            FaultSite::SatRestart => "sat-restart",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::SimplexPivot => 0,
            FaultSite::NodeExpand => 1,
            FaultSite::WorkerStart => 2,
            FaultSite::Extraction => 3,
            FaultSite::WireFrame => 4,
            FaultSite::CacheWrite => 5,
            FaultSite::JobWorker => 6,
            FaultSite::SatPropagate => 7,
            FaultSite::SatAnalyze => 8,
            FaultSite::SatRestart => 9,
        }
    }
}

/// What an injection does when its site hit-count is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the site (raised inside [`FaultPlan::fire`], so it unwinds
    /// exactly like a genuine bug there). Must surface as a typed,
    /// recovered error — never a process abort.
    Panic,
    /// Force the site's "numerically stuck" path (e.g. the simplex reports
    /// [`LpStatus::Stalled`](crate::LpStatus::Stalled)).
    Stall,
    /// Force the site's deadline/cancellation path as if the budget had
    /// just expired.
    SpuriousTimeout,
    /// Latch a corruption of the next accepted incumbent's claimed
    /// objective. The search keeps running; the certifier (or the
    /// scheduler's post-extraction check) must catch the mismatch.
    PerturbIncumbent,
}

impl FaultAction {
    /// Stable lower-case name (used in plan descriptions and traces).
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Panic => "panic",
            FaultAction::Stall => "stall",
            FaultAction::SpuriousTimeout => "spurious-timeout",
            FaultAction::PerturbIncumbent => "perturb-incumbent",
        }
    }
}

/// One armed injection: at the `nth` hit of `site` (1-based), do `action`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Where the injection trips.
    pub site: FaultSite,
    /// What happens when it trips.
    pub action: FaultAction,
    /// The 1-based hit count at which it trips (shared across plan clones).
    pub nth: u64,
}

#[derive(Debug)]
struct Inner {
    seed: u64,
    injections: Vec<Injection>,
    hits: [AtomicU64; FaultSite::ALL.len()],
    fired: Mutex<Vec<Injection>>,
    /// Pending incumbent perturbations latched by a tripped
    /// [`FaultAction::PerturbIncumbent`].
    perturb_pending: AtomicU64,
}

/// A deterministic fault-injection plan, or (by default) nothing.
///
/// Cloning shares hit counters and the fired log; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan(Option<Arc<Inner>>);

/// The `splitmix64` mixing step: a tiny, well-distributed PRNG adequate
/// for deriving injection parameters. Local so the solver crate stays
/// dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A plausible 1-based trip count for `site`, drawn from `s`: pivot hits
/// number in the thousands per solve, worker starts and daemon frames in
/// the single digits.
fn plausible_nth(s: &mut u64, site: FaultSite) -> u64 {
    1 + match site {
        FaultSite::SimplexPivot => splitmix64(s) % 2048,
        FaultSite::NodeExpand => splitmix64(s) % 48,
        FaultSite::WorkerStart => splitmix64(s) % 4,
        FaultSite::Extraction => splitmix64(s) % 2,
        FaultSite::WireFrame => splitmix64(s) % 4,
        FaultSite::CacheWrite => splitmix64(s) % 2,
        FaultSite::JobWorker => splitmix64(s) % 3,
        FaultSite::SatPropagate => splitmix64(s) % 4096,
        FaultSite::SatAnalyze => splitmix64(s) % 48,
        FaultSite::SatRestart => splitmix64(s) % 4,
    }
}

impl FaultPlan {
    /// The disabled plan (same as `FaultPlan::default()`).
    pub fn none() -> FaultPlan {
        FaultPlan(None)
    }

    /// Whether any injections are armed.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// Derives one to three solver-site injections deterministically from
    /// `seed`.
    ///
    /// Site-specific `nth` ranges keep the trip points plausible: pivot
    /// hits number in the thousands per solve, worker starts in the
    /// single digits. Draws only from [`FaultSite::SOLVER`], so existing
    /// chaos-sweep seeds replay the same plans they always did; the
    /// daemon sites have their own derivation
    /// ([`FaultPlan::daemon_from_seed`]).
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed ^ 0xC4A5_F001; // distinct stream per purpose
        let count = 1 + (splitmix64(&mut s) % 3) as usize;
        let mut injections = Vec::with_capacity(count);
        for _ in 0..count {
            let site = FaultSite::SOLVER[(splitmix64(&mut s) % 4) as usize];
            let action = [
                FaultAction::Panic,
                FaultAction::Stall,
                FaultAction::SpuriousTimeout,
                FaultAction::PerturbIncumbent,
            ][(splitmix64(&mut s) % 4) as usize];
            injections.push(Injection {
                site,
                action,
                nth: plausible_nth(&mut s, site),
            });
        }
        FaultPlan::with_injections(seed, injections)
    }

    /// Derives one to three injections across the *whole* service stack —
    /// the daemon sites plus the solver sites, daemon-weighted — from
    /// `seed`. This is the `chaos_daemon` sweep's plan source: every cell
    /// trips at least one daemon-level fault site with high probability
    /// while still mixing in mid-solve faults under live traffic.
    pub fn daemon_from_seed(seed: u64) -> FaultPlan {
        let mut s = seed ^ 0xDAE0_50CE; // distinct stream from `from_seed`
        let count = 1 + (splitmix64(&mut s) % 3) as usize;
        let mut injections = Vec::with_capacity(count);
        for i in 0..count {
            // First injection always lands on a daemon site; later ones
            // may fall anywhere in the stack.
            let site = if i == 0 {
                FaultSite::DAEMON[(splitmix64(&mut s) % 3) as usize]
            } else {
                FaultSite::ALL[(splitmix64(&mut s) % FaultSite::ALL.len() as u64) as usize]
            };
            let action = [
                FaultAction::Panic,
                FaultAction::Stall,
                FaultAction::SpuriousTimeout,
                FaultAction::PerturbIncumbent,
            ][(splitmix64(&mut s) % 4) as usize];
            injections.push(Injection {
                site,
                action,
                nth: plausible_nth(&mut s, site),
            });
        }
        FaultPlan::with_injections(seed, injections)
    }

    /// Derives one to three injections across the *portfolio* surface —
    /// the SAT-backend sites plus the solver sites, SAT-weighted — from
    /// `seed`. This is the portfolio chaos sweep's plan source: every
    /// cell trips at least one SAT-level fault with high probability
    /// while still mixing in ILP-side faults, so the cross-backend
    /// arbitration (including the "SAT witness failed to certify, fall
    /// back to ILP" path) gets exercised under fire.
    pub fn portfolio_from_seed(seed: u64) -> FaultPlan {
        let mut s = seed ^ 0x5A7_F0110; // distinct stream per purpose
        let count = 1 + (splitmix64(&mut s) % 3) as usize;
        let mut injections = Vec::with_capacity(count);
        for i in 0..count {
            // First injection always lands on a SAT site; later ones may
            // fall anywhere in the solver stack (but never the daemon's).
            let site = if i == 0 {
                FaultSite::SAT[(splitmix64(&mut s) % 3) as usize]
            } else {
                let pool: [FaultSite; 7] = [
                    FaultSite::SimplexPivot,
                    FaultSite::NodeExpand,
                    FaultSite::WorkerStart,
                    FaultSite::Extraction,
                    FaultSite::SatPropagate,
                    FaultSite::SatAnalyze,
                    FaultSite::SatRestart,
                ];
                pool[(splitmix64(&mut s) % pool.len() as u64) as usize]
            };
            let action = [
                FaultAction::Panic,
                FaultAction::Stall,
                FaultAction::SpuriousTimeout,
                FaultAction::PerturbIncumbent,
            ][(splitmix64(&mut s) % 4) as usize];
            injections.push(Injection {
                site,
                action,
                nth: plausible_nth(&mut s, site),
            });
        }
        FaultPlan::with_injections(seed, injections)
    }

    /// An armed plan with an explicit injection list (tests and targeted
    /// reproductions).
    pub fn with_injections(seed: u64, injections: Vec<Injection>) -> FaultPlan {
        FaultPlan(Some(Arc::new(Inner {
            seed,
            injections,
            hits: std::array::from_fn(|_| AtomicU64::new(0)),
            fired: Mutex::new(Vec::new()),
            perturb_pending: AtomicU64::new(0),
        })))
    }

    /// A plan with a single injection (test convenience).
    pub fn single(site: FaultSite, action: FaultAction, nth: u64) -> FaultPlan {
        FaultPlan::with_injections(0, vec![Injection { site, action, nth }])
    }

    /// The seed the plan was built from, when armed.
    pub fn seed(&self) -> Option<u64> {
        self.0.as_ref().map(|i| i.seed)
    }

    /// The armed injections (empty when disabled).
    pub fn injections(&self) -> Vec<Injection> {
        self.0
            .as_ref()
            .map(|i| i.injections.clone())
            .unwrap_or_default()
    }

    /// Records one hit at `site` and returns the action of an injection
    /// tripping on exactly this hit, if any.
    ///
    /// # Panics
    ///
    /// A tripped [`FaultAction::Panic`] panics *here* with a recognizable
    /// `"injected fault: …"` message, so the unwind path matches a genuine
    /// bug at the site. Call sites therefore only handle the other three
    /// actions.
    #[inline]
    pub fn fire(&self, site: FaultSite) -> Option<FaultAction> {
        let inner = self.0.as_deref()?;
        inner.fire(site)
    }

    /// Consumes one pending incumbent perturbation, if a
    /// [`FaultAction::PerturbIncumbent`] has tripped and not yet been
    /// applied.
    #[inline]
    pub fn take_incumbent_perturbation(&self) -> bool {
        let Some(inner) = self.0.as_deref() else {
            return false;
        };
        inner
            .perturb_pending
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| p.checked_sub(1))
            .is_ok()
    }

    /// Injections that have tripped so far, in trip order.
    pub fn fired(&self) -> Vec<Injection> {
        self.0
            .as_ref()
            .map(|i| i.fired.lock().expect("fault log poisoned").clone())
            .unwrap_or_default()
    }

    /// Number of injections that have tripped so far.
    pub fn fired_count(&self) -> u64 {
        self.0
            .as_ref()
            .map(|i| i.fired.lock().expect("fault log poisoned").len() as u64)
            .unwrap_or(0)
    }

    /// One-line human description, e.g.
    /// `seed 7: stall@simplex-pivot#120, panic@node-expand#3`.
    pub fn describe(&self) -> String {
        match self.0.as_deref() {
            None => "disabled".to_string(),
            Some(inner) => {
                let list: Vec<String> = inner
                    .injections
                    .iter()
                    .map(|inj| format!("{}@{}#{}", inj.action.name(), inj.site.name(), inj.nth))
                    .collect();
                format!("seed {}: {}", inner.seed, list.join(", "))
            }
        }
    }
}

impl Inner {
    fn fire(&self, site: FaultSite) -> Option<FaultAction> {
        let hit = self.hits[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
        let inj = self
            .injections
            .iter()
            .find(|inj| inj.site == site && inj.nth == hit)?;
        self.fired.lock().expect("fault log poisoned").push(*inj);
        if inj.action == FaultAction::PerturbIncumbent {
            self.perturb_pending.fetch_add(1, Ordering::Relaxed);
        }
        if inj.action == FaultAction::Panic {
            panic!(
                "injected fault: panic at {} (hit {}, seed {})",
                site.name(),
                hit,
                self.seed
            );
        }
        Some(inj.action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::none();
        for site in FaultSite::ALL {
            assert_eq!(plan.fire(site), None);
        }
        assert!(!plan.is_armed());
        assert_eq!(plan.fired_count(), 0);
        assert!(!plan.take_incumbent_perturbation());
    }

    #[test]
    fn fires_exactly_on_the_nth_hit() {
        let plan = FaultPlan::single(FaultSite::NodeExpand, FaultAction::Stall, 3);
        assert_eq!(plan.fire(FaultSite::NodeExpand), None);
        assert_eq!(plan.fire(FaultSite::SimplexPivot), None); // other site
        assert_eq!(plan.fire(FaultSite::NodeExpand), None);
        assert_eq!(plan.fire(FaultSite::NodeExpand), Some(FaultAction::Stall));
        assert_eq!(plan.fire(FaultSite::NodeExpand), None); // one-shot
        assert_eq!(plan.fired_count(), 1);
    }

    #[test]
    fn clones_share_hit_counters() {
        let plan = FaultPlan::single(FaultSite::Extraction, FaultAction::SpuriousTimeout, 2);
        let clone = plan.clone();
        assert_eq!(clone.fire(FaultSite::Extraction), None);
        assert_eq!(
            plan.fire(FaultSite::Extraction),
            Some(FaultAction::SpuriousTimeout)
        );
    }

    #[test]
    fn panic_action_panics_with_marker() {
        let plan = FaultPlan::single(FaultSite::WorkerStart, FaultAction::Panic, 1);
        let err =
            std::panic::catch_unwind(|| plan.fire(FaultSite::WorkerStart)).expect_err("must panic");
        let msg = crate::panic_message(err.as_ref());
        assert!(msg.contains("injected fault"), "{msg}");
        assert_eq!(plan.fired_count(), 1);
    }

    #[test]
    fn perturbation_is_latched_once() {
        let plan = FaultPlan::single(FaultSite::NodeExpand, FaultAction::PerturbIncumbent, 1);
        assert_eq!(
            plan.fire(FaultSite::NodeExpand),
            Some(FaultAction::PerturbIncumbent)
        );
        assert!(plan.take_incumbent_perturbation());
        assert!(!plan.take_incumbent_perturbation());
    }

    #[test]
    fn from_seed_is_deterministic_and_plausible() {
        for seed in 0..200 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a.injections(), b.injections(), "seed {seed}");
            let inj = a.injections();
            assert!((1..=3).contains(&inj.len()));
            for i in &inj {
                assert!(i.nth >= 1);
            }
        }
        // Different seeds should not all collapse onto one plan.
        assert_ne!(
            FaultPlan::from_seed(1).injections(),
            FaultPlan::from_seed(2).injections()
        );
    }

    #[test]
    fn solver_seed_plans_never_touch_daemon_sites() {
        // `from_seed` predates the daemon sites; its plans must stay
        // solver-only (and therefore bit-identical to the PR-4 sweep).
        for seed in 0..200 {
            for inj in FaultPlan::from_seed(seed).injections() {
                assert!(
                    FaultSite::SOLVER.contains(&inj.site),
                    "seed {seed} drew daemon site {:?}",
                    inj.site
                );
            }
        }
    }

    #[test]
    fn daemon_seed_plans_lead_with_a_daemon_site() {
        for seed in 0..200 {
            let a = FaultPlan::daemon_from_seed(seed);
            let b = FaultPlan::daemon_from_seed(seed);
            assert_eq!(a.injections(), b.injections(), "seed {seed}");
            let inj = a.injections();
            assert!((1..=3).contains(&inj.len()));
            assert!(
                FaultSite::DAEMON.contains(&inj[0].site),
                "seed {seed}: first injection {:?} is not daemon-level",
                inj[0].site
            );
        }
    }

    #[test]
    fn portfolio_seed_plans_lead_with_a_sat_site_and_avoid_the_daemon() {
        for seed in 0..200 {
            let a = FaultPlan::portfolio_from_seed(seed);
            let b = FaultPlan::portfolio_from_seed(seed);
            assert_eq!(a.injections(), b.injections(), "seed {seed}");
            let inj = a.injections();
            assert!((1..=3).contains(&inj.len()));
            assert!(
                FaultSite::SAT.contains(&inj[0].site),
                "seed {seed}: first injection {:?} is not SAT-level",
                inj[0].site
            );
            for i in &inj {
                assert!(
                    !FaultSite::DAEMON.contains(&i.site),
                    "seed {seed} drew daemon site {:?}",
                    i.site
                );
            }
        }
    }

    #[test]
    fn daemon_sites_count_hits_independently() {
        let plan = FaultPlan::single(FaultSite::CacheWrite, FaultAction::Stall, 2);
        assert_eq!(plan.fire(FaultSite::WireFrame), None);
        assert_eq!(plan.fire(FaultSite::CacheWrite), None);
        assert_eq!(plan.fire(FaultSite::JobWorker), None);
        assert_eq!(plan.fire(FaultSite::CacheWrite), Some(FaultAction::Stall));
    }

    #[test]
    fn describe_round_trips_the_shape() {
        let plan = FaultPlan::single(FaultSite::SimplexPivot, FaultAction::Stall, 7);
        assert_eq!(plan.describe(), "seed 0: stall@simplex-pivot#7");
        assert_eq!(FaultPlan::none().describe(), "disabled");
    }
}
