//! Workload definitions: the loops each workload runs, chosen by a size
//! rule that reads only the input, and the daemon's seeded request mix.

use optimod::{DepStyle, Objective};
use optimod_ddg::kernels::all_kernels;
use optimod_ddg::{generate_corpus, CorpusSize, GeneratorConfig, Loop};
use optimod_machine::Machine;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MinReg with the traditional dependence constraints (Ineq. 4).
    MinregTraditional,
    /// MinReg with the structured dependence constraints (Ineq. 20).
    MinregStructured,
    /// NoObj (first feasible schedule) with Ineq. 20; its traced run also
    /// measures the daemon.
    NoobjStructured,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MinregTraditional,
        Workload::MinregStructured,
        Workload::NoobjStructured,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MinregTraditional => "minreg-traditional",
            Workload::MinregStructured => "minreg-structured",
            Workload::NoobjStructured => "noobj-structured",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The size-rule limit: loops with [`size`] above it are left out.
    pub fn size_limit(self) -> u64 {
        match self {
            Workload::MinregTraditional | Workload::MinregStructured => 150,
            Workload::NoobjStructured => 600,
        }
    }

    /// The workload's formulation and objective.
    pub fn solver(self) -> (DepStyle, Objective) {
        match self {
            Workload::MinregTraditional => (DepStyle::Traditional, Objective::MinMaxLive),
            Workload::MinregStructured => (DepStyle::Structured, Objective::MinMaxLive),
            Workload::NoobjStructured => (DepStyle::Structured, Objective::FirstFeasible),
        }
    }
}

/// The size rule: `MinII × (operations + edges)`. It reads only the loop
/// and the machine, so no change to a formulation can move a loop across
/// the limit.
pub fn size(l: &Loop, machine: &Machine) -> u64 {
    u64::from(optimod_verify::min_ii(l, machine)) * (l.num_ops() + l.edges().len()) as u64
}

/// The medium benchmark corpus generated from `corpus_seed`: every named
/// kernel, then synthetic loops. The workloads draw from it with
/// `optimod_ddg::CORPUS_SEED`, which gives exactly
/// `optimod_ddg::benchmark_corpus`; other seeds serve the tests.
pub fn corpus(machine: &Machine, corpus_seed: u64) -> Vec<Loop> {
    let mut loops = all_kernels(machine);
    let want = CorpusSize::Medium.total();
    let extra = want.saturating_sub(loops.len());
    loops.extend(generate_corpus(
        &GeneratorConfig::default(),
        machine,
        corpus_seed,
        extra,
    ));
    loops.truncate(want);
    loops
}

/// The loops of `loops` the size rule keeps under `limit`, in corpus order.
pub fn select(loops: Vec<Loop>, machine: &Machine, limit: u64) -> Vec<Loop> {
    loops
        .into_iter()
        .filter(|l| size(l, machine) <= limit)
        .collect()
}

/// SplitMix64: a small, well-mixed generator for the benchmark's own
/// seeded choices (item order, the daemon request mix).
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Requests per distinct key in the daemon mix: each key is first seen
/// once (a cache miss) and repeated three times (hits), so 75% of the
/// requests hit.
pub const REQUESTS_PER_KEY: usize = 4;

/// The daemon request sequence over `keys` distinct keys: a list of key
/// indices, `REQUESTS_PER_KEY × keys` long. Every key appears; the keys
/// are introduced in a seeded order at seeded positions, and every other
/// request repeats a uniformly chosen key seen before it.
pub fn daemon_sequence(keys: usize, seed: u64) -> Vec<usize> {
    let total = keys * REQUESTS_PER_KEY;
    let introduce = shuffled(keys, seed ^ 0x5eed_da3e);
    let mut rng = SplitMix::new(seed);
    let mut seq = Vec::with_capacity(total);
    let mut seen = 0usize;
    for i in 0..total {
        let remaining_new = keys - seen;
        let remaining_slots = total - i;
        let fresh = seen == 0 || rng.below(remaining_slots) < remaining_new;
        if fresh {
            seq.push(introduce[seen]);
            seen += 1;
        } else {
            seq.push(introduce[rng.below(seen)]);
        }
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimod_ddg::{benchmark_corpus, CORPUS_SEED};
    use optimod_machine::cydra_like;

    fn names(loops: &[Loop]) -> Vec<String> {
        loops.iter().map(|l| l.name().to_string()).collect()
    }

    fn minreg_set(corpus_seed: u64) -> (Vec<String>, Vec<String>) {
        let m = cydra_like();
        let sets: Vec<Vec<String>> = [Workload::MinregTraditional, Workload::MinregStructured]
            .into_iter()
            .map(|w| {
                let loops = corpus(&m, corpus_seed);
                names(&select(loops, &m, w.size_limit()))
            })
            .collect();
        (sets[0].clone(), sets[1].clone())
    }

    #[test]
    fn default_seed_reproduces_benchmark_corpus() {
        let m = cydra_like();
        let ours = corpus(&m, CORPUS_SEED);
        assert_eq!(
            names(&ours),
            names(&benchmark_corpus(&m, CorpusSize::Medium))
        );
    }

    #[test]
    fn size_rule_gives_both_minreg_workloads_one_set() {
        let (trad, structured) = minreg_set(CORPUS_SEED);
        assert_eq!(trad, structured);
        assert_eq!(trad.len(), 262);
    }

    #[test]
    fn size_rule_is_deterministic_per_seed_and_moves_with_it() {
        let (a, _) = minreg_set(CORPUS_SEED);
        let (b, _) = minreg_set(CORPUS_SEED);
        assert_eq!(a, b);
        let (c, _) = minreg_set(CORPUS_SEED + 1000);
        assert_ne!(a, c);
    }

    #[test]
    fn daemon_sequence_misses_each_key_once_and_hits_three_quarters() {
        for seed in [0, 1, 7, 12345] {
            let keys = 438;
            let seq = daemon_sequence(keys, seed);
            assert_eq!(seq.len(), keys * REQUESTS_PER_KEY);
            let mut seen = vec![false; keys];
            let mut misses = 0;
            for &k in &seq {
                if !seen[k] {
                    seen[k] = true;
                    misses += 1;
                }
            }
            assert!(seen.iter().all(|&s| s), "every key is requested");
            assert_eq!(misses, keys, "each key misses exactly once");
            let hit_share = 1.0 - misses as f64 / seq.len() as f64;
            assert!((hit_share - 0.75).abs() < 0.03, "hit share {hit_share}");
        }
        assert_ne!(daemon_sequence(50, 1), daemon_sequence(50, 2));
        assert_eq!(daemon_sequence(50, 3), daemon_sequence(50, 3));
    }
}
