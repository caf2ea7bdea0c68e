//! The pinned reference: per-loop (II, MaxLive) for the loops that both
//! MinReg formulations prove optimal, agreed on by the two formulations
//! and the certifier. Later runs count a contradiction as a failure.

use std::collections::HashMap;

use optimod::{LoopStatus, Objective};
use optimod_ddg::Loop;

/// Expected outcome of one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// The smallest feasible II.
    pub ii: u32,
    /// The optimal MaxLive at that II.
    pub max_live: i64,
}

/// The reference table, keyed by loop name; the operation and edge counts
/// guard against a same-named loop from another corpus.
#[derive(Debug, Default)]
pub struct Reference {
    by_name: HashMap<String, (usize, usize, Expected)>,
}

/// Column header of the table file.
pub const HEADER: &str = "# loop\tops\tedges\tii\tmax_live";

impl Reference {
    /// The table committed beside the benchmark.
    pub fn pinned() -> Reference {
        Reference::parse(include_str!("../data/reference.tsv"))
            .expect("the committed reference table parses")
    }

    /// Parses a table in the [`Reference::render_row`] format.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut by_name = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| -> Result<i64, String> {
                f.get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("reference line {}: bad field {i}", n + 1))
            };
            let expected = Expected {
                ii: num(3)? as u32,
                max_live: num(4)?,
            };
            by_name.insert(
                f[0].to_string(),
                (num(1)? as usize, num(2)? as usize, expected),
            );
        }
        Ok(Reference { by_name })
    }

    /// One table row for `l`.
    pub fn render_row(l: &Loop, e: Expected) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}",
            l.name(),
            l.num_ops(),
            l.edges().len(),
            e.ii,
            e.max_live
        )
    }

    /// The expected outcome of `l`, if it is pinned.
    pub fn get(&self, l: &Loop) -> Option<Expected> {
        let &(ops, edges, e) = self.by_name.get(l.name())?;
        (ops == l.num_ops() && edges == l.edges().len()).then_some(e)
    }
}

/// Why a scheduled result contradicts its reference, if it does. Every
/// schedule must sit at the reference II (the ladder only settles on an II
/// after refuting every smaller one); a MinReg schedule proven optimal
/// must match MaxLive, and one that is not proven optimal cannot beat it.
pub fn contradiction(
    e: Expected,
    objective: Objective,
    ii: u32,
    value: Option<i64>,
    optimal: bool,
) -> Option<String> {
    if ii != e.ii {
        return Some(format!("II {ii}, reference {}", e.ii));
    }
    if objective != Objective::MinMaxLive {
        return None;
    }
    match value {
        Some(v) if optimal && v != e.max_live => {
            Some(format!("optimal MaxLive {v}, reference {}", e.max_live))
        }
        Some(v) if v < e.max_live => Some(format!(
            "MaxLive {v} beats the reference optimum {}",
            e.max_live
        )),
        Some(_) => None,
        None => Some("MinReg schedule without an objective value".to_string()),
    }
}

/// Why a result without a schedule contradicts its reference, if it does.
/// `Infeasible` claims that no II of the searched span schedules, but the
/// reference schedules at `e.ii`; running out of nodes is a limit, not a
/// claim.
pub fn unscheduled_contradiction(e: Expected, status: LoopStatus) -> Option<String> {
    (status == LoopStatus::Infeasible)
        .then(|| format!("reported infeasible, reference schedules at II {}", e.ii))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contradictions() {
        let e = Expected { ii: 4, max_live: 9 };
        let minreg = Objective::MinMaxLive;
        assert!(contradiction(e, minreg, 4, Some(9), true).is_none());
        assert!(contradiction(e, minreg, 4, Some(11), false).is_none());
        assert!(contradiction(e, minreg, 5, Some(9), true).is_some());
        assert!(contradiction(e, minreg, 4, Some(10), true).is_some());
        assert!(contradiction(e, minreg, 4, Some(8), false).is_some());
        assert!(contradiction(e, Objective::FirstFeasible, 4, None, true).is_none());
        assert!(contradiction(e, Objective::FirstFeasible, 3, None, true).is_some());
        assert!(unscheduled_contradiction(e, LoopStatus::Infeasible).is_some());
        assert!(unscheduled_contradiction(e, LoopStatus::TimedOut).is_none());
    }

    #[test]
    fn pinned_table_parses_and_is_not_empty() {
        assert!(!Reference::pinned().by_name.is_empty());
    }
}
