//! Renders a loop in the `optimod_ddg::textfmt` grammar, the daemon's
//! request body.

use std::fmt::Write as _;

use optimod_ddg::{DepKind, Loop};
use optimod_machine::Machine;

/// The operation names as `textfmt` tokens: whitespace and the comment
/// character become `_`, and a name already taken in the loop gets its
/// operation index appended (some kernels reuse a name, such as `*x`).
pub fn op_names(l: &Loop) -> Vec<String> {
    let mut taken = std::collections::HashSet::new();
    l.ops()
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let token: String = op
                .name
                .chars()
                .map(|c| {
                    if c.is_whitespace() || c == '#' {
                        '_'
                    } else {
                        c
                    }
                })
                .collect();
            let name = if taken.contains(&token) {
                format!("{token}~{i}")
            } else {
                token
            };
            taken.insert(name.clone());
            name
        })
        .collect()
}

/// The loop as `textfmt` text for `machine`. Flow edges become `flow`
/// lines (their latency comes back from the machine on parse); every other
/// edge becomes a `dep` line with its own latency.
pub fn render(l: &Loop, machine: &Machine) -> String {
    let mut out = format!("# {}\nmachine {}\n", l.name(), machine.name());
    let names = op_names(l);
    for (op, name) in l.ops().iter().zip(&names) {
        let _ = writeln!(out, "op {name} {}", op.class.mnemonic());
    }
    let name = |id: optimod_ddg::OpId| names[id.index()].as_str();
    for e in l.edges() {
        let kind = match e.kind {
            DepKind::Flow => {
                let _ = writeln!(out, "flow {} {} {}", name(e.from), name(e.to), e.distance);
                continue;
            }
            DepKind::Memory => "memory",
            DepKind::Anti => "anti",
            DepKind::Control => "control",
        };
        let _ = writeln!(
            out,
            "dep {} {} {} {} {kind}",
            name(e.from),
            name(e.to),
            e.latency,
            e.distance
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::corpus;
    use optimod_ddg::{textfmt, CORPUS_SEED};
    use optimod_machine::cydra_like;

    #[test]
    fn every_corpus_loop_round_trips_through_textfmt() {
        let m = cydra_like();
        for l in corpus(&m, CORPUS_SEED) {
            let text = render(&l, &m);
            let parsed = textfmt::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", l.name()));
            assert_eq!(parsed.machine.name(), m.name());
            let back = parsed.l;
            assert_eq!(back.num_ops(), l.num_ops(), "{}", l.name());
            for ((a, b), name) in back.ops().iter().zip(l.ops()).zip(op_names(&l)) {
                assert_eq!((&a.name, a.class), (&name, b.class));
            }
            let key = |e: &optimod_ddg::SchedEdge| {
                (
                    e.from.index(),
                    e.to.index(),
                    e.latency,
                    e.distance,
                    e.kind as u8,
                )
            };
            let mut want: Vec<_> = l.edges().iter().map(key).collect();
            let mut got: Vec<_> = back.edges().iter().map(key).collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{}", l.name());
            assert_eq!(back.vregs(), l.vregs(), "{}", l.name());
        }
    }
}
