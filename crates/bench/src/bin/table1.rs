//! Regenerates the paper's **Table I** — the inference rules for `or`
//! cells — by actually running the inference engine on a two-input OR and
//! printing which conclusions each premise yields.
//!
//! `cargo run --release -p smartly-bench --bin table1`

use smartly_core::inference::{propagate, InferOutcome};
use smartly_core::subgraph;
use smartly_netlist::{Module, NetIndex, SigBit};
use std::collections::HashMap;

fn demo(premises: &[(&str, bool)], expect: &[(&str, bool)]) -> (String, String, bool) {
    let mut m = Module::new("t");
    let a = m.add_input("a", 1);
    let b = m.add_input("b", 1);
    let y = m.or(&a, &b);
    m.add_output("y", &y);
    let index = NetIndex::build(&m);
    let ranks = subgraph::topo_ranks(&m.topo_order_with(&index).expect("acyclic"));

    let bit_of = |name: &str| -> SigBit {
        match name {
            "a" => a.bit(0),
            "b" => b.bit(0),
            _ => index.canon(y.bit(0)),
        }
    };
    let mut assign: HashMap<SigBit, bool> = HashMap::new();
    for (name, v) in premises {
        assign.insert(index.canon(bit_of(name)), *v);
    }
    let (sub, _) = subgraph::extract(&m, &index, &ranks, index.canon(y.bit(0)), &assign, 4, true);
    let outcome = propagate(&m, &index, &sub, &mut assign);
    let ok = !matches!(outcome, InferOutcome::Contradiction)
        && expect
            .iter()
            .all(|(name, v)| assign.get(&index.canon(bit_of(name))) == Some(v));

    let fmt = |items: &[(&str, bool)]| {
        items
            .iter()
            .map(|(n, v)| {
                let lhs = if *n == "y" { "a|b" } else { n };
                format!("{lhs}={}", if *v { "true" } else { "false" })
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    (fmt(premises), fmt(expect), ok)
}

fn main() {
    println!("Table I — inference rules for OR cells (verified live)");
    println!("{:34} {:28} derived?", "Condition", "Result");
    type Assignments<'a> = Vec<(&'a str, bool)>;
    let rows: Vec<(Assignments, Assignments)> = vec![
        (vec![("a", true)], vec![("y", true)]),
        (vec![("b", true)], vec![("y", true)]),
        (vec![("a", false), ("b", false)], vec![("y", false)]),
        (vec![("y", false)], vec![("a", false), ("b", false)]),
        (vec![("y", true), ("a", false)], vec![("b", true)]),
        (vec![("y", true), ("b", false)], vec![("a", true)]),
    ];
    for (premises, expect) in rows {
        let (c, r, ok) = demo(&premises, &expect);
        println!("{c:34} {r:28} {ok}");
    }
}
