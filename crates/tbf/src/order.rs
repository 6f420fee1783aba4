//! Structural static variable ordering for the timed-variable space.
//!
//! BDD size is hostage to variable order, and the timed analyses are worst
//! served by the default *allocation* order: variables appear in whatever
//! sequence the extraction happens to touch them, which scatters the timed
//! copies of one signal (`x(n−1)`, `x(n−2)`, `x'`, `x[r]`, …) across the
//! order. This module computes a *structural* order from the netlist before
//! any BDD is built:
//!
//! 1. a DFS over the gate DAG from the combinational sinks visits leaves in
//!    cone order, clustering leaves that feed the same logic (signals that
//!    interact sit near each other — the "Moore machine" interleaving
//!    argument: related current/next-state copies should be adjacent);
//! 2. for each leaf, *all* of its timed copies are emitted consecutively —
//!    `Next`, `Old`, every `Shifted` up to the maximum shift, and every
//!    `Absolute` cycle the decision basis can reference — so the copies of
//!    one signal occupy adjacent levels instead of being interleaved with
//!    unrelated signals by first-use order.
//!
//! Pre-registering this sequence into a fresh [`TimedVarTable`] pins the
//! levels, because tables allocate dense [`mct_bdd::Var`] indices in
//! registration order and a manager's level is the variable index.
//! Variables the analysis later invents anyway (rare shapes the bound did
//! not cover) append at the bottom — correct, merely suboptimal.
//!
//! Ordering is a performance lever only: analyses compare canonical
//! function handles, so any order produces bit-identical reports.

use crate::vars::{TimedVar, TimedVarTable};
use mct_bdd::BddManager;
use mct_netlist::{FsmView, NetId, Node};
use std::collections::HashSet;

/// How the timed-variable table lays out BDD variables.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OrderPolicy {
    /// First-use allocation order (the historical behaviour).
    #[default]
    Alloc,
    /// Structural order pre-registered from the netlist (see
    /// [`StaticOrder`]).
    Static,
}

/// A precomputed structural order over [`TimedVar`]s.
#[derive(Clone, Debug)]
pub struct StaticOrder {
    vars: Vec<TimedVar>,
}

impl StaticOrder {
    /// Computes the structural order for `view`, covering time shifts up to
    /// `max_shift` cycles (callers derive the bound from the delay ceiling
    /// and the breakpoint floor; shifts beyond it fall back to allocation
    /// order at the bottom of the table).
    pub fn compute(view: &FsmView, max_shift: i64) -> StaticOrder {
        let max_shift = max_shift.max(1);
        let leaf_order = leaf_dfs_order(view);
        // Per leaf, every timed copy the analyses can reference, adjacent:
        // reachability copies first (Next pairs with Shifted{0} images),
        // then the sweep shifts, then the decision-basis absolute cycles
        // (cycle = r − s spans both signs), then transition/floating-mode
        // variants ordered by their delay key at the very end of the block.
        let mut vars = Vec::with_capacity(leaf_order.len() * (4 * max_shift as usize + 4));
        for &leaf in &leaf_order {
            vars.push(TimedVar::Next { leaf });
            vars.push(TimedVar::Old { leaf });
            for shift in 0..=max_shift {
                vars.push(TimedVar::Shifted { leaf, shift });
            }
            for cycle in -max_shift..=max_shift {
                vars.push(TimedVar::Absolute { leaf, cycle });
            }
        }
        StaticOrder { vars }
    }

    /// The ordered timed variables, root-most first.
    pub fn vars(&self) -> &[TimedVar] {
        &self.vars
    }

    /// Pre-registers the order into `table`, pinning the BDD levels of
    /// every covered timed variable. Idempotent: already-registered
    /// variables keep their index.
    pub fn apply(&self, table: &mut TimedVarTable) {
        table.preregister(self.vars.iter().copied());
    }
}

/// Leaves in first-visit DFS order from the combinational sinks, followed
/// by any leaf no sink reaches (in dense-index order).
fn leaf_dfs_order(view: &FsmView) -> Vec<usize> {
    let circuit = view.circuit();
    let mut order = Vec::with_capacity(view.leaves().len());
    let mut seen_leaf = vec![false; view.leaves().len()];
    let mut seen_net: HashSet<NetId> = HashSet::new();
    let mut stack: Vec<NetId> = Vec::new();
    for sink in view.sinks() {
        stack.push(sink.net);
        while let Some(net) = stack.pop() {
            if !seen_net.insert(net) {
                continue;
            }
            if let Some(leaf) = view.leaf_index(net) {
                if !seen_leaf[leaf] {
                    seen_leaf[leaf] = true;
                    order.push(leaf);
                }
                continue;
            }
            if let Node::Gate { inputs, .. } = circuit.node(net) {
                // Reverse push so pins are visited left to right.
                for &input in inputs.iter().rev() {
                    stack.push(input);
                }
            }
        }
    }
    for (leaf, seen) in seen_leaf.iter().enumerate() {
        if !seen {
            order.push(leaf);
        }
    }
    order
}

/// Exports the manager's variable order as a timed-variable sequence,
/// skipping variables the table does not know (never allocated through
/// it). Pre-registering the result into a fresh table reproduces the
/// order — the transport that lets parallel sweep workers and warm-start
/// snapshots inherit the main manager's layout instead of re-deriving it.
pub fn export_order(manager: &BddManager, table: &TimedVarTable) -> Vec<TimedVar> {
    manager
        .level_order()
        .into_iter()
        .filter_map(|v| table.timed_var(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_bdd::Var;
    use mct_netlist::{Circuit, GateKind, Time};

    /// Two independent DFF loops plus one input; sinks reach q0 before q1.
    fn two_loop_circuit() -> Circuit {
        let mut c = Circuit::new("two_loop");
        let q0 = c.add_dff("q0", false, Time::ZERO);
        let q1 = c.add_dff("q1", false, Time::ZERO);
        let x = c.add_input("x");
        let n0 = c.add_gate("n0", GateKind::Not, &[q0], Time::UNIT);
        let a1 = c.add_gate("a1", GateKind::And, &[q1, x], Time::UNIT);
        c.connect_dff_data("q0", n0).unwrap();
        c.connect_dff_data("q1", a1).unwrap();
        c.set_output(q0);
        c
    }

    #[test]
    fn copies_of_one_leaf_are_adjacent() {
        let c = two_loop_circuit();
        let view = FsmView::new(&c).unwrap();
        let order = StaticOrder::compute(&view, 3);
        // Every leaf occupies one contiguous block.
        let leaf_of = |tv: &TimedVar| match *tv {
            TimedVar::Shifted { leaf, .. }
            | TimedVar::Absolute { leaf, .. }
            | TimedVar::Next { leaf }
            | TimedVar::Old { leaf }
            | TimedVar::Arbitrary { leaf, .. }
            | TimedVar::Primed { leaf, .. } => leaf,
        };
        let leaves: Vec<usize> = order.vars().iter().map(leaf_of).collect();
        let mut blocks = vec![leaves[0]];
        for &l in &leaves[1..] {
            if *blocks.last().unwrap() != l {
                blocks.push(l);
            }
        }
        let mut unique = blocks.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            blocks.len(),
            unique.len(),
            "a leaf's timed copies are split across blocks: {blocks:?}"
        );
        assert_eq!(unique.len(), view.leaves().len(), "every leaf is covered");
    }

    #[test]
    fn covers_the_shift_and_cycle_ranges() {
        let c = two_loop_circuit();
        let view = FsmView::new(&c).unwrap();
        let order = StaticOrder::compute(&view, 2);
        for leaf in 0..view.leaves().len() {
            for shift in 0..=2 {
                assert!(order.vars().contains(&TimedVar::Shifted { leaf, shift }));
            }
            for cycle in -2..=2 {
                assert!(order.vars().contains(&TimedVar::Absolute { leaf, cycle }));
            }
            assert!(order.vars().contains(&TimedVar::Next { leaf }));
            assert!(order.vars().contains(&TimedVar::Old { leaf }));
        }
    }

    #[test]
    fn apply_pins_dense_indices_in_order() {
        let c = two_loop_circuit();
        let view = FsmView::new(&c).unwrap();
        let order = StaticOrder::compute(&view, 1);
        let mut table = TimedVarTable::new();
        order.apply(&mut table);
        assert_eq!(table.len(), order.vars().len());
        for (i, &tv) in order.vars().iter().enumerate() {
            assert_eq!(table.lookup(tv), Some(Var::new(i as u32)));
        }
        // Idempotent: re-applying allocates nothing new.
        order.apply(&mut table);
        assert_eq!(table.len(), order.vars().len());
    }

    #[test]
    fn export_roundtrips_through_preregistration() {
        let mut m = BddManager::new();
        let mut table = TimedVarTable::new();
        let tvs = [
            TimedVar::Shifted { leaf: 1, shift: 2 },
            TimedVar::Next { leaf: 0 },
            TimedVar::Shifted { leaf: 0, shift: 1 },
        ];
        for &tv in &tvs {
            let v = table.var(tv);
            let _ = m.var(v);
        }
        let exported = export_order(&m, &table);
        assert_eq!(exported, tvs.to_vec());
        // Importing into a fresh table reproduces the level assignment.
        let mut fresh = TimedVarTable::new();
        fresh.preregister(exported.iter().copied());
        for &tv in &tvs {
            assert_eq!(fresh.lookup(tv), table.lookup(tv));
        }
    }

    #[test]
    fn unreached_leaves_still_appear() {
        // An input that feeds nothing is still a leaf; it must land at the
        // end of the order rather than be forgotten.
        let mut c = Circuit::new("dangling");
        let q = c.add_dff("q", false, Time::ZERO);
        let n = c.add_gate("n", GateKind::Not, &[q], Time::UNIT);
        let _unused = c.add_input("unused");
        c.connect_dff_data("q", n).unwrap();
        c.set_output(q);
        let view = FsmView::new(&c).unwrap();
        let order = StaticOrder::compute(&view, 1);
        for leaf in 0..view.leaves().len() {
            assert!(order.vars().contains(&TimedVar::Next { leaf }));
        }
    }
}
