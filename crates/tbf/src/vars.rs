//! Mapping between timed signal references and BDD variables.

use mct_bdd::Var;
use std::collections::HashMap;
use std::fmt;

/// A timed reference to a combinational leaf (flip-flop output or primary
/// input), identifying one BDD variable.
///
/// The discretized TBF `y_i(n) = f_i(…, y_j(n − m), …)` is a Boolean
/// function over *(leaf, time)* pairs; the different analyses need slightly
/// different time coordinates, which the variants capture:
///
/// * [`Shifted`](TimedVar::Shifted) — the leaf sampled `shift` clock cycles
///   before the reference cycle (the `n − m` form of the paper's Section 6);
/// * [`Absolute`](TimedVar::Absolute) — the leaf at an absolute cycle index,
///   used while unrolling from the initial state in the basis step of the
///   decision algorithm;
/// * [`Next`](TimedVar::Next) — the primed copy of a state leaf for image
///   computation in reachability analysis;
/// * [`Old`](TimedVar::Old) — the previous-vector value in transition
///   (2-vector) delay analysis;
/// * [`Arbitrary`](TimedVar::Arbitrary) — the unknown pre-vector value still
///   travelling on a path of the given delay, in floating-mode (single
///   vector) delay analysis. Two occurrences with the same `(leaf, delay)`
///   sample the same unknown waveform point and therefore share a variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TimedVar {
    /// Leaf value `shift` cycles before the reference cycle.
    Shifted {
        /// Dense leaf index (see [`mct_netlist::FsmView::leaves`]).
        leaf: usize,
        /// Number of clock cycles back (the paper's `m_i = ⌈k_i/τ⌉`).
        shift: i64,
    },
    /// Leaf value at an absolute cycle (basis step of the decision
    /// algorithm).
    Absolute {
        /// Dense leaf index.
        leaf: usize,
        /// Absolute cycle number.
        cycle: i64,
    },
    /// Primed (next-cycle) copy of a state leaf, for reachability images.
    Next {
        /// Dense leaf index.
        leaf: usize,
    },
    /// Previous input vector (transition-delay analysis).
    Old {
        /// Dense leaf index.
        leaf: usize,
    },
    /// Unknown value still propagating on a path of the given delay
    /// (floating-delay analysis).
    Arbitrary {
        /// Dense leaf index.
        leaf: usize,
        /// Path delay in milli-units distinguishing the sample point.
        delay: i64,
    },
    /// Primed copy of a *history slot* (leaf value `depth` cycles back) in
    /// the product-machine construction of the exact equivalence check.
    Primed {
        /// Dense leaf index.
        leaf: usize,
        /// History depth the slot holds.
        depth: i64,
    },
}

impl fmt::Display for TimedVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimedVar::Shifted { leaf, shift } => write!(f, "x{leaf}(n-{shift})"),
            TimedVar::Absolute { leaf, cycle } => write!(f, "x{leaf}[{cycle}]"),
            TimedVar::Next { leaf } => write!(f, "x{leaf}'"),
            TimedVar::Old { leaf } => write!(f, "x{leaf}°"),
            TimedVar::Arbitrary { leaf, delay } => write!(f, "x{leaf}?{delay}"),
            TimedVar::Primed { leaf, depth } => write!(f, "x{leaf}'[{depth}]"),
        }
    }
}

/// Bidirectional map between [`TimedVar`]s and BDD [`Var`] indices.
///
/// Variables are allocated on first use and never freed; all analyses in one
/// session share a table (and a [`mct_bdd::BddManager`]) so that equal timed
/// references get equal BDD variables — the precondition for comparing
/// functions by canonicity.
///
/// Allocation order doubles as the BDD variable order (a manager's level is
/// the variable index), so [`preregister`](Self::preregister)ing a
/// structural order into a fresh table — see [`crate::StaticOrder`] — fully
/// controls the levels.
///
/// # Examples
///
/// ```
/// use mct_tbf::{TimedVar, TimedVarTable};
/// let mut table = TimedVarTable::new();
/// let a = table.var(TimedVar::Shifted { leaf: 0, shift: 1 });
/// let b = table.var(TimedVar::Shifted { leaf: 0, shift: 2 });
/// assert_ne!(a, b);
/// assert_eq!(table.var(TimedVar::Shifted { leaf: 0, shift: 1 }), a);
/// assert_eq!(table.timed_var(a), Some(TimedVar::Shifted { leaf: 0, shift: 1 }));
/// ```
#[derive(Clone, Debug, Default)]
pub struct TimedVarTable {
    forward: HashMap<TimedVar, Var>,
    reverse: Vec<TimedVar>,
}

impl TimedVarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The BDD variable for `tv`, allocating a fresh index on first use.
    pub fn var(&mut self, tv: TimedVar) -> Var {
        if let Some(&v) = self.forward.get(&tv) {
            return v;
        }
        let v = Var::new(self.reverse.len() as u32);
        self.forward.insert(tv, v);
        self.reverse.push(tv);
        v
    }

    /// Registers `tvs` in sequence, allocating dense indices in exactly
    /// that order (already-registered entries keep their index). Used to
    /// pin a precomputed variable order before extraction touches the
    /// table.
    pub fn preregister<I: IntoIterator<Item = TimedVar>>(&mut self, tvs: I) {
        for tv in tvs {
            self.var(tv);
        }
    }

    /// The existing BDD variable for `tv`, if allocated.
    pub fn lookup(&self, tv: TimedVar) -> Option<Var> {
        self.forward.get(&tv).copied()
    }

    /// The timed reference behind a BDD variable.
    pub fn timed_var(&self, v: Var) -> Option<TimedVar> {
        self.reverse.get(v.index() as usize).copied()
    }

    /// Number of allocated variables.
    pub fn len(&self) -> usize {
        self.reverse.len()
    }

    /// Whether no variable has been allocated.
    pub fn is_empty(&self) -> bool {
        self.reverse.is_empty()
    }

    /// All allocated `(TimedVar, Var)` pairs in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (TimedVar, Var)> + '_ {
        self.reverse
            .iter()
            .enumerate()
            .map(|(i, &tv)| (tv, Var::new(i as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_stable() {
        let mut t = TimedVarTable::new();
        let tv1 = TimedVar::Shifted { leaf: 3, shift: 2 };
        let tv2 = TimedVar::Old { leaf: 3 };
        let v1 = t.var(tv1);
        let v2 = t.var(tv2);
        assert_ne!(v1, v2);
        assert_eq!(t.var(tv1), v1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(tv2), Some(v2));
        assert_eq!(t.lookup(TimedVar::Next { leaf: 9 }), None);
    }

    #[test]
    fn variants_are_distinct() {
        let mut t = TimedVarTable::new();
        let vars = [
            TimedVar::Shifted { leaf: 0, shift: 0 },
            TimedVar::Absolute { leaf: 0, cycle: 0 },
            TimedVar::Next { leaf: 0 },
            TimedVar::Old { leaf: 0 },
            TimedVar::Arbitrary { leaf: 0, delay: 0 },
        ];
        let ids: Vec<_> = vars.iter().map(|&tv| t.var(tv)).collect();
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert_ne!(ids[i], ids[j]);
            }
        }
    }

    #[test]
    fn reverse_lookup() {
        let mut t = TimedVarTable::new();
        let tv = TimedVar::Arbitrary {
            leaf: 7,
            delay: 4500,
        };
        let v = t.var(tv);
        assert_eq!(t.timed_var(v), Some(tv));
        assert_eq!(t.timed_var(mct_bdd::Var::new(99)), None);
    }

    #[test]
    fn iter_in_allocation_order() {
        let mut t = TimedVarTable::new();
        t.var(TimedVar::Next { leaf: 1 });
        t.var(TimedVar::Next { leaf: 0 });
        let collected: Vec<_> = t.iter().map(|(tv, _)| tv).collect();
        assert_eq!(
            collected,
            vec![TimedVar::Next { leaf: 1 }, TimedVar::Next { leaf: 0 }]
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            TimedVar::Shifted { leaf: 2, shift: 3 }.to_string(),
            "x2(n-3)"
        );
        assert_eq!(TimedVar::Next { leaf: 1 }.to_string(), "x1'");
        assert_eq!(
            TimedVar::Absolute { leaf: 0, cycle: -2 }.to_string(),
            "x0[-2]"
        );
    }

    #[test]
    fn empty_table() {
        let t = TimedVarTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
