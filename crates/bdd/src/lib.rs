//! Reduced ordered binary decision diagrams (ROBDDs) for sequential timing
//! analysis.
//!
//! This crate provides the symbolic-Boolean substrate used by the minimum
//! cycle time engine of Lam, Brayton, and Sangiovanni-Vincentelli, *Exact
//! Minimum Cycle Times for Finite State Machines* (DAC 1994). The decision
//! algorithm of that paper reduces the question "is clock period τ safe?" to
//! equality of two Boolean functions, which is exactly what canonical BDDs
//! answer in O(1) once both functions are built.
//!
//! The design is a classic hash-consed ROBDD package:
//!
//! * nodes live in a hash-consed arena and are referenced by the [`Bdd`]
//!   handle (a `Copy` value packing a node index and a complement bit), so
//!   structural equality of functions is handle equality and negation is
//!   free;
//! * an open-addressed unique table guarantees canonicity (complemented
//!   edges use the regular-high-child rule), and memoized `ITE` with
//!   standard-triple normalization drives all binary operations;
//! * a mark-and-sweep garbage collector behind an explicit root-pinning
//!   API keeps long analysis sweeps from growing the arena monotonically;
//! * variable order is the numeric [`Var`] index order: a variable's level
//!   is its index, so callers control the layout by how they allocate
//!   indices (the timing engine places the time-shifted copies of each
//!   signal side by side). There is no dynamic reordering.
//!
//! # Examples
//!
//! ```
//! use mct_bdd::{BddManager, Var};
//!
//! let mut m = BddManager::new();
//! let a = m.var(Var::new(0));
//! let b = m.var(Var::new(1));
//! let f = m.and(a, b);
//! let g = m.not(f);
//! let na = m.not(a);
//! let nb = m.not(b);
//! let h = m.or(na, nb);
//! // De Morgan: ¬(a ∧ b) == ¬a ∨ ¬b, and canonicity makes this `==`.
//! assert_eq!(g, h);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cubes;
mod dot;
mod hash;
mod manager;
mod snapshot;

pub use cubes::{Cube, CubeIter};
pub use manager::{Bdd, BddManager, BddStats, CompactMap, Var, VarSet};
pub use snapshot::{validate_order, BddImportError, BddSnapshot, SnapshotNode};

#[cfg(test)]
mod proptests;
