//! Timed Boolean Functions (TBFs): timing-aware Boolean modeling of gates,
//! latches, and synchronous circuits.
//!
//! A TBF is a Boolean function whose arguments are *time-shifted* signals —
//! `f(t) = x₁(t − 1.5)·x̄₁(t − 4)·x₁(t − 5) + x̄₁(t − 2)` is the flattened
//! TBF of the DAC 1994 paper's Figure-2 circuit. TBFs capture complete
//! functional *and* timing behaviour in one object: gates become shifted
//! literals, buffers with unequal rise/fall delays become conjunctions or
//! disjunctions of two shifts of the same signal, and an edge-triggered
//! flip-flop becomes the sampling operator `Q(t) = D(P·⌊(t−d)/P⌋)` — memory
//! without feedback.
//!
//! This crate provides the formalism at two levels:
//!
//! * **Denotational** ([`Tbf`], [`Waveform`]): an AST with the paper's
//!   Figure-1 gate models and an exact evaluator over piecewise-constant
//!   binary waveforms. Used to validate the algebra and the worked examples.
//! * **Symbolic** ([`ConeExtractor`], [`TimedVarTable`]): the discretization
//!   engine. For a clock period `τ` it compiles each combinational cone of a
//!   sequential circuit into a BDD over `(leaf, shift)` variables — the
//!   paper's `y_i(n) = f_i(…, y_j(n − m_{ij}), …)` normal form — by a
//!   dynamic program over the gate DAG memoized on (node, accumulated
//!   downstream delay). The same extractor, handed a different leaf policy,
//!   yields the floating-delay and transition-delay functions and the
//!   untimed next-state functions used for reachability.
//!
//! # Examples
//!
//! ```
//! use mct_netlist::Time;
//! use mct_tbf::{Tbf, Waveform};
//!
//! // An OR gate with per-pin delays 1 and 2 (paper Figure 1a style):
//! let f = Tbf::or(vec![
//!     Tbf::input(0, Time::from_f64(1.0)),
//!     Tbf::input(1, Time::from_f64(2.0)),
//! ]);
//! let w0 = Waveform::step(false, Time::ZERO, true); // x0 rises at t = 0
//! let w1 = Waveform::constant(false);
//! // At t = 0.5 the rise has not propagated; at t = 1 it has.
//! assert!(!f.eval(Time::from_f64(0.5), Time::UNIT, &|s, t| [&w0, &w1][s].value_at(t)));
//! assert!(f.eval(Time::from_f64(1.0), Time::UNIT, &|s, t| [&w0, &w1][s].value_at(t)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod error;
mod extract;
mod order;
mod reachability;
mod symbolic;
mod transfer;
mod vars;
mod waveform;

pub use ast::Tbf;
pub use error::TbfError;
pub use extract::{
    ConeExtractor, DelayClass, DiscreteMachine, LeafPolicy, PathEdge, SigmaConeCache,
};
pub use order::{export_order, OrderPolicy, StaticOrder};
pub use reachability::{count_states, reachable_states};
pub use symbolic::circuit_tbf;
pub use transfer::transfer_bdd;
pub use vars::{TimedVar, TimedVarTable};
pub use waveform::Waveform;

#[cfg(test)]
mod proptests;
