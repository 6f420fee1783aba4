//! Versioned on-disk persistence for the analysis service's hot artifacts.
//!
//! The service caches two expensive artifact classes in memory —
//! reachable-state snapshots and per-cone replay seeds — plus final report
//! JSON. This crate gives the two symbolic classes a durable form:
//!
//! * a **binary codec** (DDDMP-flavoured) for the plain-data mirrors from
//!   `mct-core` ([`ReachData`], [`ConeData`]): a fixed
//!   header carrying magic, format version, artifact kind, and a
//!   complement-edge flag, then little-endian fixed-width payloads whose
//!   node lists are topologically sorted with signed (negative =
//!   complemented) edge references — see `DESIGN.md` §12 for the full
//!   format specification;
//! * a **store directory manager** ([`Store`]) that owns a `--cache-dir`:
//!   byte-accounted writes with LRU eviction under a configurable budget,
//!   atomic tempfile-rename publication (safe against a daemon killed
//!   mid-write and against a second replica reading concurrently), and
//!   offline inspection (`ls`/`gc`/`rm`) for the `mct cache` subcommand.
//!
//! Decoding is hostile-input safe by construction: every read is
//! bounds-checked, every length is validated against the bytes that
//! remain, and any malformed, truncated, or mis-versioned file surfaces as
//! a [`StoreError`] the caller treats as a cache miss — never a panic.
//! Artifacts are keyed by the **layout** digest (plus the options
//! fingerprint where the in-memory tier uses one): snapshot BDD variables
//! are register *positions*, so two circuits with equal behaviour but
//! different register layouts must not share artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod dirstore;

pub use codec::{
    decode_cone, decode_reach, encode_cone, encode_reach, peek_kind, ArtifactKind, StoreError,
    FORMAT_VERSION, MAGIC,
};
pub use dirstore::{cone_name, reach_name, GcOutcome, Store, StoreEntry};

pub use mct_core::{ConeData, ReachData};
