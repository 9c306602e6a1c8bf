//! Consistency criteria over concurrent histories (§2.4, §3.1.2).
//!
//! A consistency criterion `C : T → P(H)` picks the admissible concurrent
//! histories of an ADT (Def. 2.5). The paper defines two for the BT-ADT,
//! each a conjunction of properties:
//!
//! * **BT Strong Consistency** (Def. 3.2) = Block Validity ∧ Local Monotonic
//!   Read ∧ Strong Prefix ∧ Ever-Growing Tree;
//! * **BT Eventual Consistency** (Def. 3.4) = Block Validity ∧ Local
//!   Monotonic Read ∧ Ever-Growing Tree ∧ Eventual Prefix.
//!
//! Each property lives in its own submodule and returns a structured
//! [`Verdict`] carrying counterexample [`Violation`]s — checkers never
//! panic on bad histories, they report.
//!
//! # Liveness on finite traces
//!
//! Ever-Growing Tree and Eventual Prefix constrain *infinite* histories
//! ("the set … is finite"); any finite trace satisfies them literally. To
//! make them falsifiable, checkers take a [`LivenessMode`]:
//!
//! * [`LivenessMode::Vacuous`] — the literal semantics: finite sets are
//!   finite, the property holds.
//! * [`LivenessMode::ConvergenceCut`]`(c)` — the bounded-horizon semantics:
//!   the trace must *witness* convergence by global time `c`. Every read
//!   responding at or before `c` plays the reference role `r`; reads (or
//!   read pairs) strictly after `c` must score higher (EGT) or share the
//!   required prefix (EP). The finitely-many-bad-reads of the definition
//!   are exactly those landing in the interval `(r, c]`.
//!
//! Experiments use `ConvergenceCut` at a quiescence point (e.g. after the
//! last message settles); each run chooses its own cut (the oracle runner
//! reports a `suggested_cut`).

pub mod block_validity;
pub mod conjunctions;
pub mod eventual_prefix;
pub mod ever_growing_tree;
pub mod local_monotonic_read;
pub mod strong_prefix;

pub use conjunctions::{
    check_eventual_consistency, check_strong_consistency, classify, ConsistencyClass,
    ConsistencyParams, ConsistencyReport, CriterionKind,
};

use crate::history::OpId;
use crate::ids::{BlockId, ProcessId, Time};
use std::fmt;

/// How to evaluate liveness clauses on a finite trace (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LivenessMode {
    /// Literal infinite-history semantics: finite traces pass.
    Vacuous,
    /// Bounded-horizon semantics: convergence must be witnessed after the
    /// given global-clock cut.
    ConvergenceCut(Time),
}

/// Outcome of checking one property on one history.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Property name (stable, used in reports).
    pub property: &'static str,
    /// Did the property hold?
    pub holds: bool,
    /// Counterexample witnesses (empty iff `holds`).
    pub violations: Vec<Violation>,
}

impl Verdict {
    pub fn passing(property: &'static str) -> Self {
        Verdict {
            property,
            holds: true,
            violations: Vec::new(),
        }
    }

    pub fn from_violations(property: &'static str, violations: Vec<Violation>) -> Self {
        Verdict {
            property,
            holds: violations.is_empty(),
            violations,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.holds {
            write!(f, "{}: HOLDS", self.property)
        } else {
            writeln!(
                f,
                "{}: VIOLATED ({} witness{})",
                self.property,
                self.violations.len(),
                if self.violations.len() == 1 { "" } else { "es" }
            )?;
            for v in self.violations.iter().take(5) {
                writeln!(f, "  - {v}")?;
            }
            if self.violations.len() > 5 {
                writeln!(f, "  … and {} more", self.violations.len() - 5)?;
            }
            Ok(())
        }
    }
}

/// A concrete counterexample witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A read returned a block that fails the validity predicate `P`.
    InvalidBlock { read: OpId, block: BlockId },
    /// A read returned a block with no prior `append` invocation.
    UnappendedBlock { read: OpId, block: BlockId },
    /// Scores decreased across two reads of one process.
    NonMonotonicRead {
        process: ProcessId,
        earlier: OpId,
        later: OpId,
        earlier_score: u64,
        later_score: u64,
    },
    /// Two reads returned chains neither of which prefixes the other.
    IncomparableReads { a: OpId, b: OpId },
    /// A read after the convergence cut failed to out-score a reference
    /// read from before the cut (Ever-Growing Tree).
    StagnantRead {
        reference: OpId,
        reference_score: u64,
        late: OpId,
        late_score: u64,
    },
    /// Two post-cut reads share too short a common prefix (Eventual
    /// Prefix): `mcps < required`.
    DivergentPair {
        reference: OpId,
        required: u64,
        a: OpId,
        b: OpId,
        mcps: u64,
    },
    /// The trace offers no reads after the convergence cut, so convergence
    /// cannot be witnessed.
    NoReadsAfterCut { cut: Time },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::InvalidBlock { read, block } => {
                write!(f, "{read:?} returned invalid block {block}")
            }
            Violation::UnappendedBlock { read, block } => {
                write!(f, "{read:?} returned {block} never submitted via append()")
            }
            Violation::NonMonotonicRead {
                process,
                earlier,
                later,
                earlier_score,
                later_score,
            } => write!(
                f,
                "{process} read score {later_score} ({later:?}) after {earlier_score} ({earlier:?})"
            ),
            Violation::IncomparableReads { a, b } => {
                write!(f, "reads {a:?} and {b:?} returned incomparable chains")
            }
            Violation::StagnantRead {
                reference,
                reference_score,
                late,
                late_score,
            } => write!(
                f,
                "post-cut {late:?} scored {late_score} ≤ {reference_score} of {reference:?}"
            ),
            Violation::DivergentPair {
                reference,
                required,
                a,
                b,
                mcps,
            } => write!(
                f,
                "post-cut {a:?},{b:?} share prefix score {mcps} < {required} required by {reference:?}"
            ),
            Violation::NoReadsAfterCut { cut } => {
                write!(f, "no reads after convergence cut {cut}")
            }
        }
    }
}
