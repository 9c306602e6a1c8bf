//! # btadt-core — the Blockchain Abstract Data Type
//!
//! Core formalization of *Blockchain Abstract Data Type* (Anceaume,
//! Del Pozzo, Ludinard, Potop-Butucaru, Tucci-Piergiovanni; poster at
//! PPoPP 2019, full version arXiv:1802.09877): the BlockTree ADT, concurrent
//! histories, the BT Strong/Eventual consistency criteria, and the
//! refinement hierarchy.
//!
//! ## Map from paper to modules
//!
//! | Paper | Module |
//! |---|---|
//! | §2.1 ADTs `⟨A,B,Z,ξ0,τ,δ⟩`, Def. 2.3 `L(T)` | [`adt`] |
//! | §2.3 concurrent histories `⟨Σ,E,Λ,↦→,≺,ր⟩` | [`history`] |
//! | §3.1 BlockTree, blocks, chains, `f`, `P`, `score` | [`blocktree`], [`block`], [`store`], [`chain`], [`selection`], [`validity`], [`score`] |
//! | §3.1.2 consistency criteria (Defs. 3.2–3.4) | [`criteria`] |
//! | §3.4 hierarchy (Figs. 8/14) | [`hierarchy`] |
//!
//! Performance-architecture modules with no direct paper counterpart:
//!
//! | Concern | Module |
//! |---|---|
//! | O(log n) ancestry/LCA (jump pointers) | [`store`] |
//! | Incremental selection (`score_inserts`/`apply_partial`) | [`selection`] |
//! | Cached selected chain, zero-rewalk `read()` | [`tipcache`] |
//! | Epoch-based reclamation (grace periods for lock-free readers) | [`epoch`] |
//! | Staged commit pipeline (batched appends) | [`commit`] |
//! | Durable commit log (segmented WAL, group-commit fsync, crash recovery) | [`wal`] |
//! | Storage-fault injection (VFS seam, deterministic power-loss model) | [`vfs`] |
//!
//! The literal Def. 3.1 semantics (full `f(bt)` rescans) remain available
//! as `select_tip` / `selected_tip_full_scan` and serve as the
//! differential-testing oracle for the incremental path.
//!
//! Token oracles (§3.2) live in the companion crate `btadt-oracle`; the
//! shared-memory results of §4.1 in `btadt-registers`; the message-passing
//! substrate of §4.2–4.4 in `btadt-sim`; the Table-1 protocol models in
//! `btadt-protocols`.
//!
//! ## Quick start
//!
//! ```
//! use btadt_core::blocktree::{BlockTree, CandidateBlock};
//! use btadt_core::selection::LongestChain;
//! use btadt_core::validity::AcceptAll;
//! use btadt_core::ids::ProcessId;
//!
//! let mut bt = BlockTree::new(LongestChain, AcceptAll);
//! assert!(bt.append(CandidateBlock::simple(ProcessId(0), 1)));
//! let chain = bt.read(); // {b0}⌢f(bt)
//! assert_eq!(chain.len(), 2);
//! ```

#![allow(rustdoc::broken_intra_doc_links)] // paper notation uses brackets

pub mod adt;
pub mod block;
pub mod blocktree;
pub mod chain;
pub mod commit;
pub mod concurrent;
pub mod criteria;
pub mod epoch;
pub mod hierarchy;
pub mod history;
pub mod ids;
pub mod linearizability;
pub mod score;
pub mod selection;
pub mod store;
pub mod sync;
pub mod tipcache;
pub mod validity;
pub mod vfs;
pub mod wal;

/// Convenient single-import surface.
pub mod prelude {
    pub use crate::adt::{check_sequential_history, AbstractDataType, Operation};
    pub use crate::block::{Block, Payload, Tx};
    pub use crate::blocktree::{BlockTree, BlockTreeAdt, BtInput, BtOutput, CandidateBlock};
    pub use crate::chain::Blockchain;
    pub use crate::commit::{FinalityWatermark, PipelineStats};
    pub use crate::concurrent::{
        ChainView, ConcurrentBlockTree, ShardedStore, DEFAULT_FINALITY_DEPTH,
    };
    pub use crate::criteria::{
        check_eventual_consistency, check_strong_consistency, classify, ConsistencyClass,
        ConsistencyParams, ConsistencyReport, LivenessMode, Verdict, Violation,
    };
    pub use crate::epoch::{EpochDomain, Guard};
    pub use crate::hierarchy::{OracleModel, RefinementClass};
    pub use crate::history::{History, Invocation, OpId, OpRecord, ReadView, Response};
    pub use crate::ids::{BlockId, ProcessId, Time};
    pub use crate::linearizability::{
        check_linearizable, check_linearizable_windowed, Linearizability,
    };
    pub use crate::score::{LengthScore, ScoreFn, WorkScore};
    pub use crate::selection::{
        Ghost, HeaviestWork, LongestChain, SelectionAux, SelectionFn, TrivialProjection,
    };
    pub use crate::store::{BlockMeta, BlockStore, BlockView, TreeMembership};
    pub use crate::tipcache::ChainCache;
    pub use crate::validity::{
        AcceptAll, DigestPrefix, NoDoubleSpend, RejectAll, ValidityPredicate,
    };
    pub use crate::vfs::{FaultConfig, FaultKind, FaultRule, FaultVfs, StdVfs, TornTail, Vfs};
    pub use crate::wal::{CommitRecord, DurabilityError, Wal, WalConfig, WalStats};
}
