//! The BlockTree ADT (Def. 3.1), both as an efficient operational object and
//! as a literal transducer for sequential-specification replay (Fig. 1).
//!
//! Semantics of Def. 3.1, with `Z = BT × F × (B → bool)`, `ξ0 = (bt0, f, P)`:
//!
//! * `τ((bt,f,P), append(b)) = ({b0}⌢f(bt)⌢{b}, f, P)` if `b ∈ B'`,
//!   unchanged otherwise — note that a successful append *chains `b` to the
//!   tip of the currently selected chain* `f(bt)`.
//! * `τ((bt,f,P), read()) = (bt,f,P)`.
//! * `δ((bt,f,P), append(b)) = true` iff `b ∈ B'`.
//! * `δ((bt,f,P), read()) = {b0}⌢f(bt)` (just `b0` on the initial state).

use crate::adt::AbstractDataType;
use crate::block::Payload;
use crate::chain::Blockchain;
use crate::ids::{BlockId, ProcessId};
use crate::selection::SelectionFn;
use crate::store::{BlockStore, TreeMembership};
use crate::tipcache::ChainCache;
use crate::validity::ValidityPredicate;

/// The data of a block not yet minted into a store: what an `append(b)`
/// proposes. The tree position comes from the ADT semantics (`f(bt)`'s tip),
/// not from the candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateBlock {
    pub producer: ProcessId,
    pub merit_index: u32,
    pub work: u64,
    pub nonce: u64,
    pub payload: Payload,
}

impl CandidateBlock {
    /// A minimal candidate: empty payload, unit work.
    pub fn simple(producer: ProcessId, nonce: u64) -> Self {
        CandidateBlock {
            producer,
            merit_index: producer.0,
            work: 1,
            nonce,
            payload: Payload::Empty,
        }
    }

    pub fn with_payload(mut self, payload: Payload) -> Self {
        self.payload = payload;
        self
    }

    pub fn with_work(mut self, work: u64) -> Self {
        self.work = work;
        self
    }
}

/// The operational BlockTree: owns its store and tree, parameterized by a
/// selection function `f` and validity predicate `P` (both immutable over
/// the computation, as the paper requires).
///
/// The selected chain is cached incrementally (see
/// [`crate::tipcache::ChainCache`]): `selected_tip` is O(1), `read` never
/// re-walks the genesis→tip path, and each successful insert re-selects
/// through one incremental scoring pass ([`SelectionFn::score_inserts`] +
/// [`SelectionFn::apply_partial`]) instead of a full `f(bt)` rescan.
pub struct BlockTree<F: SelectionFn, P: ValidityPredicate> {
    store: BlockStore,
    tree: TreeMembership,
    selection: F,
    predicate: P,
    cache: ChainCache,
}

impl<F: SelectionFn, P: ValidityPredicate> BlockTree<F, P> {
    /// A tree holding only `b0`.
    pub fn new(selection: F, predicate: P) -> Self {
        let store = BlockStore::new();
        let tree = TreeMembership::full(&store);
        BlockTree {
            store,
            tree,
            selection,
            predicate,
            cache: ChainCache::new(),
        }
    }

    /// `read()`: the blockchain `{b0}⌢f(bt)`. O(1) on an unchanged tip
    /// (an `Arc` clone of the cached snapshot); after tip movement the
    /// snapshot is re-materialized from the cached path without walking
    /// parent pointers.
    pub fn read(&self) -> Blockchain {
        self.cache.chain()
    }

    /// The tip of `f(bt)` — O(1), served from the incremental cache.
    pub fn selected_tip(&self) -> BlockId {
        self.cache.tip()
    }

    /// The tip of `f(bt)` re-derived by the full Def. 3.1 rescan — the
    /// specification oracle the cache is differential-tested against, and
    /// the baseline the benchmarks contrast with.
    pub fn selected_tip_full_scan(&self) -> BlockId {
        self.selection.select_tip(&self.store, &self.tree)
    }

    /// `append(b)` per Def. 3.1: mints `candidate` under the tip of `f(bt)`;
    /// if the resulting block satisfies `P` it joins the tree and the call
    /// returns `true`, otherwise the tree is unchanged and the call returns
    /// `false`.
    ///
    /// (The candidate is minted into the store either way so `P` can inspect
    /// a fully formed block — rejected blocks simply never enter the
    /// membership, i.e. never enter `bt`.)
    pub fn append(&mut self, candidate: CandidateBlock) -> bool {
        let parent = self.selected_tip();
        self.graft(parent, candidate).is_some()
    }

    /// Mints `candidate` under an explicit `parent` (used by the refined
    /// append of Def. 3.7, where the oracle fixes the parent, and by
    /// adversarial tests that build arbitrary trees). Returns the new id if
    /// `P` accepted the block.
    pub fn graft(&mut self, parent: BlockId, candidate: CandidateBlock) -> Option<BlockId> {
        assert!(
            self.tree.contains(parent),
            "graft parent {parent} not in the tree"
        );
        let id = self.store.mint(
            parent,
            candidate.producer,
            candidate.merit_index,
            candidate.work,
            candidate.nonce,
            candidate.payload,
        );
        let block = self.store.get(id);
        if self.predicate.is_valid(&self.store, block) {
            self.tree.insert(&self.store, id);
            self.cache
                .on_insert(&self.selection, &self.store, &self.tree, id);
            Some(id)
        } else {
            None
        }
    }

    /// The underlying arena (all minted blocks, including `P`-rejected ones).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// The membership of `bt` (blocks that passed `P`).
    pub fn tree(&self) -> &TreeMembership {
        &self.tree
    }

    /// Number of blocks in `bt` (including genesis).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// A BlockTree always contains at least `b0`.
    pub fn is_empty(&self) -> bool {
        debug_assert!(self.tree.len() >= 1);
        false
    }

    /// The selection function `f`.
    pub fn selection(&self) -> &F {
        &self.selection
    }

    /// The validity predicate `P`.
    pub fn predicate(&self) -> &P {
        &self.predicate
    }
}

/// Input alphabet `A = {append(b), read() : b ∈ B}` of the BT-ADT.
#[derive(Clone, Debug, PartialEq)]
pub enum BtInput {
    Append(CandidateBlock),
    Read,
}

/// Output alphabet `B = BC ∪ {true, false}` of the BT-ADT.
#[derive(Clone, Debug, PartialEq)]
pub enum BtOutput {
    Appended(bool),
    Chain(Blockchain),
}

/// The BT-ADT as a literal transducer (Def. 3.1), replayable by
/// [`check_sequential_history`](crate::adt::check_sequential_history) — the
/// executable form of Fig. 1.
///
/// States are whole `BlockTree` values; cloning a state clones the tree,
/// which is exactly the granularity the formal transition system works at.
/// Use the operational [`BlockTree`] directly when you don't need spec
/// replay.
pub struct BlockTreeAdt<F: SelectionFn + Clone, P: ValidityPredicate + Clone> {
    selection: F,
    predicate: P,
}

impl<F: SelectionFn + Clone, P: ValidityPredicate + Clone> BlockTreeAdt<F, P> {
    pub fn new(selection: F, predicate: P) -> Self {
        BlockTreeAdt {
            selection,
            predicate,
        }
    }
}

/// The abstract state `(bt, f, P)`: we reuse the operational tree plus the
/// (immutable) parameters held by the ADT value itself.
#[derive(Clone, Debug)]
pub struct BtState {
    store: BlockStore,
    tree: TreeMembership,
}

impl BtState {
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    pub fn tree(&self) -> &TreeMembership {
        &self.tree
    }
}

impl<F: SelectionFn + Clone, P: ValidityPredicate + Clone> AbstractDataType for BlockTreeAdt<F, P> {
    type Input = BtInput;
    type Output = BtOutput;
    type State = BtState;

    fn initial_state(&self) -> BtState {
        let store = BlockStore::new();
        let tree = TreeMembership::full(&store);
        BtState { store, tree }
    }

    fn transition(&self, state: &BtState, input: &BtInput) -> BtState {
        match input {
            BtInput::Read => state.clone(),
            BtInput::Append(candidate) => {
                let mut next = state.clone();
                let parent = self.selection.select_tip(&next.store, &next.tree);
                let id = next.store.mint(
                    parent,
                    candidate.producer,
                    candidate.merit_index,
                    candidate.work,
                    candidate.nonce,
                    candidate.payload.clone(),
                );
                if self.predicate.is_valid(&next.store, next.store.get(id)) {
                    next.tree.insert(&next.store, id);
                    next
                } else {
                    // b ∉ B': state unchanged (the speculative mint is
                    // discarded with `next`... but we must not keep it).
                    state.clone()
                }
            }
        }
    }

    fn output(&self, state: &BtState, input: &BtInput) -> BtOutput {
        match input {
            BtInput::Read => {
                let tip = self.selection.select_tip(&state.store, &state.tree);
                BtOutput::Chain(Blockchain::from_tip(&state.store, tip))
            }
            BtInput::Append(candidate) => {
                // δ needs to know whether b ∈ B': mint speculatively on a
                // scratch clone.
                let mut scratch = state.store.clone();
                let parent = self.selection.select_tip(&state.store, &state.tree);
                let id = scratch.mint(
                    parent,
                    candidate.producer,
                    candidate.merit_index,
                    candidate.work,
                    candidate.nonce,
                    candidate.payload.clone(),
                );
                BtOutput::Appended(self.predicate.is_valid(&scratch, scratch.get(id)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adt::{check_sequential_history, Operation};
    use crate::selection::LongestChain;
    use crate::validity::{AcceptAll, DigestPrefix, NoDoubleSpend};

    #[test]
    fn read_on_fresh_tree_returns_genesis() {
        let bt = BlockTree::new(LongestChain, AcceptAll);
        assert_eq!(bt.read(), Blockchain::genesis());
        assert_eq!(bt.len(), 1);
    }

    #[test]
    fn append_extends_selected_chain() {
        let mut bt = BlockTree::new(LongestChain, AcceptAll);
        assert!(bt.append(CandidateBlock::simple(ProcessId(0), 1)));
        assert!(bt.append(CandidateBlock::simple(ProcessId(0), 2)));
        let c = bt.read();
        assert_eq!(c.len(), 3);
        // The second block chains on the first: a single path.
        assert_eq!(bt.store().height(c.tip()), 2);
    }

    #[test]
    fn rejected_append_leaves_tree_unchanged() {
        // zero_bits = 64 rejects everything (digest never all-zero here).
        let mut bt = BlockTree::new(LongestChain, DigestPrefix { zero_bits: 64 });
        assert!(!bt.append(CandidateBlock::simple(ProcessId(0), 1)));
        assert_eq!(bt.read(), Blockchain::genesis());
        assert_eq!(bt.len(), 1);
    }

    #[test]
    fn graft_builds_forks() {
        let mut bt = BlockTree::new(LongestChain, AcceptAll);
        let a = bt
            .graft(BlockId::GENESIS, CandidateBlock::simple(ProcessId(0), 1))
            .unwrap();
        let _b = bt
            .graft(BlockId::GENESIS, CandidateBlock::simple(ProcessId(1), 2))
            .unwrap();
        let c = bt
            .graft(a, CandidateBlock::simple(ProcessId(0), 3))
            .unwrap();
        assert_eq!(bt.read().tip(), c, "longest chain wins");
        assert_eq!(bt.len(), 4);
    }

    #[test]
    fn double_spend_graft_rejected() {
        use crate::block::{Payload, Tx};
        let mut bt = BlockTree::new(LongestChain, NoDoubleSpend);
        let ok = bt.append(
            CandidateBlock::simple(ProcessId(0), 1)
                .with_payload(Payload::Transactions(vec![Tx::new(1, 0, 1, 5)])),
        );
        assert!(ok);
        let dup = bt.append(
            CandidateBlock::simple(ProcessId(0), 2)
                .with_payload(Payload::Transactions(vec![Tx::new(1, 0, 2, 5)])),
        );
        assert!(!dup, "double spend must be rejected by P");
        assert_eq!(bt.read().len(), 2);
    }

    /// The executable Fig. 1: a path of the BT-ADT transition system.
    #[test]
    fn figure_1_transition_path() {
        let adt = BlockTreeAdt::new(LongestChain, DigestPrefix { zero_bits: 1 });

        // Find candidates on both sides of P by nonce search (deterministic).
        let mut valid_nonces = vec![];
        let mut invalid_nonce = None;
        {
            let probe = BlockTreeAdt::new(LongestChain, DigestPrefix { zero_bits: 1 });
            let s0 = probe.initial_state();
            for nonce in 0..64u64 {
                let cand = CandidateBlock::simple(ProcessId(0), nonce);
                match probe.output(&s0, &BtInput::Append(cand)) {
                    BtOutput::Appended(true) if valid_nonces.len() < 2 => valid_nonces.push(nonce),
                    BtOutput::Appended(false) if invalid_nonce.is_none() => {
                        invalid_nonce = Some(nonce)
                    }
                    _ => {}
                }
            }
        }
        let (n1, bad) = (valid_nonces[0], invalid_nonce.unwrap());

        // ξ0 --append(b1)/true--> ξ1 --append(b3)/false--> ξ1 --read()/b0⌢b1
        let b1 = CandidateBlock::simple(ProcessId(0), n1);
        let b3 = CandidateBlock::simple(ProcessId(0), bad);
        let word = vec![
            Operation::with_output(BtInput::Append(b1), BtOutput::Appended(true)),
            Operation::with_output(BtInput::Append(b3), BtOutput::Appended(false)),
            Operation::input_only(BtInput::Read),
        ];
        let states = check_sequential_history(&adt, &word).unwrap();
        assert_eq!(states.len(), 4);
        // states[i] is the state *before* operation i; after the valid
        // append the tree has 2 blocks; the failed append leaves it
        // unchanged.
        assert_eq!(states[0].tree().len(), 1);
        assert_eq!(states[1].tree().len(), 2);
        assert_eq!(states[2].tree().len(), 2);
        assert_eq!(states[3].tree().len(), 2);

        // A word claiming the rejected append succeeded is NOT in L(T).
        let b3_again = CandidateBlock::simple(ProcessId(0), bad);
        let bogus = vec![Operation::with_output(
            BtInput::Append(b3_again),
            BtOutput::Appended(true),
        )];
        assert!(check_sequential_history(&adt, &bogus).is_err());
    }

    #[test]
    fn adt_read_output_matches_operational_tree() {
        let adt = BlockTreeAdt::new(LongestChain, AcceptAll);
        let mut state = adt.initial_state();
        for nonce in 1..=3 {
            let c = CandidateBlock::simple(ProcessId(0), nonce);
            state = adt.transition(&state, &BtInput::Append(c));
        }
        match adt.output(&state, &BtInput::Read) {
            BtOutput::Chain(c) => assert_eq!(c.len(), 4),
            other => panic!("expected chain, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not in the tree")]
    fn graft_requires_known_parent() {
        let mut bt = BlockTree::new(LongestChain, DigestPrefix { zero_bits: 64 });
        // This mint is rejected by P, so its id is not in the tree…
        let rejected = bt.graft(BlockId::GENESIS, CandidateBlock::simple(ProcessId(0), 1));
        assert!(rejected.is_none());
        // …grafting under the rejected (absent) block must panic.
        bt.graft(BlockId(1), CandidateBlock::simple(ProcessId(0), 2));
    }
}
