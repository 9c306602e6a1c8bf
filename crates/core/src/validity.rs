//! Validity predicates `P : B → {true, false}` (§3.1).
//!
//! "Blocks are said valid if they satisfy a predicate P which is application
//! dependent (for instance, in Bitcoin, a block is considered valid if it can
//! be connected to the current blockchain and does not contain transactions
//! that double spend a previous transaction)."
//!
//! The predicate is a parameter of the BT-ADT, encoded in the state and
//! immutable over the computation. The paper's Bitcoin example is
//! implemented as [`NoDoubleSpend`]; proof-of-work-style digest conditions
//! as [`DigestPrefix`].

use crate::block::{Block, Payload};
use crate::store::BlockView;
use std::collections::HashSet;

/// The application-dependent predicate `P`.
///
/// Receives the candidate block *and* the store (validity may depend on the
/// chain the block connects to, as in the double-spend example). The store
/// comes in as a [`BlockView`] so the same predicate gates appends on the
/// sequential `BlockTree` and the sharded
/// [`ConcurrentBlockTree`](crate::concurrent::ConcurrentBlockTree).
pub trait ValidityPredicate: Sync {
    /// Is `block` in `B'`?
    fn is_valid(&self, store: &dyn BlockView, block: &Block) -> bool;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// `P ≡ true`: every block is valid. The default for structural experiments
/// where the oracle alone gates appends.
#[derive(Clone, Copy, Debug, Default)]
pub struct AcceptAll;

impl ValidityPredicate for AcceptAll {
    fn is_valid(&self, _store: &dyn BlockView, _block: &Block) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "accept-all"
    }
}

/// `P ≡ false` for every non-genesis block: used to exercise the
/// `append(b)/false` edges of the transition system (Fig. 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct RejectAll;

impl ValidityPredicate for RejectAll {
    fn is_valid(&self, _store: &dyn BlockView, block: &Block) -> bool {
        block.is_genesis()
    }

    fn name(&self) -> &'static str {
        "reject-all"
    }
}

/// Proof-of-work-flavoured validity: the block digest must have at least
/// `zero_bits` leading zero bits. Models the "hash below target" condition
/// without doing any actual search — token oracles already abstract the
/// lottery (§3.2), so this predicate is used when we want `P` itself to be
/// non-trivial.
#[derive(Clone, Copy, Debug)]
pub struct DigestPrefix {
    pub zero_bits: u32,
}

impl ValidityPredicate for DigestPrefix {
    fn is_valid(&self, _store: &dyn BlockView, block: &Block) -> bool {
        block.is_genesis() || block.digest.leading_zeros() >= self.zero_bits
    }

    fn name(&self) -> &'static str {
        "digest-prefix"
    }
}

/// The paper's Bitcoin example: a block is valid iff it connects to the tree
/// and none of its transactions re-spends a transaction id already spent on
/// its ancestor path (nor duplicates one inside the block itself).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoDoubleSpend;

impl ValidityPredicate for NoDoubleSpend {
    fn is_valid(&self, store: &dyn BlockView, block: &Block) -> bool {
        if block.is_genesis() {
            return true;
        }
        let txs = match &block.payload {
            Payload::Transactions(txs) => txs,
            // Non-transactional payloads have nothing to double spend.
            _ => return true,
        };
        let mut ids: HashSet<u64> = HashSet::with_capacity(txs.len());
        for tx in txs {
            if !ids.insert(tx.id) {
                return false; // duplicate within the block
            }
        }
        // Walk the ancestor chain the block connects to.
        let mut cur = block.parent;
        while let Some(pid) = cur {
            let mut respent = false;
            let mut next = None;
            store.with_block(pid, &mut |anc| {
                if let Payload::Transactions(prev) = &anc.payload {
                    respent |= prev.iter().any(|tx| ids.contains(&tx.id));
                }
                next = anc.parent;
            });
            if respent {
                return false; // re-spend of an ancestor's tx
            }
            cur = next;
        }
        true
    }

    fn name(&self) -> &'static str {
        "no-double-spend"
    }
}

/// Conjunction combinator: valid iff both operands accept.
pub struct And<A, B>(pub A, pub B);

impl<A: ValidityPredicate, B: ValidityPredicate> ValidityPredicate for And<A, B> {
    fn is_valid(&self, store: &dyn BlockView, block: &Block) -> bool {
        self.0.is_valid(store, block) && self.1.is_valid(store, block)
    }

    fn name(&self) -> &'static str {
        "and"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Tx;
    use crate::ids::{BlockId, ProcessId};
    use crate::store::BlockStore;

    fn mint_with_txs(store: &mut BlockStore, parent: BlockId, txs: Vec<Tx>) -> BlockId {
        store.mint(
            parent,
            ProcessId(0),
            0,
            1,
            store.len() as u64,
            Payload::Transactions(txs),
        )
    }

    #[test]
    fn accept_and_reject() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 0, Payload::Empty);
        let blk = s.get(a).clone();
        assert!(AcceptAll.is_valid(&s, &blk));
        assert!(!RejectAll.is_valid(&s, &blk));
        let genesis = s.get(BlockId::GENESIS).clone();
        assert!(RejectAll.is_valid(&s, &genesis), "b0 ∈ B' by assumption");
    }

    #[test]
    fn digest_prefix_threshold() {
        let mut s = BlockStore::new();
        // Mint until we find digests on both sides of a 2-bit threshold.
        let mut some_valid = false;
        let mut some_invalid = false;
        for nonce in 0..64 {
            let id = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, nonce, Payload::Empty);
            let blk = s.get(id).clone();
            let p = DigestPrefix { zero_bits: 2 };
            if p.is_valid(&s, &blk) {
                some_valid = true;
                assert!(blk.digest.leading_zeros() >= 2);
            } else {
                some_invalid = true;
            }
        }
        assert!(some_valid && some_invalid, "both outcomes exercised");
    }

    #[test]
    fn double_spend_within_block() {
        let mut s = BlockStore::new();
        let b = mint_with_txs(
            &mut s,
            BlockId::GENESIS,
            vec![Tx::new(1, 0, 1, 5), Tx::new(1, 0, 2, 5)],
        );
        let blk = s.get(b).clone();
        assert!(!NoDoubleSpend.is_valid(&s, &blk));
    }

    #[test]
    fn double_spend_against_ancestor() {
        let mut s = BlockStore::new();
        let a = mint_with_txs(&mut s, BlockId::GENESIS, vec![Tx::new(1, 0, 1, 5)]);
        let b = mint_with_txs(&mut s, a, vec![Tx::new(1, 0, 2, 5)]);
        let blk = s.get(b).clone();
        assert!(!NoDoubleSpend.is_valid(&s, &blk));
    }

    #[test]
    fn fresh_txs_are_valid() {
        let mut s = BlockStore::new();
        let a = mint_with_txs(&mut s, BlockId::GENESIS, vec![Tx::new(1, 0, 1, 5)]);
        let b = mint_with_txs(&mut s, a, vec![Tx::new(2, 1, 2, 3)]);
        let blk = s.get(b).clone();
        assert!(NoDoubleSpend.is_valid(&s, &blk));
    }

    #[test]
    fn double_spend_on_other_branch_is_fine() {
        // Spending the same tx id on two *different* branches is not a
        // double spend: validity checks the ancestor path only.
        let mut s = BlockStore::new();
        let a = mint_with_txs(&mut s, BlockId::GENESIS, vec![Tx::new(1, 0, 1, 5)]);
        let b = mint_with_txs(&mut s, BlockId::GENESIS, vec![Tx::new(1, 0, 2, 5)]);
        assert!(NoDoubleSpend.is_valid(&s, &s.get(a).clone()));
        assert!(NoDoubleSpend.is_valid(&s, &s.get(b).clone()));
    }

    #[test]
    fn and_combinator() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 0, Payload::Empty);
        let blk = s.get(a).clone();
        assert!(And(AcceptAll, AcceptAll).is_valid(&s, &blk));
        assert!(!And(AcceptAll, RejectAll).is_valid(&s, &blk));
        assert!(!And(RejectAll, AcceptAll).is_valid(&s, &blk));
    }
}
