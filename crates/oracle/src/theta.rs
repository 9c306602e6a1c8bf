//! The token oracle Θ-ADT (§3.2, Defs. 3.5–3.6).
//!
//! The oracle is "the only generator of valid blocks": a process calls
//! `getToken(obj_h, obj_ℓ)` to try to win the right to chain a new block
//! under `obj_h`; the oracle pops the caller's merit tape and grants a token
//! with probability `p_{α_i}`. Consuming the token
//! (`consumeToken(obj^tknh_ℓ)`) inserts the block into the per-object set
//! `K[h]`, which holds **at most k** elements — the oracle's
//! synchronization power: at most `k` branches can sprout from any block.
//!
//! * Θ_F ("frugal", Def. 3.5) — finite `k`;
//! * Θ_P ("prodigal", Def. 3.6) — `k = ∞`, i.e. validation only, no fork
//!   control.
//!
//! Thm. 3.2 (k-Fork Coherence, Def. 3.9) holds *by construction*: `add`
//! refuses once `|K[h]| = k`, and each token is consumed at most once.

use crate::merit::Merits;
use crate::tape::Tape;
use btadt_core::hierarchy::OracleModel;
use btadt_core::ids::{mix2, BlockId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The fork bound `k` of the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KBound {
    /// Frugal: at most `k` consumed tokens per object.
    Finite(u32),
    /// Prodigal: unbounded.
    Infinite,
}

impl KBound {
    /// May another token be consumed given `current` already consumed?
    #[inline]
    pub fn admits(&self, current: usize) -> bool {
        match self {
            KBound::Finite(k) => current < *k as usize,
            KBound::Infinite => true,
        }
    }
}

/// A granted token `tkn_h`: the right to chain one block under `parent`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenGrant {
    /// The object `h` the token binds to.
    pub parent: BlockId,
    /// Unique token identity (element of the countable set `T`).
    pub serial: u64,
    /// Merit index of the winning process.
    pub merit_index: u32,
}

/// Multiplicative (Fibonacci) hashing for dense [`BlockId`] keys. Block ids
/// come from the store's one counter, never from outside input, so no key
/// is crafted to collide, and a single odd multiply spreads them over the
/// table's low bits and its high control bits alike. `K[h]` lookups sit on
/// every contested Protocol A round, where SipHash dominated the oracle's
/// critical section.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.0 = (self.0 ^ x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The Θ oracle state: merit tapes + the `K[]` array of bounded sets.
#[derive(Clone, Debug)]
pub struct ThetaOracle {
    k: KBound,
    merits: Merits,
    rate: f64,
    tapes: Vec<Tape>,
    /// `K[h]`: blocks whose token for parent `h` was consumed.
    consumed: HashMap<BlockId, Vec<BlockId>, BuildHasherDefault<IdHasher>>,
    /// Every grant ever made, indexed by its serial (serials are dense, so
    /// the next serial is the table's length): the parent the token was
    /// granted for, and whether it has been consumed (each token is
    /// consumable at most once).
    tokens: Vec<(BlockId, bool)>,
}

impl ThetaOracle {
    /// A frugal oracle Θ_F,k.
    pub fn frugal(k: u32, merits: Merits, rate: f64, seed: u64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self::with_bound(KBound::Finite(k), merits, rate, seed)
    }

    /// A prodigal oracle Θ_P (= Θ_F with k = ∞, Def. 3.6).
    pub fn prodigal(merits: Merits, rate: f64, seed: u64) -> Self {
        Self::with_bound(KBound::Infinite, merits, rate, seed)
    }

    fn with_bound(k: KBound, merits: Merits, rate: f64, seed: u64) -> Self {
        let tapes = (0..merits.len())
            .map(|i| {
                let p = merits.token_probability(i, rate);
                Tape::new(mix2(seed, i as u64), p)
            })
            .collect();
        ThetaOracle {
            k,
            merits,
            rate,
            tapes,
            consumed: HashMap::default(),
            tokens: Vec::new(),
        }
    }

    /// The fork bound.
    pub fn k(&self) -> KBound {
        self.k
    }

    /// The oracle model descriptor for hierarchy bookkeeping.
    pub fn model(&self) -> OracleModel {
        match self.k {
            KBound::Finite(k) => OracleModel::Frugal { k },
            KBound::Infinite => OracleModel::Prodigal,
        }
    }

    /// The merit vector.
    pub fn merits(&self) -> &Merits {
        &self.merits
    }

    /// The global rate (difficulty knob).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// `getToken(obj_h, obj_ℓ)`: pops the invoker's tape; on `tkn` returns a
    /// grant binding a fresh token to `parent`, else `None` (`⊥`).
    pub fn get_token(&mut self, merit_index: usize, parent: BlockId) -> Option<TokenGrant> {
        let cell = self.tapes[merit_index].pop();
        if cell.is_token() {
            let serial = self.tokens.len() as u64;
            self.tokens.push((parent, false));
            Some(TokenGrant {
                parent,
                serial,
                merit_index: merit_index as u32,
            })
        } else {
            None
        }
    }

    /// `consumeToken(obj^tknh_ℓ)`: inserts `block` into `K[parent]` if the
    /// token is genuine (granted for this parent), unspent, and
    /// `|K[parent]| < k`; in every case returns `get(K, h)` — the current
    /// contents of `K[parent]`.
    pub fn consume_token(&mut self, grant: &TokenGrant, block: BlockId) -> Vec<BlockId> {
        // Genuine: the serial was granted, for this parent. Serials past
        // the table (forged, or beyond `usize`) find no entry.
        let unspent = usize::try_from(grant.serial)
            .ok()
            .and_then(|i| self.tokens.get_mut(i))
            .filter(|(parent, spent)| *parent == grant.parent && !*spent);
        if let Some((_, spent)) = unspent {
            *spent = true;
            let set = self.consumed.entry(grant.parent).or_default();
            if self.k.admits(set.len()) {
                set.push(block);
            }
            return set.clone();
        }
        self.consumed_for(grant.parent).to_vec()
    }

    /// Current contents of `K[parent]`.
    pub fn consumed_for(&self, parent: BlockId) -> &[BlockId] {
        self.consumed.get(&parent).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of tape cells the invoker has consumed (its attempt count).
    pub fn attempts(&self, merit_index: usize) -> u64 {
        self.tapes[merit_index].position()
    }

    /// Number of tokens granted so far.
    pub fn tokens_granted(&self) -> u64 {
        self.tokens.len() as u64
    }

    /// Number of tokens consumed so far. O(tokens granted): a probe for
    /// experiments and tests, not for the decide path.
    pub fn tokens_consumed(&self) -> usize {
        self.tokens.iter().filter(|(_, spent)| *spent).count()
    }

    /// Def. 3.9 / Thm. 3.2: no object ever has more than `k` consumed
    /// tokens. True by construction; exposed so experiments can assert it.
    pub fn fork_coherent(&self) -> bool {
        match self.k {
            KBound::Infinite => true,
            KBound::Finite(k) => self.consumed.values().all(|v| v.len() <= k as usize),
        }
    }

    /// Parents that have at least one consumed token, with their fork
    /// degree (for fork-rate experiments).
    pub fn fork_degrees(&self) -> impl Iterator<Item = (BlockId, usize)> + '_ {
        self.consumed.iter().map(|(&p, v)| (p, v.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(k: KBound) -> ThetaOracle {
        // rate 2.0 over 2 uniform merits → p = 1.0 each: every attempt wins.
        let merits = Merits::uniform(2);
        match k {
            KBound::Finite(k) => ThetaOracle::frugal(k, merits, 2.0, 42),
            KBound::Infinite => ThetaOracle::prodigal(merits, 2.0, 42),
        }
    }

    #[test]
    fn get_token_honours_tape() {
        // rate 0 → p = 0 → never a token.
        let mut o = ThetaOracle::prodigal(Merits::uniform(1), 0.0, 1);
        assert!(o.get_token(0, BlockId::GENESIS).is_none());
        assert_eq!(o.attempts(0), 1);
        // p = 1 → always a token.
        let mut o = ThetaOracle::prodigal(Merits::uniform(1), 1.0, 1);
        let g = o.get_token(0, BlockId::GENESIS).unwrap();
        assert_eq!(g.parent, BlockId::GENESIS);
        assert_eq!(o.tokens_granted(), 1);
    }

    #[test]
    fn frugal_k1_admits_single_consume() {
        let mut o = oracle(KBound::Finite(1));
        let g1 = o.get_token(0, BlockId::GENESIS).unwrap();
        let g2 = o.get_token(1, BlockId::GENESIS).unwrap();
        let s1 = o.consume_token(&g1, BlockId(1));
        assert_eq!(s1, vec![BlockId(1)]);
        // Second consume for the same parent: set already full.
        let s2 = o.consume_token(&g2, BlockId(2));
        assert_eq!(s2, vec![BlockId(1)], "K[h] stays at the first block");
        assert!(o.fork_coherent());
    }

    #[test]
    fn frugal_k2_admits_two() {
        let mut o = oracle(KBound::Finite(2));
        let g1 = o.get_token(0, BlockId::GENESIS).unwrap();
        let g2 = o.get_token(1, BlockId::GENESIS).unwrap();
        let g3 = o.get_token(0, BlockId::GENESIS).unwrap();
        o.consume_token(&g1, BlockId(1));
        o.consume_token(&g2, BlockId(2));
        let s = o.consume_token(&g3, BlockId(3));
        assert_eq!(s, vec![BlockId(1), BlockId(2)]);
        assert!(o.fork_coherent());
    }

    #[test]
    fn prodigal_admits_unboundedly() {
        let mut o = oracle(KBound::Infinite);
        for i in 1..=50 {
            let g = o.get_token(0, BlockId::GENESIS).unwrap();
            let s = o.consume_token(&g, BlockId(i));
            assert_eq!(s.len(), i as usize);
        }
        assert!(o.fork_coherent());
    }

    #[test]
    fn token_consumable_at_most_once() {
        let mut o = oracle(KBound::Infinite);
        let g = o.get_token(0, BlockId::GENESIS).unwrap();
        o.consume_token(&g, BlockId(1));
        let again = o.consume_token(&g, BlockId(2));
        assert_eq!(again, vec![BlockId(1)], "replayed token is inert");
        assert_eq!(o.tokens_consumed(), 1);
    }

    #[test]
    fn forged_token_rejected() {
        let mut o = oracle(KBound::Infinite);
        let forged = TokenGrant {
            parent: BlockId::GENESIS,
            serial: 999,
            merit_index: 0,
        };
        let s = o.consume_token(&forged, BlockId(1));
        assert!(s.is_empty());
        // The token table is indexed by serial: one past its end and the
        // largest serial must both miss it, not index out of bounds.
        o.get_token(0, BlockId::GENESIS).unwrap();
        for serial in [o.tokens_granted(), u64::MAX] {
            let forged = TokenGrant {
                parent: BlockId::GENESIS,
                serial,
                merit_index: 0,
            };
            let s = o.consume_token(&forged, BlockId(2));
            assert!(s.is_empty(), "serial {serial} was never granted");
        }
        assert_eq!(o.tokens_consumed(), 0);
    }

    #[test]
    fn token_bound_to_its_parent() {
        let mut o = oracle(KBound::Infinite);
        let g = o.get_token(0, BlockId::GENESIS).unwrap();
        // Tamper: present the token for a different parent.
        let tampered = TokenGrant {
            parent: BlockId(7),
            ..g.clone()
        };
        let s = o.consume_token(&tampered, BlockId(1));
        assert!(s.is_empty(), "token for b0 is invalid for b7");
        // The genuine grant still works.
        let s = o.consume_token(&g, BlockId(1));
        assert_eq!(s, vec![BlockId(1)]);
    }

    #[test]
    fn per_object_independence() {
        let mut o = oracle(KBound::Finite(1));
        let g1 = o.get_token(0, BlockId::GENESIS).unwrap();
        let g2 = o.get_token(1, BlockId(5)).unwrap();
        o.consume_token(&g1, BlockId(1));
        let s = o.consume_token(&g2, BlockId(2));
        assert_eq!(s, vec![BlockId(2)], "K is per object");
        let degrees: HashMap<_, _> = o.fork_degrees().collect();
        assert_eq!(degrees[&BlockId::GENESIS], 1);
        assert_eq!(degrees[&BlockId(5)], 1);
    }

    #[test]
    fn model_descriptor() {
        assert_eq!(
            oracle(KBound::Finite(1)).model(),
            OracleModel::Frugal { k: 1 }
        );
        assert_eq!(oracle(KBound::Infinite).model(), OracleModel::Prodigal);
    }

    #[test]
    fn merit_weighted_grant_rates() {
        // Process 0 has 3× the merit of process 1; over many attempts its
        // token rate must be ≈3× as high.
        let merits = Merits::from_weights(vec![3.0, 1.0]);
        let mut o = ThetaOracle::prodigal(merits, 0.4, 7);
        let (mut w0, mut w1) = (0u32, 0u32);
        for _ in 0..20_000 {
            if o.get_token(0, BlockId::GENESIS).is_some() {
                w0 += 1;
            }
            if o.get_token(1, BlockId::GENESIS).is_some() {
                w1 += 1;
            }
        }
        let ratio = w0 as f64 / w1 as f64;
        assert!(
            (2.5..3.5).contains(&ratio),
            "merit ratio 3 should yield ≈3× tokens, got {ratio}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn frugal_rejects_k0() {
        ThetaOracle::frugal(0, Merits::uniform(1), 1.0, 0);
    }

    /// Property-flavoured test for Thm. 3.2: random interleavings of
    /// getToken/consumeToken across objects never break k-fork coherence.
    #[test]
    fn fork_coherence_under_random_schedules() {
        use btadt_core::ids::splitmix64_at;
        for seed in 0..20u64 {
            for &k in &[1u32, 2, 3] {
                let mut o = ThetaOracle::frugal(k, Merits::uniform(3), 3.0, seed);
                let mut pending: Vec<TokenGrant> = Vec::new();
                let mut next_block = 1u32;
                for step in 0..500u64 {
                    let r = splitmix64_at(seed ^ 0xABC, step);
                    let who = (r % 3) as usize;
                    let parent = BlockId((r >> 8) as u32 % 4);
                    if r.is_multiple_of(2) {
                        if let Some(g) = o.get_token(who, parent) {
                            pending.push(g);
                        }
                    } else if let Some(g) = pending.pop() {
                        o.consume_token(&g, BlockId(next_block));
                        next_block += 1;
                    }
                    assert!(o.fork_coherent(), "seed {seed} k {k} step {step}");
                }
            }
        }
    }
}
