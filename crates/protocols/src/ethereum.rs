//! Ethereum (§5.2): permissionless, memory-hard proof-of-work, mapped to
//! **R(BT-ADT_EC, Θ_P)**.
//!
//! Differences from the Bitcoin model, following the paper:
//!
//! * the merit `α_p` is "bounded by the ability to move data in memory"
//!   (commodity-hardware PoW) — in the abstraction this is the same tape
//!   lottery with a differently interpreted weight vector, typically much
//!   *flatter* than hash-power distributions;
//! * `f` "returns the blockchain which has required the most work …
//!   implemented through the GHOST algorithm [30]" — the
//!   [`Ghost`](btadt_core::selection::Ghost) heaviest-subtree rule;
//! * the block interval : delivery-delay ratio is more aggressive, so
//!   forks ("uncles") are more frequent — which is exactly the regime
//!   GHOST was designed for. Each replica maintains GHOST's subtree
//!   weights incrementally along its selected chain
//!   (`SelectionFn::apply_partial` walks an applied block up only until
//!   it meets that chain), so an uncle costs its distance from the tip,
//!   not a full-tree weight rebuild or a walk to genesis.

use crate::bitcoin::NakamotoMiner;
use crate::common::{standard_run, RunSchedule, SystemRun};
use btadt_core::selection::{Ghost, GhostWeight};
use btadt_oracle::{Merits, ThetaOracle};
use btadt_sim::{NetworkModel, World};

/// Configuration of an Ethereum run.
#[derive(Clone, Debug)]
pub struct EthereumConfig {
    pub n: usize,
    /// Memory-bandwidth weights (uniform if `None` — commodity hardware).
    pub bandwidth: Option<Vec<f64>>,
    /// Expected wins per tick across the network (higher than Bitcoin's
    /// default: faster blocks, more uncles).
    pub rate: f64,
    pub delta: u64,
    pub schedule: RunSchedule,
    pub seed: u64,
    /// GHOST subtree weighting.
    pub ghost_weight: GhostWeight,
}

impl Default for EthereumConfig {
    fn default() -> Self {
        EthereumConfig {
            n: 8,
            bandwidth: None,
            rate: 1.0,
            delta: 3,
            schedule: RunSchedule::default(),
            seed: 0xE7E7_0001,
            ghost_weight: GhostWeight::BlockCount,
        }
    }
}

/// Runs the Ethereum model.
pub fn run(cfg: &EthereumConfig) -> SystemRun {
    let merits = match &cfg.bandwidth {
        Some(w) => Merits::from_weights(w.clone()),
        None => Merits::uniform(cfg.n),
    };
    let oracle = ThetaOracle::prodigal(merits, cfg.rate, cfg.seed);
    let net = NetworkModel::synchronous(cfg.delta, cfg.seed ^ 0x4E_4554);
    let miners = (0..cfg.n)
        .map(|i| NakamotoMiner::new(cfg.seed ^ ((i as u64) << 8), 2))
        .collect();
    let world: World<NakamotoMiner> = World::new(
        miners,
        oracle,
        net,
        Box::new(Ghost {
            weight: cfg.ghost_weight,
        }),
        cfg.seed,
    );
    standard_run(world, &cfg.schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_core::criteria::ConsistencyClass;

    #[test]
    fn ethereum_is_eventually_consistent() {
        for seed in [1u64, 2, 3] {
            let run = run(&EthereumConfig {
                seed,
                ..Default::default()
            });
            assert!(run.blocks_minted > 5);
            assert!(run.converged(), "seed {seed}: GHOST converges");
            assert!(
                run.consistency_class() >= ConsistencyClass::Eventual,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn high_rate_forks_more_than_bitcoin_defaults() {
        // Ethereum's faster blocks (rate 1.0 vs 0.7) produce at least as
        // many fork points on matched seeds.
        let eth = run(&EthereumConfig {
            seed: 4,
            ..Default::default()
        });
        assert!(
            eth.max_fork_degree >= 2,
            "rate 1.0 with δ=3 must fork (got degree {})",
            eth.max_fork_degree
        );
    }

    #[test]
    fn ghost_work_variant_runs() {
        let run = run(&EthereumConfig {
            ghost_weight: GhostWeight::Work,
            seed: 5,
            ..Default::default()
        });
        assert!(run.converged());
        assert!(run.consistency_class() >= ConsistencyClass::Eventual);
    }

    #[test]
    fn deterministic() {
        let a = run(&EthereumConfig::default());
        let b = run(&EthereumConfig::default());
        assert_eq!(a.blocks_minted, b.blocks_minted);
        assert_eq!(a.max_fork_degree, b.max_fork_degree);
    }
}
