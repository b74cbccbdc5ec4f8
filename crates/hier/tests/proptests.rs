//! Property-based tests for CATHY/CATHYHIN inference invariants.

use lesm_hier::em::{CathyHinEm, EmConfig, WeightMode};
use lesm_net::NetworkBuilder;
use proptest::prelude::*;

/// A random small two-type network guaranteed non-empty.
fn random_network() -> impl Strategy<Value = lesm_net::TypedNetwork> {
    (
        proptest::collection::vec((0u32..6, 0u32..6, 1.0f64..8.0), 1..30),
        proptest::collection::vec((0u32..4, 0u32..6, 1.0f64..5.0), 0..20),
    )
        .prop_map(|(tt, at)| {
            let mut b = NetworkBuilder::new(vec!["author".into(), "term".into()], vec![4, 6]);
            for (i, j, w) in tt {
                b.add(1, i, 1, j, w);
            }
            for (a, t, w) in at {
                b.add(0, a, 1, t, w);
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn em_outputs_are_distributions(net in random_network(), k in 1usize..4, bg in proptest::bool::ANY) {
        let cfg = EmConfig {
            k,
            iters: 40,
            restarts: 1,
            seed: 9,
            background: bg,
            weights: WeightMode::Equal,
            ..EmConfig::default()
        };
        let fit = CathyHinEm::fit(&net, &cfg).unwrap();
        let rho_sum: f64 = fit.rho.iter().sum();
        prop_assert!((rho_sum - 1.0).abs() < 1e-8, "rho sums to {rho_sum}");
        prop_assert!(fit.rho.iter().all(|&r| r >= 0.0));
        if !bg {
            prop_assert!(fit.rho[0] < 1e-12);
        }
        for x in 0..2 {
            for z in 0..k {
                let s: f64 = fit.phi[x][z].iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-8 || s.abs() < 1e-8, "phi[{x}][{z}] = {s}");
                prop_assert!(fit.phi[x][z].iter().all(|&p| p >= 0.0));
            }
        }
    }

    #[test]
    fn link_posteriors_sum_to_one_on_observed_links(net in random_network(), k in 1usize..4) {
        let cfg = EmConfig {
            k, iters: 30, restarts: 1, seed: 4,
            background: true, weights: WeightMode::Equal,
            ..EmConfig::default()
        };
        let fit = CathyHinEm::fit(&net, &cfg).unwrap();
        for blk in &net.blocks {
            for &(i, j, _) in blk.edges.iter().take(5) {
                let q = fit.link_posterior(blk.tx, i, blk.ty, j);
                let s: f64 = q.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-8, "posterior sums to {s}");
                prop_assert!(q.iter().all(|&p| p >= 0.0));
            }
        }
    }

    #[test]
    fn subnetworks_never_exceed_parent_weight(net in random_network(), k in 2usize..4) {
        let cfg = EmConfig {
            k, iters: 30, restarts: 1, seed: 2,
            background: false, weights: WeightMode::Equal,
            ..EmConfig::default()
        };
        let fit = CathyHinEm::fit(&net, &cfg).unwrap();
        let parent_w = net.total_weight();
        let mut child_total = 0.0;
        let subs = fit.subnetworks(&net, 0.0);
        prop_assert_eq!(subs.len(), k);
        for sub in &subs {
            let w = sub.total_weight();
            prop_assert!(w <= parent_w + 1e-6);
            child_total += w;
        }
        // With threshold 0 and no background, children partition the weight.
        prop_assert!((child_total - parent_w).abs() < 1e-6, "{child_total} vs {parent_w}");
    }

    #[test]
    fn learned_weights_respect_geometric_mean_constraint(net in random_network()) {
        let cfg = EmConfig {
            k: 2, iters: 30, restarts: 1, seed: 6,
            background: true, weights: WeightMode::Learned, weight_rounds: 2,
            ..EmConfig::default()
        };
        let fit = CathyHinEm::fit(&net, &cfg).unwrap();
        let t = net.num_types();
        let mut log_sum = 0.0;
        for blk in &net.blocks {
            let tp = blk.tx * t + blk.ty;
            log_sum += blk.len() as f64 * fit.alpha[tp].max(1e-300).ln();
        }
        prop_assert!(log_sum.abs() < 1e-6, "Π α^n != 1: log sum {log_sum}");
        prop_assert!(fit.alpha.iter().all(|&a| a > 0.0));
    }

    #[test]
    fn em_objective_is_nondecreasing(net in random_network(), k in 1usize..4, bg in proptest::bool::ANY) {
        // The auxiliary-function argument after eq. 3.17: every EM
        // iteration can only improve the surrogate objective.
        let cfg = EmConfig {
            k, iters: 25, restarts: 1, seed: 8,
            background: bg, weights: WeightMode::Equal,
            ..EmConfig::default()
        };
        let fit = CathyHinEm::fit(&net, &cfg).unwrap();
        prop_assert_eq!(fit.objective_trace.len(), 25);
        for w in fit.objective_trace.windows(2) {
            prop_assert!(
                w[1] >= w[0] - 1e-6 * (1.0 + w[0].abs()),
                "objective decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn parallel_em_is_bit_identical_to_serial(
        net in random_network(),
        k in 1usize..4,
        bg in proptest::bool::ANY,
        threads in 2usize..9,
    ) {
        // The tentpole determinism contract: for any thread count, the EM
        // fit (every learned distribution, the weights, and the exact
        // objective/likelihood floats) matches `threads: 1` bit for bit.
        let base = EmConfig {
            k, iters: 20, restarts: 2, seed: 11,
            background: bg, weights: WeightMode::Learned, weight_rounds: 2,
            ..EmConfig::default()
        };
        let serial = CathyHinEm::fit(&net, &base).unwrap();
        let par = CathyHinEm::fit(&net, &EmConfig { threads, ..base }).unwrap();
        prop_assert_eq!(&serial.rho, &par.rho);
        prop_assert_eq!(&serial.phi, &par.phi);
        prop_assert_eq!(&serial.phi0, &par.phi0);
        prop_assert_eq!(&serial.alpha, &par.alpha);
        prop_assert_eq!(&serial.theta, &par.theta);
        prop_assert_eq!(serial.objective.to_bits(), par.objective.to_bits());
        prop_assert_eq!(serial.loglik.to_bits(), par.loglik.to_bits());
        prop_assert_eq!(&serial.objective_trace, &par.objective_trace);
    }

    #[test]
    fn theta_is_a_distribution_over_type_pairs(net in random_network()) {
        let cfg = EmConfig {
            k: 2, iters: 10, restarts: 1, seed: 3,
            background: false, weights: WeightMode::Equal,
            ..EmConfig::default()
        };
        let fit = CathyHinEm::fit(&net, &cfg).unwrap();
        let s: f64 = fit.theta.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9, "theta sums to {s}");
    }
}
