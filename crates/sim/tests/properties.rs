//! Property-based tests for the simulation substrate: joint-distribution
//! feasibility and realised statistics, and the measurement kernels
//! under budgeted label oracles.

use easeml_ci_core::dsl::parse_formula;
use easeml_ci_core::{ClassBitmaps, LabelOracle, Measurement, Testset};
use easeml_ml::metrics::{accuracy, prediction_difference};
use easeml_sim::joint::{
    exact_pair, sample_pair, ConditionalEvolution, JointDistribution, PairSpec,
};
use easeml_sim::oracle::CountingOracle;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: specs guaranteed feasible by construction — pick the
/// accuracies and a difference between the gap and the wrong-mass cap.
fn feasible_spec() -> impl Strategy<Value = PairSpec> {
    (0.05f64..0.95, 0.05f64..0.95, 0.0f64..1.0, 0.0f64..=1.0).prop_map(
        |(acc_old, acc_new, diff_t, churn_t)| {
            let churn = churn_t * 0.5;
            let gap = (acc_old - acc_new).abs();
            let min_acc = acc_old.min(acc_new);
            // Exact feasibility: with slack s = d − gap,
            //   a = min(acc) − churn·s/2 ≥ 0  and  e = 1 − a − d ≥ 0,
            // giving d ≤ (1 − min − churn·gap/2)/(1 − churn/2) and
            // s ≤ 2·min/churn (when churn > 0).
            let d_e = (1.0 - min_acc - churn * gap / 2.0) / (1.0 - churn / 2.0);
            let d_a = if churn > 0.0 {
                gap + 2.0 * min_acc / churn
            } else {
                f64::INFINITY
            };
            let d_max = d_e.min(d_a).min(1.0);
            let diff = gap + (d_max - gap).max(0.0) * diff_t * 0.95;
            PairSpec {
                acc_old,
                acc_new,
                diff,
                churn,
                num_classes: 5,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every feasible spec solves, with valid probabilities and exact
    /// marginals.
    #[test]
    fn joint_solution_is_a_distribution(spec in feasible_spec()) {
        let j = JointDistribution::solve(&spec).unwrap();
        let probs = j.as_array();
        for p in probs {
            prop_assert!(p >= -1e-9, "negative probability {p:?} for {spec:?}");
        }
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!((j.a + j.b - spec.acc_old).abs() < 1e-9);
        prop_assert!((j.a + j.c - spec.acc_new).abs() < 1e-9);
        prop_assert!((j.b + j.c + j.f - spec.diff).abs() < 1e-9);
    }

    /// Exact pairs realise the spec to within apportionment error.
    #[test]
    fn exact_pairs_hit_marginals(spec in feasible_spec(), seed in 0u64..1000) {
        let n = 4_000usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let pair = exact_pair(n, &spec, &mut rng).unwrap();
        let tol = 6.0 / n as f64;
        prop_assert!((accuracy(&pair.old, &pair.labels) - spec.acc_old).abs() <= tol);
        prop_assert!((accuracy(&pair.new, &pair.labels) - spec.acc_new).abs() <= tol);
        prop_assert!(
            (prediction_difference(&pair.old, &pair.new) - spec.diff).abs() <= tol
        );
    }

    /// Sampled pairs concentrate around the spec (looser tolerance).
    #[test]
    fn sampled_pairs_concentrate(spec in feasible_spec(), seed in 0u64..1000) {
        let n = 20_000usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let pair = sample_pair(n, &spec, &mut rng).unwrap();
        let tol = 0.02;
        prop_assert!((accuracy(&pair.old, &pair.labels) - spec.acc_old).abs() <= tol);
        prop_assert!((accuracy(&pair.new, &pair.labels) - spec.acc_new).abs() <= tol);
    }

    /// Conditional evolutions reproduce their population targets in
    /// closed form for every feasible spec.
    #[test]
    fn conditional_evolution_targets(spec in feasible_spec()) {
        let ev = ConditionalEvolution::solve(
            spec.acc_old,
            spec.acc_new,
            spec.diff,
            spec.churn,
            spec.num_classes,
        )
        .unwrap();
        prop_assert!((ev.new_accuracy() - spec.acc_new).abs() < 1e-9);
        prop_assert!((ev.difference() - spec.diff).abs() < 1e-9);
    }

    /// Infeasible requests (d below the accuracy gap) are always caught.
    #[test]
    fn gap_violations_always_rejected(acc_old in 0.1f64..0.9, delta_gap in 0.05f64..0.5) {
        let acc_new = (acc_old + delta_gap).min(0.99);
        prop_assume!(acc_new - acc_old >= 0.05);
        let spec = PairSpec {
            acc_old,
            acc_new,
            diff: (acc_new - acc_old) / 2.0,
            churn: 0.5,
            num_classes: 4,
        };
        prop_assert!(JointDistribution::solve(&spec).is_err());
    }
}

/// Formulas of every label demand (free, disagreements, full) and every
/// metric family.
const MEASURED_FORMULAS: [&str; 8] = [
    "d < 0.5 +/- 0.1",
    "n - o > 0.0 +/- 0.1",
    "n - o > 0.0 +/- 0.1 /\\ d < 0.5 +/- 0.1",
    "n > 0.5 +/- 0.1",
    "f1(n) - f1(o) > -0.02 +/- 0.01",
    "topk(n, 3) - topk(o, 3) > 0.0 +/- 0.1",
    "f1(n) > 0.5 +/- 0.1 /\\ d < 0.5 +/- 0.1",
    "f1(n) - f1(o) + topk(n, 2) - topk(o, 2) > -0.1 +/- 0.05",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Measurement::counts` with packed truth (the dispatch picks the
    /// bit-packed kernel for whole-pool ranges that pack) against the
    /// per-item reference (no packed truth): identical counts, per-class
    /// counts, errors, pool state, oracle spend, and `labels_requested`
    /// over sub-ranges, full / lazy / partially labelled pools, more
    /// than 64 classes, and oracles whose budget runs out mid-scan.
    #[test]
    fn measurement_counts_dispatch_matches_per_item_reference(
        len in 1usize..200,
        classes_pick in 0u32..10,
        pool_kind in 0u8..3,
        budget_pick in 0u64..400,
        range_pick in 0usize..400,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let classes = if classes_pick == 0 { 65 + (seed % 6) as u32 } else { classes_pick };
        let mut draw = |n: u32| -> Vec<u32> {
            (0..len).map(|_| rand::Rng::random_range(&mut rng, 0..n)).collect()
        };
        let truth = draw(classes);
        let old = draw(classes);
        // The new model agrees with the old one on about half the items.
        let flips = draw(2);
        let new: Vec<u32> = old
            .iter()
            .zip(draw(classes))
            .zip(&flips)
            .map(|((&o, r), &f)| if f == 0 { o } else { r })
            .collect();
        let range = if range_pick < 200 {
            0..len
        } else {
            let a = range_pick % len;
            a..a + (range_pick / 7) % (len - a + 1)
        };
        // Half the cases give the oracle a budget it may run out of.
        let budget = (budget_pick < 200).then_some(budget_pick % (len as u64 + 1));
        let truth_bits = ClassBitmaps::from_labels(&truth, classes);
        prop_assert_eq!(truth_bits.is_some(), classes <= 64);
        for text in MEASURED_FORMULAS {
            let formula = parse_formula(text).unwrap();
            let mut runs = Vec::new();
            for truth_bits in [None, truth_bits.as_ref()] {
                let mut pool = match pool_kind {
                    0 => Testset::fully_labeled(truth.clone()),
                    _ => Testset::unlabeled(len),
                };
                if pool_kind == 2 {
                    for i in (0..len).step_by(3) {
                        pool.set_label(i, truth[i]);
                    }
                }
                let mut oracle = CountingOracle::new(truth.clone());
                if let Some(budget) = budget {
                    oracle = oracle.with_budget(budget);
                }
                let oracle_arg: Option<&mut (dyn LabelOracle + 'static)> =
                    (pool_kind != 0).then_some(&mut oracle);
                let mut m = Measurement::new(&mut pool, oracle_arg, &old, &new)
                    .unwrap()
                    .with_classes(classes, truth_bits);
                let out = m.counts(&formula, range.clone()).map_err(|e| e.to_string());
                let requested = m.labels_requested();
                runs.push((out, requested, oracle.served(), pool));
            }
            let packed = runs.pop().unwrap();
            let reference = runs.pop().unwrap();
            prop_assert_eq!(&packed.0, &reference.0, "{} over {:?}", text, range);
            prop_assert_eq!(packed.1, reference.1, "labels_requested: {}", text);
            prop_assert_eq!(packed.2, reference.2, "oracle spend: {}", text);
            prop_assert!(packed.3 == reference.3, "label pools diverged: {}", text);
        }
    }
}
