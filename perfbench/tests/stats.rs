//! Tests of the benchmark's own statistics and input generation.

use perfbench::inputs::{audit_picks, sample_indices, DegreeShape, Seeds};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::stats::{
    mean_of, median, quantile, quartiles, samples_beyond, spread, tail_quantile, MIN_BEYOND,
};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_rule_needs_ten_samples_beyond() {
    assert_eq!(MIN_BEYOND, 10);
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert_eq!(samples_beyond(999, 0.99), 9);
    assert_eq!(samples_beyond(100, 0.90), 10);
    assert!(tail_quantile(&ramp(999), 0.99).is_none());
    assert_eq!(tail_quantile(&ramp(1000), 0.99), Some(990.0));
    assert_eq!(tail_quantile(&ramp(100), 0.90), Some(90.0));
    assert!(tail_quantile(&ramp(99), 0.90).is_none());
}

#[test]
fn quantile_is_nearest_rank_and_order_free() {
    let mut values = ramp(10);
    values.reverse();
    assert_eq!(quantile(&values, 0.5), Some(5.0));
    assert_eq!(quantile(&values, 0.0), Some(1.0));
    assert_eq!(quantile(&values, 1.0), Some(10.0));
    assert_eq!(quantile(&[], 0.5), None);
}

#[test]
fn median_averages_the_middle_pair() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
    // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn spread_is_iqr_over_median() {
    assert_eq!(spread(&ramp(10)), Some((8.25 - 2.75) / 5.5));
    assert_eq!(spread(&[7.0; 10]), Some(0.0));
    assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
}

#[test]
fn exact_mean_comes_from_sum_and_count() {
    assert_eq!(mean_of(9_200.0, 1), 9_200.0);
    assert_eq!(mean_of(27_600.0, 3), 9_200.0);
    assert_eq!(mean_of(5.0, 0), 0.0);
}

#[test]
fn seeds_are_a_pure_function_of_the_run_seed() {
    assert_eq!(Seeds::from_seed(7), Seeds::from_seed(7));
    assert_ne!(Seeds::from_seed(7), Seeds::from_seed(8));
    let s = Seeds::from_seed(7);
    let all = [s.topology, s.protocol, s.adversaries, s.audits, s.sample];
    for (i, a) in all.iter().enumerate() {
        for b in &all[i + 1..] {
            assert_ne!(a, b, "per-purpose seeds must differ");
        }
    }
}

#[test]
fn audit_picks_are_deterministic_and_well_formed() {
    let mut honest = vec![true; 64];
    for i in [3, 9, 10, 40] {
        honest[i] = false;
    }
    let a = audit_picks(11, &honest, 200, 64, 4000);
    assert_eq!(a, audit_picks(11, &honest, 200, 64, 4000));
    assert_ne!(a, audit_picks(12, &honest, 200, 64, 4000));
    for pick in &a {
        assert!(honest[pick.validator as usize], "validators are honest");
        assert_ne!(
            pick.owner, pick.validator,
            "targets belong to another owner"
        );
        assert!(
            u64::from(pick.seq) <= 200 - 64,
            "targets are at least min-age old"
        );
    }
    // Stratified owners: exactly the expected share targets adversaries.
    let adversarial = a.iter().filter(|p| !honest[p.owner as usize]).count();
    assert_eq!(adversarial, (4000.0_f64 * 4.0 / 63.0).round() as usize);
}

#[test]
fn sample_indices_are_distinct_sorted_and_seeded() {
    let s = sample_indices(5, 1000, 300);
    assert_eq!(s.len(), 300);
    assert!(s.windows(2).all(|w| w[0] < w[1]));
    assert!(s.iter().all(|&i| i < 1000));
    assert_eq!(s, sample_indices(5, 1000, 300));
    assert_eq!(sample_indices(5, 10, 30), (0..10).collect::<Vec<_>>());
}

#[test]
fn degree_shape_statistics() {
    let shape = DegreeShape::of(&[1, 3, 1, 3]);
    assert_eq!(shape.mean, 2.0);
    assert_eq!(shape.dispersion, 5.0 / 4.0);
    assert_eq!(shape.head_share, 0.5);
    assert!(shape.matches(&DegreeShape {
        mean: 2.01,
        dispersion: 1.26,
        head_share: 0.49,
    }));
    assert!(!shape.matches(&DegreeShape { mean: 2.1, ..shape }));
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"name\": ").count();
    // Every metric plus the workloads.
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + 3);
}
