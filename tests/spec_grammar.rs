//! The shared `Name(key=value,…)` grammar behind the estimator, propagator and
//! graph-builder registries: one value-check table across all three, spec keys
//! that build exactly what the same options set through `set` build, and name
//! lookup that trims blanks in every registry.

use fg_core::estimator_by_name_with;
use fg_core::prelude::*;
use fg_datasets::{construction_by_name, construction_by_name_with, ConstructionOptions};
use fg_graph::spec::SpecOptions;
use fg_propagation::{registry, PropagatorOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build(spec: &str) -> Result<String, String> {
    let (kind, spec) = spec.split_once(':').expect("kind:spec");
    match kind {
        "est" => estimator_by_name(spec).map(|e| e.name()),
        "prop" => registry::by_name(spec).map(|p| p.name()),
        "graph" => construction_by_name(spec).map(|b| b.name()),
        _ => unreachable!("unknown registry {kind}"),
    }
}

#[test]
fn every_key_table_rejects_non_finite_numbers_and_repeated_keys() {
    let cases = [
        // Every f64 key, named in the message.
        (
            "est:dce(lambda=nan)",
            "'lambda' must be a finite number, got 'nan'",
        ),
        (
            "est:DCEr(r=2,lambda=inf)",
            "'lambda' must be a finite number",
        ),
        (
            "graph:knn(weighting=heat,sigma=NaN)",
            "'sigma' must be a finite number",
        ),
        (
            "graph:sparsereg(alpha=-inf)",
            "'alpha' must be a finite number",
        ),
        (
            "prop:linbp(tolerance=nan)",
            "'tolerance' must be a finite number",
        ),
        ("prop:bp(damping=NaN)", "'damping' must be a finite number"),
        // A key given twice, under the same spelling or an alias.
        ("est:dcer(r=1,r=2)", "'r' is given twice"),
        ("est:dcer(r=1,restarts=2)", "'restarts' is given twice"),
        ("est:dce(l=3,LMAX=4)", "'LMAX' is given twice"),
        (
            "graph:knn(w=heat,weighting=binary)",
            "'weighting' is given twice",
        ),
        (
            "graph:sparsereg(iters=3,iterations=4)",
            "'iterations' is given twice",
        ),
        (
            "prop:rw(damping=0.5,damping=0.6)",
            "'damping' is given twice",
        ),
    ];
    for (spec, expected) in cases {
        let err = build(spec).expect_err(spec);
        assert!(err.contains(expected), "{spec}: {err}");
    }
    // `set`, the path command-line flags take, runs the same value checks.
    let err = EstimatorOptions::default()
        .set("lambda", "nan")
        .unwrap_err();
    assert!(err.contains("'lambda' must be a finite number"), "{err}");
    let err = PropagatorOptions::default()
        .set("tolerance", "inf")
        .unwrap_err();
    assert!(err.contains("'tolerance' must be a finite number"), "{err}");
}

#[test]
fn spec_keys_build_what_set_builds_in_every_registry() {
    // Estimators: the DCEr spec against the same keys set one by one.
    let mut est = EstimatorOptions::default();
    est.set("restarts", "3").unwrap();
    est.set("lmax", "4").unwrap();
    assert_eq!(
        estimator_by_name_with("dcer", &est).unwrap().name(),
        estimator_by_name("dcer(r=3,l=4)").unwrap().name()
    );

    // Graph builders.
    let mut graph = ConstructionOptions::default();
    graph.set("k", "7").unwrap();
    graph.set("sym", "mutual").unwrap();
    assert_eq!(
        construction_by_name_with("knn", &graph).unwrap().name(),
        construction_by_name("Knn(k=7,sym=mutual)").unwrap().name()
    );

    // Propagators render no parameters, so compare what they compute, bit for bit.
    let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let syn = generate(&cfg, &mut rng).unwrap();
    let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
    let h = measure_compatibilities(&syn.graph, &syn.labeling).unwrap();
    for (name, spec, keys) in [
        ("linbp", "linbp(iterations=3)", &[("iterations", "3")][..]),
        (
            "bp",
            "bp(damping=0.3,iterations=7,tolerance=1e-3)",
            &[
                ("damping", "0.3"),
                ("iterations", "7"),
                ("tolerance", "1e-3"),
            ],
        ),
    ] {
        let mut opts = PropagatorOptions::default();
        for (key, value) in keys {
            opts.set(key, value).unwrap();
        }
        let via_set = registry::by_name_with(name, &opts)
            .unwrap()
            .propagate(&syn.graph, &seeds, &h)
            .unwrap();
        let via_spec = registry::by_name(spec)
            .unwrap()
            .propagate(&syn.graph, &seeds, &h)
            .unwrap();
        let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&via_set.beliefs), bits(&via_spec.beliefs), "{spec}");
        assert_eq!(via_set.predictions, via_spec.predictions, "{spec}");
        assert_eq!(via_set.iterations, via_spec.iterations, "{spec}");
        assert_eq!(via_set.converged, via_spec.converged, "{spec}");
    }
    // The spec's iteration cap is the one that ran.
    let capped = registry::by_name("linbp(iterations=3)")
        .unwrap()
        .propagate(&syn.graph, &seeds, &h)
        .unwrap();
    assert!(capped.iterations <= 3);
}

#[test]
fn names_are_trimmed_and_case_insensitive_in_every_registry() {
    for spec in [
        "est: dcer ",
        "est:DCEr (r=2)",
        "prop: linbp",
        "prop: LoopyBP (iterations=4) ",
        "graph: Knn ",
    ] {
        assert!(build(spec).is_ok(), "{spec}: {:?}", build(spec));
    }
    assert_eq!(registry::canonical_name(" LinBP "), Some("linbp"));
    let err = build("prop:nope(iterations=2)").unwrap_err();
    assert_eq!(
        err,
        "unknown propagation method 'nope' (expected one of linbp, bp, harmonic, rw)"
    );
}
