//! By-name lookup of propagation backends, for CLIs, benchmarks, and config files.
//!
//! Every [`Propagator`] implementation registers a canonical name plus aliases, and a
//! constructor that accepts generic [`PropagatorOptions`] overrides, so callers can
//! build `fg propagate --method bp --iterations 30` style invocations without knowing
//! the concrete config types. Backends are addressed through the shared
//! [`fg_graph::spec`] grammar, so `"linbp(iterations=30)"` builds exactly what
//! `linbp` with `--iterations 30` builds; [`PropagatorOptions`]' key table is the
//! whole propagator key vocabulary.

use crate::bp::BpConfig;
use crate::harmonic::HarmonicConfig;
use crate::linbp::LinBpConfig;
use crate::propagator::{Harmonic, LinBp, LoopyBp, Propagator, RandomWalk};
use crate::random_walk::RandomWalkConfig;
use fg_graph::spec::{Entry, Key, Registry, SpecOptions};
use fg_sparse::Threads;

/// Backend-agnostic configuration overrides understood by every registered backend.
/// `None` fields keep the backend's default.
#[derive(Debug, Clone, Default)]
pub struct PropagatorOptions {
    /// Maximum number of iterations.
    pub max_iterations: Option<usize>,
    /// Early-stopping tolerance (interpreted per backend).
    pub tolerance: Option<f64>,
    /// Continuation probability for random walks / damping factor for loopy BP.
    /// Ignored by backends without such a knob.
    pub damping: Option<f64>,
    /// Thread policy for the backend's parallel kernels (`fg --threads N`). All
    /// backends honor it; results are bit-identical at any thread count.
    pub threads: Option<Threads>,
}

/// A registry entry: canonical name, accepted aliases, a one-line description, and a
/// constructor honoring [`PropagatorOptions`].
pub type PropagatorSpec = Entry<PropagatorOptions, dyn Propagator>;

impl SpecOptions for PropagatorOptions {
    const KIND: &'static str = "propagator";
    const KEYS: &'static [Key<Self>] = &[
        Key(&["iterations"], |o, v| {
            v.parse("count").map(|it| o.max_iterations = Some(it))
        }),
        Key(&["tolerance"], |o, v| {
            v.finite().map(|tol| o.tolerance = Some(tol))
        }),
        Key(&["damping"], |o, v| v.finite().map(|d| o.damping = Some(d))),
    ];
}

fn build_linbp(opts: &PropagatorOptions) -> Box<dyn Propagator> {
    let d = LinBpConfig::default();
    Box::new(LinBp::new(LinBpConfig {
        max_iterations: opts.max_iterations.unwrap_or(d.max_iterations),
        tolerance: opts.tolerance.or(d.tolerance),
        threads: opts.threads.unwrap_or(d.threads),
        ..d
    }))
}

fn build_bp(opts: &PropagatorOptions) -> Box<dyn Propagator> {
    let d = BpConfig::default();
    Box::new(LoopyBp::new(BpConfig {
        max_iterations: opts.max_iterations.unwrap_or(d.max_iterations),
        tolerance: opts.tolerance.unwrap_or(d.tolerance),
        damping: opts.damping.unwrap_or(d.damping),
        threads: opts.threads.unwrap_or(d.threads),
        ..d
    }))
}

fn build_harmonic(opts: &PropagatorOptions) -> Box<dyn Propagator> {
    let d = HarmonicConfig::default();
    Box::new(Harmonic::new(HarmonicConfig {
        max_iterations: opts.max_iterations.unwrap_or(d.max_iterations),
        tolerance: opts.tolerance.unwrap_or(d.tolerance),
        threads: opts.threads.unwrap_or(d.threads),
    }))
}

fn build_rw(opts: &PropagatorOptions) -> Box<dyn Propagator> {
    let d = RandomWalkConfig::default();
    Box::new(RandomWalk::new(RandomWalkConfig {
        max_iterations: opts.max_iterations.unwrap_or(d.max_iterations),
        tolerance: opts.tolerance.unwrap_or(d.tolerance),
        damping: opts.damping.unwrap_or(d.damping),
        threads: opts.threads.unwrap_or(d.threads),
    }))
}

const REGISTRY: Registry<PropagatorOptions, dyn Propagator> = Registry {
    kind: "propagation",
    entries: &[
        PropagatorSpec {
            name: "linbp",
            aliases: &["linearized-bp", "linearized_bp"],
            description: "Linearized Belief Propagation (the paper's method; uses H)",
            build: build_linbp,
        },
        PropagatorSpec {
            name: "bp",
            aliases: &["loopybp", "loopy-bp", "loopy_bp"],
            description: "Full loopy Belief Propagation (reference method; uses H)",
            build: build_bp,
        },
        PropagatorSpec {
            name: "harmonic",
            aliases: &["harmonic-functions", "homophily"],
            description: "Harmonic-functions label propagation (homophily baseline; ignores H)",
            build: build_harmonic,
        },
        PropagatorSpec {
            name: "rw",
            aliases: &["randomwalk", "random-walk", "random_walk", "mrw"],
            description: "MultiRankWalk random walks with restarts (homophily baseline; ignores H)",
            build: build_rw,
        },
    ],
};

/// All registered backend specs, in registration order.
pub fn registry() -> &'static [PropagatorSpec] {
    REGISTRY.entries
}

/// The canonical names of all registered backends (the values `fg propagate --method`
/// accepts).
pub fn propagator_names() -> Vec<&'static str> {
    REGISTRY.names()
}

/// Resolve a (case-insensitive) name or alias to its canonical backend name.
pub fn canonical_name(name: &str) -> Option<&'static str> {
    REGISTRY.canonical(name)
}

/// Build a backend from a name or parameterized spec (`"linbp(iterations=3)"`)
/// with default configuration.
pub fn by_name(spec: &str) -> Result<Box<dyn Propagator>, String> {
    by_name_with(spec, &PropagatorOptions::default())
}

/// Build a backend from a name or parameterized spec, applying the given option
/// defaults; keys in the spec take precedence.
pub fn by_name_with(spec: &str, opts: &PropagatorOptions) -> Result<Box<dyn Propagator>, String> {
    REGISTRY.build(spec, opts)
}

/// Build every registered backend with default configuration, in registration order.
pub fn all_propagators() -> Vec<Box<dyn Propagator>> {
    REGISTRY.build_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_names_and_aliases_resolve() {
        assert_eq!(canonical_name("linbp"), Some("linbp"));
        assert_eq!(canonical_name("LinBP"), Some("linbp"));
        assert_eq!(canonical_name("loopy-bp"), Some("bp"));
        assert_eq!(canonical_name("RandomWalk"), Some("rw"));
        assert_eq!(canonical_name("homophily"), Some("harmonic"));
        assert_eq!(canonical_name("nope"), None);
    }

    #[test]
    fn by_name_builds_every_backend() {
        for name in propagator_names() {
            let p = by_name(name).unwrap();
            assert!(!p.name().is_empty());
        }
        assert!(by_name("unknown").is_err());
        assert_eq!(propagator_names().len(), 4);
    }

    #[test]
    fn options_are_applied() {
        let opts = PropagatorOptions {
            max_iterations: Some(3),
            ..PropagatorOptions::default()
        };
        // Smoke test: a 3-iteration LinBP on a tiny graph reports <= 3 iterations.
        let p = by_name_with("linbp", &opts).unwrap();
        let graph = fg_graph::Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let seeds = fg_graph::SeedLabels::new(vec![Some(0), None, None, Some(1)], 2).unwrap();
        let h = fg_sparse::DenseMatrix::from_rows(&[vec![0.3, 0.7], vec![0.7, 0.3]]).unwrap();
        let outcome = p.propagate(&graph, &seeds, &h).unwrap();
        assert!(outcome.iterations <= 3);
    }

    #[test]
    fn threads_option_reaches_every_backend() {
        // A 4-thread build must produce exactly the serial outcome on every backend
        // (the parallel kernels are bit-identical).
        let graph =
            fg_graph::Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let seeds =
            fg_graph::SeedLabels::new(vec![Some(0), None, None, None, None, Some(1)], 2).unwrap();
        let h = fg_sparse::DenseMatrix::from_rows(&[vec![0.8, 0.2], vec![0.2, 0.8]]).unwrap();
        let threaded = PropagatorOptions {
            threads: Some(Threads::Fixed(4)),
            ..PropagatorOptions::default()
        };
        for name in propagator_names() {
            let serial = by_name(name)
                .unwrap()
                .propagate(&graph, &seeds, &h)
                .unwrap();
            let parallel = by_name_with(name, &threaded)
                .unwrap()
                .propagate(&graph, &seeds, &h)
                .unwrap();
            assert_eq!(serial.beliefs.data(), parallel.beliefs.data(), "{name}");
            assert_eq!(serial.predictions, parallel.predictions, "{name}");
            assert_eq!(serial.iterations, parallel.iterations, "{name}");
        }
    }

    #[test]
    fn all_propagators_covers_registry() {
        let all = all_propagators();
        assert_eq!(all.len(), registry().len());
        let names: Vec<String> = all.iter().map(|p| p.name()).collect();
        assert!(names.contains(&"LinBP".to_string()));
        assert!(names.contains(&"LoopyBP".to_string()));
        assert!(names.contains(&"Harmonic".to_string()));
        assert!(names.contains(&"RandomWalk".to_string()));
    }
}
