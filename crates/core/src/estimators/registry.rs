//! By-name lookup of compatibility estimators, for CLIs, benchmarks, and config
//! files — the estimation-side mirror of `fg_propagation::registry`.
//!
//! Estimators are addressed by a canonical lowercase name (`"dcer"`) or by a
//! parameterized spec string in exactly the format [`CompatibilityEstimator::name`]
//! renders, e.g. `"DCEr(r=10,l=5,lambda=0.1)"` — so every name an estimator prints
//! can be parsed back into an equivalent estimator (the round-trip property the
//! registry tests assert). Generic defaults are supplied through
//! [`EstimatorOptions`]; keys in the spec string override them. The grammar, the
//! lookup and the value checks are the shared [`fg_graph::spec`] mechanism; the
//! key table below is the whole estimator key vocabulary.

use super::{
    CompatibilityEstimator, DceConfig, DceWithRestarts, DistantCompatibilityEstimation,
    HoldoutEstimation, LinearCompatibilityEstimation, MyopicCompatibilityEstimation,
};
use crate::normalization::NormalizationVariant;
use crate::paths::{CountingBackend, DEFAULT_LOWRANK_RANK};
use fg_graph::spec::{Entry, Key, Registry, SpecOptions};
use fg_graph::FactorConfig;
use fg_sparse::Threads;

/// Estimator-agnostic configuration overrides understood by every registered
/// estimator. `None` fields keep the estimator's default; keys an estimator has no
/// use for are ignored (mirroring how `PropagatorOptions.damping` is ignored by
/// backends without such a knob).
#[derive(Debug, Clone, Copy, Default)]
pub struct EstimatorOptions {
    /// Maximum path length `ℓmax` (key `l` / `lmax`; DCE and DCEr).
    pub max_length: Option<usize>,
    /// Distance scaling factor `λ` (key `lambda`; DCE and DCEr).
    pub lambda: Option<f64>,
    /// Number of optimization restarts (key `r` / `restarts`; DCEr).
    pub restarts: Option<usize>,
    /// Number of seed/holdout splits (key `b` / `splits`; Holdout).
    pub splits: Option<usize>,
    /// Normalization variant, by paper number 1–3 (key `variant`; MCE, DCE, DCEr).
    pub variant: Option<NormalizationVariant>,
    /// Counting mode: non-backtracking paths when `true` (key `nb`; DCE, DCEr).
    pub non_backtracking: Option<bool>,
    /// Counting backend (key `mode`, values `exact` / `lowrank`; DCE, DCEr). When
    /// unset, a set [`rank`](Self::rank) implies the low-rank backend.
    pub lowrank: Option<bool>,
    /// Factor rank for the low-rank counting backend (key `rank`; DCE, DCEr).
    /// Setting a rank without an explicit `mode` selects the low-rank backend;
    /// `mode=lowrank` without a rank uses [`DEFAULT_LOWRANK_RANK`].
    pub rank: Option<usize>,
    /// Thread policy for the estimator's parallel kernels. All estimators honor it;
    /// results are bit-identical at any thread count.
    pub threads: Option<Threads>,
}

impl EstimatorOptions {
    /// The counting backend these options select: the low-rank backend when
    /// `mode=lowrank` was given (or a `rank` without an explicit `mode=exact`),
    /// the exact backend otherwise. An explicit `mode=exact` wins over a set
    /// rank, mirroring how other inapplicable keys are ignored.
    pub fn backend(&self) -> CountingBackend {
        match (self.lowrank, self.rank) {
            (Some(false), _) | (None, None) => CountingBackend::Exact,
            (_, rank) => CountingBackend::LowRank(FactorConfig::with_rank(
                rank.unwrap_or(DEFAULT_LOWRANK_RANK),
            )),
        }
    }
}

/// A registry entry: canonical name, accepted aliases, a one-line description, and a
/// constructor honoring [`EstimatorOptions`].
pub type EstimatorSpec = Entry<EstimatorOptions, dyn CompatibilityEstimator>;

impl SpecOptions for EstimatorOptions {
    const KIND: &'static str = "estimator";
    const KEYS: &'static [Key<Self>] = &[
        Key(&["r", "restarts"], |o, v| {
            v.parse("count").map(|r| o.restarts = Some(r))
        }),
        Key(&["l", "lmax"], |o, v| {
            v.parse("length").map(|l| o.max_length = Some(l))
        }),
        Key(&["lambda"], |o, v| v.finite().map(|x| o.lambda = Some(x))),
        Key(&["b", "splits"], |o, v| {
            v.parse("count").map(|b| o.splits = Some(b))
        }),
        Key(&["variant"], |o, v| {
            v.with("variant number (expected 1-3)", |s| {
                s.parse().ok().and_then(NormalizationVariant::from_index)
            })
            .map(|variant| o.variant = Some(variant))
        }),
        Key(&["nb"], |o, v| {
            let table = [("true", true), ("1", true), ("false", false), ("0", false)];
            v.one_of("flag (expected true or false)", &table)
                .map(|nb| o.non_backtracking = Some(nb))
        }),
        Key(&["mode"], |o, v| {
            v.one_of(
                "backend (expected exact or lowrank)",
                &[("lowrank", true), ("exact", false)],
            )
            .map(|lowrank| o.lowrank = Some(lowrank))
        }),
        Key(&["rank"], |o, v| {
            v.parse("rank").map(|rank| o.rank = Some(rank))
        }),
    ];
}

fn dce_config(opts: &EstimatorOptions) -> DceConfig {
    let d = DceConfig::default();
    DceConfig {
        max_length: opts.max_length.unwrap_or(d.max_length),
        lambda: opts.lambda.unwrap_or(d.lambda),
        variant: opts.variant.unwrap_or(d.variant),
        non_backtracking: opts.non_backtracking.unwrap_or(d.non_backtracking),
        threads: opts.threads.unwrap_or(d.threads),
        backend: opts.backend(),
        ..d
    }
}

fn build_mce(opts: &EstimatorOptions) -> Box<dyn CompatibilityEstimator> {
    let d = MyopicCompatibilityEstimation::default();
    Box::new(MyopicCompatibilityEstimation {
        variant: opts.variant.unwrap_or(d.variant),
        threads: opts.threads.unwrap_or(d.threads),
        ..d
    })
}

fn build_lce(opts: &EstimatorOptions) -> Box<dyn CompatibilityEstimator> {
    let mut est = LinearCompatibilityEstimation::default();
    if let Some(threads) = opts.threads {
        est.threads = threads;
    }
    Box::new(est)
}

fn build_dce(opts: &EstimatorOptions) -> Box<dyn CompatibilityEstimator> {
    Box::new(DistantCompatibilityEstimation::new(dce_config(opts)))
}

fn build_dcer(opts: &EstimatorOptions) -> Box<dyn CompatibilityEstimator> {
    let restarts = opts.restarts.unwrap_or(DceWithRestarts::default().restarts);
    Box::new(DceWithRestarts::new(dce_config(opts), restarts))
}

fn build_holdout(opts: &EstimatorOptions) -> Box<dyn CompatibilityEstimator> {
    let est = HoldoutEstimation::with_splits(opts.splits.unwrap_or(1));
    match opts.threads {
        Some(threads) => est.with_threads(threads),
        None => Box::new(est),
    }
}

const REGISTRY: Registry<EstimatorOptions, dyn CompatibilityEstimator> = Registry {
    kind: "estimation",
    entries: &[
        EstimatorSpec {
            name: "mce",
            aliases: &["myopic"],
            description: "Myopic Compatibility Estimation from neighbor statistics (Eq. 12)",
            build: build_mce,
        },
        EstimatorSpec {
            name: "lce",
            aliases: &["linear"],
            description: "Linear Compatibility Estimation from the LinBP energy (Eq. 8)",
            build: build_lce,
        },
        EstimatorSpec {
            name: "dce",
            aliases: &["distant"],
            description:
                "Distant Compatibility Estimation from length-l path statistics (Eq. 13/14)",
            build: build_dce,
        },
        EstimatorSpec {
            name: "dcer",
            aliases: &["dce-r", "dce_r"],
            description: "DCE with restarts — the paper's recommended method (Section 4.8)",
            build: build_dcer,
        },
        EstimatorSpec {
            name: "holdout",
            aliases: &["hold-out"],
            description: "Holdout baseline: black-box propagation inside a search (Eq. 7)",
            build: build_holdout,
        },
    ],
};

/// All registered estimator specs, in registration order.
pub fn estimator_registry() -> &'static [EstimatorSpec] {
    REGISTRY.entries
}

/// The canonical names of all registered estimators (the values `fg --method`
/// accepts, with or without a parameter list).
pub fn estimator_names() -> Vec<&'static str> {
    REGISTRY.names()
}

/// Resolve a (case-insensitive) base name or alias — without any parameter list — to
/// its canonical estimator name.
pub fn canonical_estimator_name(name: &str) -> Option<&'static str> {
    REGISTRY.canonical(name)
}

/// Build an estimator from a name or parameterized spec string (e.g. `"mce"`,
/// `"DCEr(r=10,l=5,lambda=0.1)"`) with default options.
pub fn estimator_by_name(spec: &str) -> Result<Box<dyn CompatibilityEstimator>, String> {
    estimator_by_name_with(spec, &EstimatorOptions::default())
}

/// Build an estimator from a name or parameterized spec string, applying the given
/// option defaults; keys in the spec string take precedence.
pub fn estimator_by_name_with(
    spec: &str,
    defaults: &EstimatorOptions,
) -> Result<Box<dyn CompatibilityEstimator>, String> {
    REGISTRY.build(spec, defaults)
}

/// Build every registered estimator with default configuration, in registration
/// order.
pub fn all_estimators() -> Vec<Box<dyn CompatibilityEstimator>> {
    REGISTRY.build_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_names_and_aliases_resolve() {
        assert_eq!(canonical_estimator_name("dcer"), Some("dcer"));
        assert_eq!(canonical_estimator_name("DCEr"), Some("dcer"));
        assert_eq!(canonical_estimator_name("dce-r"), Some("dcer"));
        assert_eq!(canonical_estimator_name("Myopic"), Some("mce"));
        assert_eq!(canonical_estimator_name("hold-out"), Some("holdout"));
        assert_eq!(canonical_estimator_name("nope"), None);
    }

    #[test]
    fn every_built_in_name_round_trips() {
        // The acceptance property: parse every built-in estimator's rendered name and
        // get an estimator with the identical name back.
        for est in all_estimators() {
            let name = est.name();
            let rebuilt = estimator_by_name(&name)
                .unwrap_or_else(|e| panic!("name '{name}' failed to parse: {e}"));
            assert_eq!(rebuilt.name(), name, "round trip changed the estimator");
        }
    }

    #[test]
    fn parameterized_specs_apply_overrides() {
        let est = estimator_by_name("DCEr(r=7,l=3,lambda=0.1)").unwrap();
        assert_eq!(est.name(), "DCEr(r=7,l=3,lambda=0.1)");
        let est = estimator_by_name("dce(l=2,lambda=5,nb=false,variant=3)").unwrap();
        assert_eq!(est.name(), "DCE(l=2,lambda=5,nb=false,variant=3)");
        let est = estimator_by_name("holdout(b=4)").unwrap();
        assert_eq!(est.name(), "Holdout(b=4)");
        let est = estimator_by_name("MCE(variant=2)").unwrap();
        assert_eq!(est.name(), "MCE(variant=2)");
    }

    #[test]
    fn defaults_fill_unspecified_keys() {
        let defaults = EstimatorOptions {
            restarts: Some(5),
            lambda: Some(2.0),
            ..EstimatorOptions::default()
        };
        // Spec keys win over defaults; unset keys fall back to the defaults.
        let est = estimator_by_name_with("dcer(r=9)", &defaults).unwrap();
        assert_eq!(est.name(), "DCEr(r=9,l=5,lambda=2)");
    }

    #[test]
    fn threads_option_reaches_estimators() {
        // A threaded build must produce exactly the serial estimate (the parallel
        // kernels are bit-identical).
        use fg_graph::{generate, GeneratorConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
        let threaded_opts = EstimatorOptions {
            threads: Some(Threads::Fixed(4)),
            ..EstimatorOptions::default()
        };
        for name in estimator_names() {
            let serial = estimator_by_name(name)
                .unwrap()
                .estimate(&syn.graph, &seeds)
                .unwrap();
            let threaded = estimator_by_name_with(name, &threaded_opts)
                .unwrap()
                .estimate(&syn.graph, &seeds)
                .unwrap();
            assert_eq!(serial.data(), threaded.data(), "{name}");
        }
    }

    #[test]
    fn lowrank_mode_and_rank_keys_select_the_backend() {
        // `mode=lowrank` with an explicit rank round-trips through the name.
        let est = estimator_by_name("dce(mode=lowrank,rank=16)").unwrap();
        assert_eq!(est.name(), "DCE(l=5,lambda=10,mode=lowrank,rank=16)");
        let rebuilt = estimator_by_name(&est.name()).unwrap();
        assert_eq!(rebuilt.name(), est.name());
        // A rank alone implies the low-rank backend.
        let est = estimator_by_name("dcer(r=3,rank=8)").unwrap();
        assert_eq!(est.name(), "DCEr(r=3,l=5,lambda=10,mode=lowrank,rank=8)");
        // `mode=lowrank` without a rank uses the default rank.
        let est = estimator_by_name("dce(mode=lowrank)").unwrap();
        assert_eq!(
            est.name(),
            format!("DCE(l=5,lambda=10,mode=lowrank,rank={DEFAULT_LOWRANK_RANK})")
        );
        // An explicit `mode=exact` wins over a set rank (inapplicable keys are
        // ignored, not errors).
        let est = estimator_by_name("dce(mode=exact,rank=8)").unwrap();
        assert_eq!(est.name(), "DCE(l=5,lambda=10)");
        // Defaults merge under spec keys like every other option.
        let defaults = EstimatorOptions {
            rank: Some(32),
            ..EstimatorOptions::default()
        };
        let est = estimator_by_name_with("dce", &defaults).unwrap();
        assert_eq!(est.name(), "DCE(l=5,lambda=10,mode=lowrank,rank=32)");
    }

    #[test]
    fn malformed_specs_are_rejected_with_messages() {
        let err_of = |spec: &str| estimator_by_name(spec).map(|_| ()).unwrap_err();
        assert!(err_of("nope").contains("unknown"));
        assert!(err_of("dcer(r=10").contains("unterminated"));
        assert!(err_of("dcer(r)").contains("key=value"));
        assert!(err_of("dcer(r=many)").contains("invalid"));
        assert!(err_of("dcer(frobs=1)").contains("unknown estimator parameter"));
        assert!(err_of("mce(variant=9)").contains("variant"));
        assert!(err_of("dce(nb=perhaps)").contains("flag"));
        assert!(err_of("dce(mode=spectral)").contains("exact or lowrank"));
        assert!(err_of("dce(rank=lots)").contains("invalid rank"));
    }

    #[test]
    fn registry_lists_all_estimators() {
        assert_eq!(
            estimator_names(),
            vec!["mce", "lce", "dce", "dcer", "holdout"]
        );
        assert_eq!(all_estimators().len(), estimator_registry().len());
        for spec in estimator_registry() {
            assert!(!spec.description.is_empty());
        }
    }
}
