//! The `dcer` span reports the optimizer's work, summed over the restarts, and the
//! counts do not depend on how many threads ran the restarts.
//!
//! Trace captures are process-wide, so this file holds the only capturing test of
//! its binary.

use fg_core::{summarize, DceConfig, DceWithRestarts};
use fg_graph::{generate, GeneratorConfig};
use fg_sparse::Threads;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn dcer_span_carries_the_restart_work() {
    let cfg = GeneratorConfig::balanced(1500, 10.0, 3, 8.0).unwrap();
    let mut rng = StdRng::seed_from_u64(2024);
    let syn = generate(&cfg, &mut rng).unwrap();
    let seeds = syn.labeling.stratified_sample(0.01, &mut rng);
    let summary = summarize(&syn.graph, &seeds, &DceConfig::default().summary_config()).unwrap();
    for threads in [Threads::Serial, Threads::Fixed(2)] {
        let estimator = DceWithRestarts {
            config: DceConfig {
                threads,
                ..DceConfig::default()
            },
            ..DceWithRestarts::default()
        };
        fg_obs::start_capture();
        let result = estimator.estimate_from_summary(&summary);
        let trace = fg_obs::finish_capture();
        result.unwrap();
        let spans: Vec<_> = trace.records.iter().filter(|r| r.name == "dcer").collect();
        assert_eq!(spans.len(), 1, "{threads:?}");
        assert_eq!(
            spans[0].args,
            [
                ("restarts", 9),
                ("iterations", 3362),
                ("evaluations", 6734),
                ("capped", 5),
            ],
            "{threads:?}"
        );
    }
}
