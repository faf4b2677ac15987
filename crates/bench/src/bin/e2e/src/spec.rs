//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root states the
//! same table; a unit test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As spelled in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "run_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_mcycles_per_s",
        unit: "Mcycle/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit, better)`.
/// Times and counts are per traced run, except the per-call `_us` times of
/// `verify.predict` and the record cache, the per-event and per-kcycle
/// rates, `harness.record_kb` and the two set-up figures. Layers a
/// workload never calls read 0.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("workloads.gen_ms", "ms", Better::Lower),
    ("verify.profile_ms", "ms", Better::Lower),
    ("verify.predict_calls", "count", Better::Lower),
    ("verify.predict_us", "us", Better::Lower),
    ("core.prepare_us", "us", Better::Lower),
    ("core.controller_ms", "ms", Better::Lower),
    ("core.controller_calls", "count", Better::Lower),
    ("core.decisions", "count", Better::Lower),
    ("core.revert_ratio", "ratio", Better::Lower),
    ("mpisim.events", "count", Better::Lower),
    ("mpisim.self_ms", "ms", Better::Lower),
    ("mpisim.ns_per_event", "ns", Better::Lower),
    ("oskernel.stolen_mcycles", "Mcycle", Better::Lower),
    ("smtsim.advance_calls", "count", Better::Lower),
    ("smtsim.advance_ms", "ms", Better::Lower),
    ("smtsim.rate_calls", "count", Better::Lower),
    ("smtsim.rate_ms", "ms", Better::Lower),
    ("smtsim.ns_per_kcycle", "ns", Better::Lower),
    ("smtsim.ipc", "inst/cycle", Better::Higher),
    ("smtsim.useful_ratio", "ratio", Better::Higher),
    ("trace.result_us", "us", Better::Lower),
    ("harness.hit_us", "us", Better::Lower),
    ("harness.key_us", "us", Better::Lower),
    ("harness.read_us", "us", Better::Lower),
    ("snap.decode_us", "us", Better::Lower),
    ("harness.convert_us", "us", Better::Lower),
    ("harness.record_kb", "KiB", Better::Lower),
    ("harness.miss_ms", "ms", Better::Lower),
    ("bench.unattributed_ms", "ms", Better::Lower),
    ("bench.trace_overhead_pct", "%", Better::Lower),
];

/// Every workload with the reason it is in the benchmark.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "plan-sweep",
        "static plan search at design-space scale: predict + meso execute per run, so the mpisim event loop and the meso core dominate, with no noise and no controller",
    ),
    (
        "noisy-dynamic",
        "identity vs the two-level controller under timer and device-IRQ noise: noise boundaries drive the events and the controller writes priorities mid-run",
    ),
    (
        "cycle-cases",
        "paper cases A-D on the cycle-level core, which covers ~99% of host time; checks the meso model against it",
    ),
    (
        "cache-replay",
        "warm run-record cache hits through SweepRunner::run_case: the harness record path and the JSON codec, no simulation",
    ),
];

/// Set-ups per invocation; `setup_s` is their median.
pub const SETUPS: usize = 5;

#[cfg(test)]
mod tests {
    use super::*;
    use mtb_bench::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(list: &Json, key: &str) -> Vec<String> {
        list.as_arr()
            .expect("array")
            .iter()
            .map(|m| {
                m.get(key)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_states_this_table() {
        let doc = benchmark_json();
        let e2e = doc.get("end_to_end").expect("end_to_end");
        assert_eq!(
            names(e2e, "name"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (m, j) in END_TO_END.iter().zip(e2e.as_arr().unwrap()) {
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = doc.get("per_layer").expect("per_layer");
        assert_eq!(
            names(layers, "name"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names(layers, "unit"),
            PER_LAYER.iter().map(|m| m.1).collect::<Vec<_>>()
        );
        assert_eq!(
            names(layers, "better"),
            PER_LAYER.iter().map(|m| m.2.as_str()).collect::<Vec<_>>()
        );
        let workloads = doc.get("workloads").expect("workloads");
        assert_eq!(
            names(workloads, "name"),
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names(workloads, "why"),
            WORKLOADS.iter().map(|w| w.1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn workload_table_matches_the_workload_enum() {
        let kinds: Vec<_> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(kinds, WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>());
    }
}
