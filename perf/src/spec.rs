//! The names the benchmark emits: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics.  `BENCHMARK.json` at the repository root
//! says the same thing to the driver; a unit test holds the two equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainDense,
    TrainSparse,
    ServeScan,
    ServeOnline,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrainDense,
        Workload::TrainSparse,
        Workload::ServeScan,
        Workload::ServeOnline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainDense => "train_dense",
            Workload::TrainSparse => "train_sparse",
            Workload::ServeScan => "serve_scan",
            Workload::ServeOnline => "serve_online",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_train(self) -> bool {
        matches!(self, Workload::TrainDense | Workload::TrainSparse)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_tail",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// The workload whose traced pass supplies the metric when the traced
    /// workload itself does not exercise the layer.
    pub home: Workload,
}

const fn layer(name: &'static str, unit: &'static str, home: Workload) -> PerLayer {
    PerLayer { name, unit, home }
}

use Workload::{ServeOnline, ServeScan, TrainDense};

/// Layer = crate.  README.md says how each is measured and which
/// end-to-end metric it should move.  Every traced run emits all of them
/// (the driver's contract): a `train_*` run has no service of its own, so
/// its `serve.*` values come from the metric's home workload, and the
/// other way round.  `host.*`, `linalg.*` and `obs.*` come from the traced
/// workload's own child whichever it is.
pub const PER_LAYER: [PerLayer; 54] = [
    layer("host.fma_gflops", "GFLOP/s", TrainDense),
    layer("host.stream_gbps", "GB/s", TrainDense),
    layer("host.drift_frac", "ratio", TrainDense),
    layer("data.synth_generate_ms", "ms", TrainDense),
    layer("data.split_ms", "ms", TrainDense),
    layer("sparse.coo_to_csr_ms", "ms", TrainDense),
    layer("sparse.transpose_ms", "ms", TrainDense),
    layer("linalg.syr_axpy_gflops_r32", "GFLOP/s", TrainDense),
    layer("linalg.syr_axpy_gflops_r64", "GFLOP/s", TrainDense),
    layer("linalg.syr_axpy_roofline_frac_r32", "ratio", TrainDense),
    layer("linalg.cholesky_solve_us_r32", "us", TrainDense),
    layer("linalg.cholesky_solve_us_r64", "us", TrainDense),
    layer("linalg.dot_gflops_r32", "GFLOP/s", TrainDense),
    layer("core.engine_new_ms", "ms", TrainDense),
    layer("core.sweep_ms_p50", "ms", TrainDense),
    layer("core.rmse_eval_ms", "ms", TrainDense),
    layer("core.sweeps_to_target", "count", TrainDense),
    layer("core.final_rmse", "rmse", TrainDense),
    layer("core.assembly_us_per_row_p50", "us", TrainDense),
    layer("core.solve_us_per_row_p50", "us", TrainDense),
    layer("core.assembly_share", "ratio", TrainDense),
    layer("core.rows_solved", "count", TrainDense),
    layer("core.par2_speedup", "ratio", TrainDense),
    layer("core.fold_in_us_p50", "us", ServeOnline),
    layer("gpu_sim.predicted_sweep_ms", "ms", TrainDense),
    layer("gpu_sim.predicted_over_measured", "ratio", TrainDense),
    layer("serve.snapshot_build_ms", "ms", ServeScan),
    layer("serve.service_start_ms", "ms", ServeScan),
    layer("serve.publish_full_ms", "ms", ServeScan),
    layer("serve.request_e2e_us_p50", "us", ServeScan),
    layer("serve.stage_queue_wait_us_p50", "us", ServeScan),
    layer("serve.stage_coalesce_us_p50", "us", ServeScan),
    layer("serve.stage_score_us_p50", "us", ServeScan),
    layer("serve.stage_merge_us_p50", "us", ServeScan),
    layer("serve.stage_reply_us_p50", "us", ServeScan),
    layer("serve.dispatch_us_p50", "us", ServeScan),
    layer("serve.recommend_one_us_p50", "us", ServeScan),
    layer("serve.blocks_scored_per_query", "count", ServeScan),
    layer("serve.blocks_pruned_per_query", "count", ServeScan),
    layer("serve.bytes_scanned_per_query", "B", ServeScan),
    layer("serve.scan_gbps", "GB/s", ServeScan),
    layer("serve.scan_i8_us_p50", "us", ServeScan),
    layer("serve.scan_approx_us_p50", "us", ServeScan),
    layer("serve.bytes_scanned_per_query_i8", "B", ServeScan),
    layer("serve.recall_at_k_i8", "ratio", ServeScan),
    layer("serve.recall_at_k_approx", "ratio", ServeScan),
    layer("serve.reencode_i8_ms", "ms", ServeScan),
    layer("serve.cache_hit_ratio", "ratio", ServeOnline),
    layer("serve.online_step_ms_p50", "ms", ServeOnline),
    layer("serve.online_write_share", "ratio", ServeOnline),
    layer("serve.freshness_ms_p50", "ms", ServeOnline),
    layer("serve.delta_user_bytes_per_publish", "B", ServeOnline),
    layer("obs.histogram_record_ns", "ns", TrainDense),
    layer("obs.trace_overhead_frac", "ratio", TrainDense),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(items)) => items,
            _ => panic!("{key} is not a list"),
        }
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        match entry.get(key) {
            Some(Json::Str(s)) => s,
            _ => panic!("{key} is not a string"),
        }
    }

    fn better(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn emitted_names_match_benchmark_json_exactly() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = list(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let e2e: Vec<(&str, &str, &str, f64)> = list(&doc, "end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.num("bound").unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str, &str, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, better(m.better), m.bound))
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(&str, &str)> = list(&doc, "per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        let ours: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(layers, ours);

        assert_eq!(list(&doc, "paths"), [Json::Str("perf".into())]);
        assert_eq!(doc.num("run_seconds"), Some(crate::RUN_SECONDS as f64));
    }

    #[test]
    fn names_and_units_fit_the_driver_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()), "{}", w.name());
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
        }
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
