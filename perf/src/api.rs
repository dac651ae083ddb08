//! The frozen API surface: every call from the benchmark into the
//! repository goes through this module, and no other module names a
//! `cumf_*` crate.
//!
//! A later refactor of the repository (ROADMAP item 2 collapses the
//! `TopKIndex::with_*`, `from_*_with_layout`, `solve_side*`,
//! `fold_in_users*`, `retrieve_top_k*` and `batch_score_*` variants) then
//! has one file to adapt, and the benchmark compares the same operations
//! before and after.  Only front doors are called:
//!
//! | layer | calls |
//! |---|---|
//! | data | `SyntheticConfig::generate`, `train_test_split`, `StreamBatcher::spawn`, `RatingStream` (implemented by the harness) |
//! | sparse | `Coo::{from_entries, to_csr}`, `Csr::{transpose, iter}` |
//! | linalg | `blas::syr_axpy`, `score_dot`, `cholesky_solve`, `FactorMatrix::{from_vec, vector}` |
//! | core | `MoAlsEngine::on_titan_x`, the `Engine` trait (`train_sweep`, `rmse`, `x`, `theta`, `attach_metrics`), `TrainMetrics::{new, report}`, `TrainMetricsReport::exporter` |
//! | serve | `FactorSnapshot::{from_factors, recommend_one, user_vector, item_vector, n_items}`, `TopKService::{start, client, publish, snapshot, metrics, metrics_handle, traces_jsonl}`, `ServeClient::recommend`, `OnlineLoop::{fold_in, step}` |
//! | obs | `Histogram::{new, record_ns, count}`, `Exporter::to_json` |
//!
//! `score_dot` — not `blas::dot` — is the oracle's and the probe's dot
//! product: it is the accumulation order the blocked scan scores with
//! (four f32 lanes), which `linalg` keeps public so that an exact rescore
//! reproduces a scan score bit for bit.  `blas::dot` accumulates in f64 and
//! differs in the last place.
//!
//! Exporter output is handed on as parsed JSON and read by key, so a
//! renamed or removed `train_*` / `serve_*` key makes one metric absent
//! and does not break the build.

use crate::json::Json;
use std::sync::Arc;
use std::time::Duration;

pub use cumf_core::{Engine, IncrementalEngine, TrainMetrics};
pub use cumf_data::stream::RatingStream;
pub use cumf_data::{SyntheticDataset, TrainTest};
pub use cumf_linalg::blas::syr_axpy;
pub use cumf_linalg::{cholesky_solve, score_dot, FactorMatrix};
pub use cumf_obs::Histogram;
pub use cumf_serve::{FactorSnapshot, OnlineLoop, ServeClient, TopKService};
pub use cumf_sparse::{Coo, Csr, Entry};

/// The synthetic rating matrix of a `train_*` workload (the generator's
/// defaults for noise, skew and rating range).
pub fn synth_generate(m: u32, n: u32, nnz: usize, rank: usize, seed: u64) -> SyntheticDataset {
    cumf_data::SyntheticConfig {
        m,
        n,
        nnz,
        rank,
        seed,
        ..Default::default()
    }
    .generate()
}

pub fn split(ratings: &Coo, test_frac: f64, seed: u64) -> TrainTest {
    cumf_data::train_test_split(ratings, test_frac, seed)
}

pub fn coo_to_csr(coo: &Coo) -> Csr {
    coo.to_csr()
}

pub fn csr_transpose(csr: &Csr) -> Csr {
    csr.transpose()
}

/// Every stored rating of `csr`, row by row.
pub fn csr_entries(csr: &Csr) -> Vec<Entry> {
    csr.iter().collect()
}

/// A CSR matrix from `(row, col, value)` triplets.
pub fn csr_from_triplets(n_rows: u32, n_cols: u32, triplets: Vec<Entry>) -> Csr {
    Coo::from_entries(n_rows, n_cols, triplets)
        .expect("harness-built triplets are in range")
        .to_csr()
}

/// The engine every `train_*` op constructs: MO-ALS on one simulated
/// Titan X, driven through the object-safe `Engine` trait.
pub fn engine_new(f: usize, lambda: f32, seed: u64, train: Csr) -> Box<dyn IncrementalEngine> {
    let config = cumf_core::AlsConfig {
        f,
        lambda,
        seed,
        ..Default::default()
    };
    Box::new(cumf_core::als::MoAlsEngine::on_titan_x(config, train))
}

/// The `train_*` exporter keys of a metrics sink.
pub fn train_metrics_json(metrics: &TrainMetrics) -> Json {
    parse_exporter(&metrics.report().exporter().to_json())
}

pub fn snapshot_from_factors(x: FactorMatrix, theta: FactorMatrix) -> FactorSnapshot {
    FactorSnapshot::from_factors(x, theta)
}

/// How the item factors of a service are stored and scanned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan {
    /// Exact f32 scan — what both `serve_*` workloads measure.
    Exact,
    /// `Precision::I8` slab with the exact f32 rerank.
    I8,
    /// Exact f32 rows under `ApproxPolicy::default()`.
    Approx,
}

/// The service set-up the `serve_*` workloads share: one worker, one shard
/// and no coalescing window, because a single closed-loop client has
/// nothing to coalesce with (README, "Why one thread, one client").
pub fn service_start(
    snapshot: FactorSnapshot,
    cache_capacity: Option<usize>,
    scan: Scan,
    trace_every_request: Option<usize>,
) -> TopKService {
    let defaults = cumf_serve::ServeConfig::default();
    TopKService::start(
        snapshot,
        cumf_serve::ServeConfig {
            workers: 1,
            shards: 1,
            max_delay: Duration::ZERO,
            cache_capacity: cache_capacity.unwrap_or(defaults.cache_capacity),
            precision: match scan {
                Scan::I8 => cumf_linalg::Precision::I8,
                Scan::Exact | Scan::Approx => cumf_linalg::Precision::F32,
            },
            approx: (scan == Scan::Approx).then(cumf_serve::ApproxPolicy::default),
            trace_sample: u64::from(trace_every_request.is_some()),
            trace_capacity: trace_every_request.unwrap_or(0),
            ..defaults
        },
    )
}

pub fn recommend(client: &ServeClient, user: u32, k: usize) -> Option<Vec<(u32, f32)>> {
    client.recommend(user, k, &[]).ok()
}

pub fn recommend_one(snapshot: &FactorSnapshot, user: u32, k: usize) -> Vec<(u32, f32)> {
    snapshot.recommend_one(user, k, &[])
}

pub fn publish(service: &TopKService, snapshot: FactorSnapshot) -> u64 {
    service.publish(snapshot)
}

pub fn current_snapshot(service: &TopKService) -> Arc<FactorSnapshot> {
    service.snapshot()
}

/// The `serve_*` exporter keys of a service, cumulative since its start.
pub fn serve_metrics_json(service: &TopKService) -> Json {
    parse_exporter(&service.metrics().exporter().to_json())
}

/// The service's sampled stage traces, one parsed JSON object per request
/// in admission order.
pub fn traces(service: &TopKService) -> Vec<Json> {
    service
        .traces_jsonl()
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .collect()
}

/// The write side of `serve_online`: a fold-in loop over `stream`,
/// publishing deltas through `service` and seeded with every user's
/// rating history.
pub fn online_fold_in<'a, S>(
    engine: Box<dyn IncrementalEngine>,
    history: &Csr,
    stream: S,
    batch_events: usize,
    service: &'a TopKService,
) -> OnlineLoop<'a>
where
    S: RatingStream + Send + 'static,
{
    // Four batches of queue: the producer refills while the generator reads.
    let batcher = cumf_data::stream::StreamBatcher::spawn(stream, 4 * batch_events);
    OnlineLoop::fold_in(
        engine,
        history,
        batcher,
        service,
        service.metrics_handle(),
        cumf_serve::OnlineLoopConfig {
            max_batch_events: batch_events,
            ..Default::default()
        },
    )
}

/// What one `OnlineLoop::step` published.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub events: usize,
    pub user_bytes: usize,
}

/// One step of the online loop; `None` when the step failed to publish or
/// the stream ended.
pub fn online_step(online: &mut OnlineLoop<'_>) -> Option<Step> {
    let outcome = online.step().ok()??;
    Some(Step {
        events: outcome.events,
        user_bytes: outcome.stats.map_or(0, |s| s.user_factor_bytes_copied),
    })
}

fn parse_exporter(json: &str) -> Json {
    Json::parse(json).expect("the exporter renders a well-formed flat JSON object")
}
