//! One function per table/figure of the cuMF paper.
//!
//! Every experiment follows the same recipe the DESIGN.md substitution table
//! describes: *numerics* (RMSE trajectories) come from real runs of the
//! engines/baselines on scaled-down synthetic instances of the paper's data
//! sets, while the *time axis* is priced at full paper scale with the GPU
//! cost model (`cumf_core::costmodel`) and the cluster cost model
//! (`cumf_cluster::models`).

use cumf_baselines::libmf::LibMfConfig;
use cumf_baselines::nomad::NomadConfig;
use cumf_baselines::{Engine, LibMfSgd, NomadSgd};
use cumf_cluster::models::BaselineSystem;
use cumf_cluster::pricing::CostComparison;
use cumf_core::als::AlsEngine;
use cumf_core::config::{AlsConfig, MemoryOptConfig};
use cumf_core::costmodel::{
    cumf_iteration_cost, price_side, table3, ClusterConfig, SideShape, Table3Row,
};
use cumf_core::loss;
use cumf_core::planner::{PartitionPlan, ProblemDims};
use cumf_core::reduce::{reduction_time, ReductionScheme};
use cumf_data::datasets::{DatasetSpec, PaperDataset};
use cumf_data::synth::SyntheticConfig;
use cumf_data::train_test_split;
use cumf_gpu_sim::occupancy::{mo_als_regs_per_thread, mo_als_shared_bytes};
use cumf_gpu_sim::{DeviceSpec, MemoryTableRow, Occupancy, PcieTopology};

/// Knobs shared by the convergence experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Scale factor applied to the Netflix descriptor for the numerics runs.
    pub netflix_scale: f64,
    /// Scale factor for YahooMusic.
    pub yahoo_scale: f64,
    /// Scale factor for Hugewiki.
    pub hugewiki_scale: f64,
    /// Latent dimension used for the *numerics* runs (the time axis always
    /// uses the paper's `f`, typically 100).
    pub f_run: usize,
    /// ALS iterations per convergence run.
    pub als_iterations: usize,
    /// SGD epochs per baseline convergence run.
    pub sgd_epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            netflix_scale: 0.01,
            yahoo_scale: 0.004,
            hugewiki_scale: 0.001,
            f_run: 32,
            als_iterations: 10,
            sgd_epochs: 30,
            seed: 2016,
        }
    }
}

impl ExperimentConfig {
    /// A much smaller configuration used by unit tests and smoke benches.
    pub fn quick() -> Self {
        Self {
            netflix_scale: 0.002,
            yahoo_scale: 0.001,
            hugewiki_scale: 0.0003,
            f_run: 16,
            als_iterations: 3,
            sgd_epochs: 4,
            seed: 2016,
        }
    }
}

/// One point of a convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Cumulative (full-scale, simulated/modelled) seconds.
    pub time_s: f64,
    /// Test RMSE at that time.
    pub rmse: f64,
}

/// A labelled convergence curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceSeries {
    /// Series label, e.g. `"cuMF (1 GPU)"`.
    pub label: String,
    /// Curve points in time order.
    pub points: Vec<ConvergencePoint>,
}

impl ConvergenceSeries {
    /// Final (best) RMSE of the series.
    pub fn final_rmse(&self) -> f64 {
        self.points.last().map(|p| p.rmse).unwrap_or(f64::NAN)
    }

    /// First time at which the series reaches `target` RMSE, if ever.
    pub fn time_to_rmse(&self, target: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.rmse <= target)
            .map(|p| p.time_s)
    }
}

/// A figure: one or more series on one data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure identifier, e.g. `"Figure 6 (Netflix)"`.
    pub title: String,
    /// The curves.
    pub series: Vec<ConvergenceSeries>,
}

// ---------------------------------------------------------------------------
// Shared runners
// ---------------------------------------------------------------------------

/// Subtracts the training-set global mean from both halves of a split —
/// the standard offset handling for bias-free MF (cuMF, libMF and NOMAD all
/// train on mean-centered ratings in practice).  Without it, weighted-λ
/// regularization shrinks sparse rows toward a prediction of 0 while the
/// data sits around the rating-scale midpoint, and test RMSE measures that
/// offset instead of model quality.  Residual RMSE is unchanged by the
/// shift, so trajectories stay comparable across systems.
fn center_split(
    train: &cumf_sparse::Csr,
    test: &[cumf_sparse::Entry],
) -> (cumf_sparse::Csr, Vec<cumf_sparse::Entry>) {
    let nnz = train.nnz();
    let mean = if nnz == 0 {
        0.0
    } else {
        (train.values().iter().map(|&v| v as f64).sum::<f64>() / nnz as f64) as f32
    };
    let mut coo = cumf_sparse::Coo::with_capacity(train.n_rows(), train.n_cols(), nnz);
    for e in train.iter() {
        coo.push(e.row, e.col, e.val - mean)
            .expect("indices already validated");
    }
    let test = test
        .iter()
        .map(|e| cumf_sparse::Entry::new(e.row, e.col, e.val - mean))
        .collect();
    (coo.to_csr(), test)
}

/// Runs ALS on a scaled instance of `spec` and returns the per-iteration
/// test-RMSE trajectory (numerics only; no time axis).
fn als_rmse_trajectory(
    spec: &DatasetSpec,
    scale: f64,
    f_run: usize,
    lambda: f32,
    iterations: usize,
    seed: u64,
) -> Vec<f64> {
    let scaled = spec.scaled(scale);
    let data = SyntheticConfig {
        rank: 8,
        noise_std: 0.3,
        ..SyntheticConfig::from_spec(&scaled, seed)
    }
    .generate();
    let raw = train_test_split(&data.ratings, 0.1, seed);
    let (train, test) = center_split(&raw.train, &raw.test);
    let config = AlsConfig {
        f: f_run,
        lambda,
        iterations,
        track_rmse: false,
        ..Default::default()
    };
    let mut engine = AlsEngine::new(config, train);
    let mut out = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        engine.iterate();
        out.push(loss::rmse(engine.x(), engine.theta(), &test));
    }
    out
}

/// Runs an SGD-family baseline on the same scaled instance and returns its
/// per-epoch test-RMSE trajectory.
fn sgd_rmse_trajectory(
    solver_kind: SgdBaselineKind,
    spec: &DatasetSpec,
    scale: f64,
    f_run: usize,
    lambda: f32,
    epochs: usize,
    seed: u64,
) -> Vec<f64> {
    let scaled = spec.scaled(scale);
    let data = SyntheticConfig {
        rank: 8,
        noise_std: 0.3,
        ..SyntheticConfig::from_spec(&scaled, seed)
    }
    .generate();
    let raw = train_test_split(&data.ratings, 0.1, seed);
    let (train, test) = center_split(&raw.train, &raw.test);
    let mut solver: Box<dyn Engine> = match solver_kind {
        SgdBaselineKind::LibMf => Box::new(LibMfSgd::new(
            LibMfConfig {
                f: f_run,
                lambda,
                threads: 4,
                seed,
                ..Default::default()
            },
            &train,
        )),
        SgdBaselineKind::Nomad => Box::new(NomadSgd::new(
            NomadConfig {
                f: f_run,
                lambda,
                workers: 4,
                seed,
                ..Default::default()
            },
            &train,
        )),
    };
    let mut out = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        solver.train_sweep();
        out.push(solver.rmse(&test));
    }
    out
}

/// Which SGD baseline to run for a convergence curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SgdBaselineKind {
    /// libMF-style blocked SGD.
    LibMf,
    /// NOMAD-style asynchronous SGD.
    Nomad,
}

fn series_from_trajectory(
    label: &str,
    rmse: &[f64],
    seconds_per_iteration: f64,
) -> ConvergenceSeries {
    ConvergenceSeries {
        label: label.to_string(),
        points: rmse
            .iter()
            .enumerate()
            .map(|(i, &r)| ConvergencePoint {
                time_s: (i + 1) as f64 * seconds_per_iteration,
                rmse: r,
            })
            .collect(),
    }
}

/// Full-scale per-iteration time of cuMF on `n_gpus` Titan X cards for the
/// given data set at the paper's `f`.
fn cumf_full_scale_iteration_s(spec: &DatasetSpec, n_gpus: usize, opts: MemoryOptConfig) -> f64 {
    let dims = ProblemDims::new(spec.m, spec.n, spec.nz, spec.f as u64);
    let mut cluster = ClusterConfig::titan_x(n_gpus);
    cluster.opts = opts;
    cumf_iteration_cost(&dims, &cluster).total_s()
}

// ---------------------------------------------------------------------------
// Figure 2 / Tables 4, 5
// ---------------------------------------------------------------------------

/// One point of Figure 2: the scale of MF data sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Point {
    /// Data set name.
    pub name: &'static str,
    /// Number of model parameters `(m + n) · f`.
    pub model_parameters: u64,
    /// Number of ratings `Nz`.
    pub nz: u64,
}

/// Figure 2: every Table 5 data set positioned by model size and rating count.
pub fn fig2() -> Vec<Fig2Point> {
    PaperDataset::all()
        .iter()
        .map(|d| {
            let s = d.spec();
            Fig2Point {
                name: s.name,
                model_parameters: s.model_parameters(),
                nz: s.nz,
            }
        })
        .collect()
}

/// Table 4: the programmable GPU memories.
pub fn table4() -> Vec<MemoryTableRow> {
    DeviceSpec::memory_table()
}

/// Table 5: the data set descriptors.
pub fn table5() -> Vec<DatasetSpec> {
    PaperDataset::all().iter().map(|d| d.spec()).collect()
}

/// Table 3 instantiated for a named data set at the paper's `f`.
pub fn table3_for(dataset: PaperDataset, batch: u64) -> [Table3Row; 3] {
    let s = dataset.spec();
    table3(
        s.m as f64,
        s.n as f64,
        s.nz as f64,
        s.f as f64,
        batch as f64,
    )
}

// ---------------------------------------------------------------------------
// Figure 6: cuMF vs NOMAD vs libMF on one machine
// ---------------------------------------------------------------------------

/// Figure 6: test-RMSE convergence of cuMF (1 GPU) vs NOMAD and libMF
/// (30 CPU cores) on Netflix and YahooMusic.
pub fn fig6(cfg: &ExperimentConfig) -> Vec<Figure> {
    let mut figures = Vec::new();
    for (dataset, scale) in [
        (PaperDataset::Netflix, cfg.netflix_scale),
        (PaperDataset::YahooMusic, cfg.yahoo_scale),
    ] {
        let spec = dataset.spec();
        let als_rmse = als_rmse_trajectory(
            &spec,
            scale,
            cfg.f_run,
            spec.lambda,
            cfg.als_iterations,
            cfg.seed,
        );
        let libmf_rmse = sgd_rmse_trajectory(
            SgdBaselineKind::LibMf,
            &spec,
            scale,
            cfg.f_run,
            spec.lambda,
            cfg.sgd_epochs,
            cfg.seed,
        );
        let nomad_rmse = sgd_rmse_trajectory(
            SgdBaselineKind::Nomad,
            &spec,
            scale,
            cfg.f_run,
            spec.lambda,
            cfg.sgd_epochs,
            cfg.seed,
        );

        let cumf_iter_s = cumf_full_scale_iteration_s(&spec, 1, MemoryOptConfig::optimized());
        let libmf_epoch_s = BaselineSystem::LibMfSingle30
            .iteration_time(&spec, spec.f)
            .total_s();
        let nomad_epoch_s = BaselineSystem::NomadSingle30
            .iteration_time(&spec, spec.f)
            .total_s();

        figures.push(Figure {
            title: format!("Figure 6 ({})", spec.name),
            series: vec![
                series_from_trajectory("cuMF (1 GPU)", &als_rmse, cumf_iter_s),
                series_from_trajectory("NOMAD (30 cores)", &nomad_rmse, nomad_epoch_s),
                series_from_trajectory("libMF (30 cores)", &libmf_rmse, libmf_epoch_s),
            ],
        });
    }
    figures
}

// ---------------------------------------------------------------------------
// Figures 7 and 8: memory-optimization ablations
// ---------------------------------------------------------------------------

/// Figure 7 (register ablation) or Figure 8 (texture ablation): the same
/// RMSE trajectory replayed against the per-iteration time of the optimized
/// and the ablated configuration.
fn memory_opt_ablation(cfg: &ExperimentConfig, ablate_registers: bool) -> Vec<Figure> {
    let (label_off, off_opts) = if ablate_registers {
        (
            "cuMF without registers",
            MemoryOptConfig::without_registers(),
        )
    } else {
        ("cuMF without texture", MemoryOptConfig::without_texture())
    };
    let figure_name = if ablate_registers {
        "Figure 7"
    } else {
        "Figure 8"
    };

    let mut figures = Vec::new();
    for (dataset, scale) in [
        (PaperDataset::Netflix, cfg.netflix_scale),
        (PaperDataset::YahooMusic, cfg.yahoo_scale),
    ] {
        let spec = dataset.spec();
        let rmse = als_rmse_trajectory(
            &spec,
            scale,
            cfg.f_run,
            spec.lambda,
            cfg.als_iterations,
            cfg.seed,
        );
        let on_s = cumf_full_scale_iteration_s(&spec, 1, MemoryOptConfig::optimized());
        let off_s = cumf_full_scale_iteration_s(&spec, 1, off_opts);
        figures.push(Figure {
            title: format!("{figure_name} ({})", spec.name),
            series: vec![
                series_from_trajectory("cuMF (all optimizations)", &rmse, on_s),
                series_from_trajectory(label_off, &rmse, off_s),
            ],
        });
    }
    figures
}

/// Figure 7: convergence with and without register accumulation.
pub fn fig7(cfg: &ExperimentConfig) -> Vec<Figure> {
    memory_opt_ablation(cfg, true)
}

/// Figure 8: convergence with and without the texture cache.
pub fn fig8(cfg: &ExperimentConfig) -> Vec<Figure> {
    memory_opt_ablation(cfg, false)
}

// ---------------------------------------------------------------------------
// Figure 9: multi-GPU scalability
// ---------------------------------------------------------------------------

/// Figure 9: convergence on one, two and four GPUs.
pub fn fig9(cfg: &ExperimentConfig) -> Vec<Figure> {
    let mut figures = Vec::new();
    for (dataset, scale) in [
        (PaperDataset::Netflix, cfg.netflix_scale),
        (PaperDataset::YahooMusic, cfg.yahoo_scale),
    ] {
        let spec = dataset.spec();
        let rmse = als_rmse_trajectory(
            &spec,
            scale,
            cfg.f_run,
            spec.lambda,
            cfg.als_iterations,
            cfg.seed,
        );
        let series = [1usize, 2, 4]
            .iter()
            .map(|&g| {
                let t = cumf_full_scale_iteration_s(&spec, g, MemoryOptConfig::optimized());
                series_from_trajectory(
                    &format!("cuMF ({g} GPU{})", if g > 1 { "s" } else { "" }),
                    &rmse,
                    t,
                )
            })
            .collect();
        figures.push(Figure {
            title: format!("Figure 9 ({})", spec.name),
            series,
        });
    }
    figures
}

/// The speedups Figure 9 is summarized by in the text (§5.4): per-iteration
/// speedup of 2 and 4 GPUs over 1 GPU.
pub fn fig9_speedups(dataset: PaperDataset) -> Vec<(usize, f64)> {
    let spec = dataset.spec();
    let t1 = cumf_full_scale_iteration_s(&spec, 1, MemoryOptConfig::optimized());
    [1usize, 2, 4]
        .iter()
        .map(|&g| {
            (
                g,
                t1 / cumf_full_scale_iteration_s(&spec, g, MemoryOptConfig::optimized()),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 10: Hugewiki vs multi-node NOMAD
// ---------------------------------------------------------------------------

/// Figure 10: cuMF on 4 GPUs vs NOMAD on a 64-node HPC cluster and a 32-node
/// AWS cluster, Hugewiki data.
pub fn fig10(cfg: &ExperimentConfig) -> Figure {
    let spec = PaperDataset::Hugewiki.spec();
    let als_rmse = als_rmse_trajectory(
        &spec,
        cfg.hugewiki_scale,
        cfg.f_run,
        spec.lambda,
        cfg.als_iterations,
        cfg.seed,
    );
    let nomad_rmse = sgd_rmse_trajectory(
        SgdBaselineKind::Nomad,
        &spec,
        cfg.hugewiki_scale,
        cfg.f_run,
        spec.lambda,
        cfg.sgd_epochs,
        cfg.seed,
    );

    let dims = ProblemDims::new(spec.m, spec.n, spec.nz, spec.f as u64);
    let cumf_s = cumf_iteration_cost(&dims, &ClusterConfig::four_k80()).total_s();
    let hpc_s = BaselineSystem::NomadHpc64
        .iteration_time(&spec, spec.f)
        .total_s();
    let aws_s = BaselineSystem::NomadAws32
        .iteration_time(&spec, spec.f)
        .total_s();

    Figure {
        title: "Figure 10 (Hugewiki)".to_string(),
        series: vec![
            series_from_trajectory("cuMF (4 GPUs)", &als_rmse, cumf_s),
            series_from_trajectory("NOMAD (64-node HPC)", &nomad_rmse, hpc_s),
            series_from_trajectory("NOMAD (32-node AWS)", &nomad_rmse, aws_s),
        ],
    }
}

// ---------------------------------------------------------------------------
// Figure 11 and Table 1: very large problems, speed and cost
// ---------------------------------------------------------------------------

/// One bar of Figure 11 / one row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct LargeScaleRow {
    /// Workload name.
    pub workload: &'static str,
    /// The baseline system being compared against.
    pub baseline: BaselineSystem,
    /// Baseline seconds per iteration from the cost model.
    pub baseline_model_s: f64,
    /// Baseline seconds per iteration as published (when known).
    pub baseline_published_s: Option<f64>,
    /// cuMF (4 × GK210) seconds per iteration from the cost model.
    pub cumf_s: f64,
    /// The paper's reported cuMF seconds per iteration.
    pub cumf_published_s: f64,
}

/// Figure 11: per-iteration time of cuMF on the three very large data sets
/// vs the original systems, plus the f = 100 run.
pub fn fig11() -> Vec<LargeScaleRow> {
    let cluster = ClusterConfig::four_k80();
    let entry = |dataset: PaperDataset, baseline: BaselineSystem, cumf_published: f64| {
        let spec = dataset.spec();
        let dims = ProblemDims::new(spec.m, spec.n, spec.nz, spec.f as u64);
        LargeScaleRow {
            workload: spec.name,
            baseline,
            baseline_model_s: baseline.iteration_time(&spec, spec.f).total_s(),
            baseline_published_s: baseline.published_seconds_per_iteration(),
            cumf_s: cumf_iteration_cost(&dims, &cluster).total_s(),
            cumf_published_s: cumf_published,
        }
    };
    vec![
        entry(PaperDataset::SparkAls, BaselineSystem::SparkAls50, 24.0),
        entry(PaperDataset::Factorbird, BaselineSystem::Factorbird50, 92.0),
        entry(
            PaperDataset::Facebook,
            BaselineSystem::FacebookGiraph50,
            746.0,
        ),
        entry(
            PaperDataset::CumfLargest,
            BaselineSystem::FacebookGiraph50,
            3.8 * 3600.0,
        ),
    ]
}

/// Table 1: speed and cost of cuMF versus the three distributed baselines.
pub fn table1() -> Vec<CostComparison> {
    let cumf_price = cumf_cluster::node::NodeSpec::cumf_gpu_server().price_per_hour;

    // Hugewiki vs NOMAD on AWS: convergence-time comparison (ALS needs ~10
    // iterations, SGD ~40 epochs to reach the same RMSE — the ratio Figure 10
    // exhibits).
    let hugewiki = PaperDataset::Hugewiki.spec();
    let dims = ProblemDims::new(hugewiki.m, hugewiki.n, hugewiki.nz, hugewiki.f as u64);
    let cumf_hugewiki_total =
        cumf_iteration_cost(&dims, &ClusterConfig::four_k80()).total_s() * 10.0;
    let nomad_aws = BaselineSystem::NomadAws32;
    let nomad_total = nomad_aws.iteration_time(&hugewiki, hugewiki.f).total_s() * 40.0;

    // SparkALS and Factorbird: per-iteration comparison exactly as in the
    // paper (published numbers for both sides are also reported in
    // EXPERIMENTS.md).
    let spark = PaperDataset::SparkAls.spec();
    let spark_dims = ProblemDims::new(spark.m, spark.n, spark.nz, spark.f as u64);
    let cumf_spark = cumf_iteration_cost(&spark_dims, &ClusterConfig::four_k80()).total_s();
    let factorbird = PaperDataset::Factorbird.spec();
    let fb_dims = ProblemDims::new(
        factorbird.m,
        factorbird.n,
        factorbird.nz,
        factorbird.f as u64,
    );
    let cumf_fb = cumf_iteration_cost(&fb_dims, &ClusterConfig::four_k80()).total_s();

    vec![
        CostComparison {
            baseline_name: "NOMAD".into(),
            baseline_node: "m3.xlarge".into(),
            baseline_nodes: 32,
            baseline_price_per_hour: nomad_aws.cluster().node.price_per_hour,
            baseline_seconds: nomad_total,
            cumf_price_per_hour: cumf_price,
            cumf_seconds: cumf_hugewiki_total,
        },
        CostComparison {
            baseline_name: "SparkALS".into(),
            baseline_node: "m3.2xlarge".into(),
            baseline_nodes: 50,
            baseline_price_per_hour: BaselineSystem::SparkAls50.cluster().node.price_per_hour,
            baseline_seconds: BaselineSystem::SparkAls50
                .iteration_time(&spark, spark.f)
                .total_s(),
            cumf_price_per_hour: cumf_price,
            cumf_seconds: cumf_spark,
        },
        CostComparison {
            baseline_name: "Factorbird".into(),
            baseline_node: "c3.2xlarge".into(),
            baseline_nodes: 50,
            baseline_price_per_hour: BaselineSystem::Factorbird50.cluster().node.price_per_hour,
            baseline_seconds: BaselineSystem::Factorbird50
                .iteration_time(&factorbird, factorbird.f)
                .total_s(),
            cumf_price_per_hour: cumf_price,
            cumf_seconds: cumf_fb,
        },
    ]
}

// ---------------------------------------------------------------------------
// §4.2 reduction ablation and §3.3 bin-size ablation
// ---------------------------------------------------------------------------

/// One row of the reduction ablation: a scheme and its modelled time.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// Topology name.
    pub topology: &'static str,
    /// Seconds to reduce one Hugewiki-sized batch of partials across 4 GPUs.
    pub seconds: f64,
}

/// The §4.2 ablation: reduce-on-one-GPU vs one-phase vs two-phase reduction
/// of a Hugewiki-sized batch of partial Hermitians on 4 GPUs.
pub fn reduction_ablation() -> Vec<ReductionRow> {
    let spec = PaperDataset::Hugewiki.spec();
    // One batch of X holds m/q rows; with the planner's q on a 12 GB card
    // this is roughly 250k rows; each row's partials are (f² + f) floats.
    let dims = ProblemDims::new(spec.m, spec.n, spec.nz, spec.f as u64);
    let plan = cumf_iteration_cost(&dims, &ClusterConfig::four_k80()).plans[0];
    let rows_per_batch = (spec.m as f64 / plan.q.max(1) as f64).ceil();
    let f = spec.f as f64;
    let bytes_per_gpu = rows_per_batch * (f * f + f) * 4.0;

    let flat = PcieTopology::flat(4);
    let dual = PcieTopology::dual_socket(4);
    vec![
        ReductionRow {
            scheme: "reduce on one GPU",
            topology: "flat PCIe",
            seconds: reduction_time(ReductionScheme::SingleGpu, &flat, bytes_per_gpu),
        },
        ReductionRow {
            scheme: "one-phase parallel",
            topology: "flat PCIe",
            seconds: reduction_time(ReductionScheme::OnePhase, &flat, bytes_per_gpu),
        },
        ReductionRow {
            scheme: "one-phase parallel",
            topology: "dual socket",
            seconds: reduction_time(ReductionScheme::OnePhase, &dual, bytes_per_gpu),
        },
        ReductionRow {
            scheme: "two-phase topology-aware",
            topology: "dual socket",
            seconds: reduction_time(ReductionScheme::TwoPhase, &dual, bytes_per_gpu),
        },
    ]
}

/// One row of the bin-size ablation (§3.3 design choice).
#[derive(Debug, Clone, PartialEq)]
pub struct BinAblationRow {
    /// The shared-memory staging width `bin`.
    pub bin: u32,
    /// Occupancy of the `get_hermitian` launch.
    pub occupancy: f64,
    /// Simulated seconds of one full Netflix update-X + update-Θ.
    pub iteration_s: f64,
}

/// §3.3 ablation: how the shared-memory `bin` size affects occupancy and the
/// simulated iteration time at Netflix scale, f = 100: each half is one
/// resident block on one Titan X, so only the kernels are priced.
pub fn bin_ablation() -> Vec<BinAblationRow> {
    let netflix = PaperDataset::Netflix.spec();
    let (m, n, nz) = (netflix.m as f64, netflix.n as f64, netflix.nz as f64);
    [5u32, 10, 20, 30, 40, 60, 80, 100]
        .iter()
        .map(|&bin| {
            let hw = ClusterConfig {
                opts: MemoryOptConfig {
                    bin,
                    ..MemoryOptConfig::optimized()
                },
                ..ClusterConfig::titan_x(1)
            };
            let occ = Occupancy::compute(
                &hw.device,
                100,
                mo_als_regs_per_thread(100, true),
                mo_als_shared_bytes(100, bin),
            );
            let half = |rows: f64, cols: f64| {
                let shape = SideShape::uniform(rows, cols, nz, PartitionPlan::default());
                price_side(&hw, 100, &shape, false).total()
            };
            BinAblationRow {
                bin,
                occupancy: occ.occupancy,
                iteration_s: half(m, n) + half(n, m),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_and_tables_have_all_datasets() {
        assert_eq!(fig2().len(), 7);
        assert_eq!(table5().len(), 7);
        assert_eq!(table4().len(), 4);
        let t3 = table3_for(PaperDataset::Netflix, 1000);
        assert_eq!(t3.len(), 3);
        assert!(t3[2].get_hermitian_a_flops > t3[0].get_hermitian_a_flops);
    }

    #[test]
    fn fig9_speedup_is_close_to_linear() {
        // §5.4: "the speedup is 3.8x when using four GPUs".
        let speedups = fig9_speedups(PaperDataset::Netflix);
        let four = speedups.iter().find(|(g, _)| *g == 4).unwrap().1;
        assert!(four > 2.5 && four <= 4.0, "4-GPU speedup {four}");
    }

    #[test]
    fn fig7_ablation_slows_netflix_more_than_yahoo() {
        // §5.3: Netflix suffers more from dropping registers than YahooMusic.
        let netflix = PaperDataset::Netflix.spec();
        let yahoo = PaperDataset::YahooMusic.spec();
        let ratio = |spec: &DatasetSpec| {
            cumf_full_scale_iteration_s(spec, 1, MemoryOptConfig::without_registers())
                / cumf_full_scale_iteration_s(spec, 1, MemoryOptConfig::optimized())
        };
        let netflix_penalty = ratio(&netflix);
        let yahoo_penalty = ratio(&yahoo);
        // The headline effect: register blocking is the single biggest win
        // (the paper reports 2.5x on Netflix, 1.7x on YahooMusic).  The
        // secondary Netflix-vs-YahooMusic asymmetry is weaker in our traffic
        // model (see EXPERIMENTS.md), so only require it not to invert badly.
        assert!(
            netflix_penalty > 1.3,
            "Netflix register penalty {netflix_penalty}"
        );
        assert!(
            yahoo_penalty > 1.3,
            "YahooMusic register penalty {yahoo_penalty}"
        );
        assert!(
            netflix_penalty > 0.8 * yahoo_penalty,
            "Netflix ({netflix_penalty}) should not be hurt much less than YahooMusic ({yahoo_penalty})"
        );
    }

    #[test]
    fn fig8_texture_ablation_costs_tens_of_percent() {
        let netflix = PaperDataset::Netflix.spec();
        let on = cumf_full_scale_iteration_s(&netflix, 1, MemoryOptConfig::optimized());
        let off = cumf_full_scale_iteration_s(&netflix, 1, MemoryOptConfig::without_texture());
        let penalty = off / on;
        assert!(penalty > 1.1 && penalty < 2.5, "texture penalty {penalty}");
    }

    #[test]
    fn fig11_cumf_beats_sparkals_and_factorbird() {
        let rows = fig11();
        let speedup = |workload: &str| {
            let r = rows.iter().find(|r| r.workload == workload).unwrap();
            r.baseline_model_s / r.cumf_s
        };
        let spark = speedup("SparkALS");
        assert!(spark > 3.0, "SparkALS speedup {spark}");
        let fb = speedup("Factorbird");
        assert!(fb > 2.0, "Factorbird speedup {fb}");
        // The f=100 run is the most expensive single workload.
        let largest = rows
            .iter()
            .find(|r| r.workload == "cuMF (largest)")
            .unwrap();
        assert!(
            largest.cumf_s
                > rows
                    .iter()
                    .find(|r| r.workload == "Facebook")
                    .unwrap()
                    .cumf_s
        );
    }

    #[test]
    fn table1_reproduces_the_cost_efficiency_claim() {
        // "33-100 times as cost-efficient": with modelled times the exact
        // multiples shift, but every row must show cuMF costing a small
        // fraction of the baseline.
        for row in table1() {
            assert!(
                row.speedup() > 2.0,
                "{}: speedup {}",
                row.baseline_name,
                row.speedup()
            );
            assert!(
                row.cost_fraction() < 0.2,
                "{}: cost fraction {}",
                row.baseline_name,
                row.cost_fraction()
            );
        }
    }

    #[test]
    fn reduction_ablation_matches_the_papers_ordering() {
        let rows = reduction_ablation();
        let get = |scheme: &str, topo: &str| {
            rows.iter()
                .find(|r| r.scheme == scheme && r.topology == topo)
                .unwrap()
                .seconds
        };
        let single = get("reduce on one GPU", "flat PCIe");
        let one_flat = get("one-phase parallel", "flat PCIe");
        let one_dual = get("one-phase parallel", "dual socket");
        let two_dual = get("two-phase topology-aware", "dual socket");
        assert!(
            single / one_flat > 1.5,
            "parallel reduction should be >1.5x faster"
        );
        assert!(
            one_dual / two_dual > 1.2,
            "two-phase should be >1.2x faster on dual socket"
        );
    }

    #[test]
    fn bin_ablation_shows_the_occupancy_tradeoff() {
        let rows = bin_ablation();
        let bin20 = rows.iter().find(|r| r.bin == 20).unwrap();
        let bin100 = rows.iter().find(|r| r.bin == 100).unwrap();
        // Very large bins crater occupancy (and therefore speed).
        assert!(bin100.occupancy < bin20.occupancy);
        assert!(bin100.iteration_s > bin20.iteration_s);
    }

    #[test]
    fn quick_fig6_runs_and_als_converges_faster_than_sgd() {
        let cfg = ExperimentConfig::quick();
        let figures = fig6(&cfg);
        assert_eq!(figures.len(), 2);
        for fig in &figures {
            assert_eq!(fig.series.len(), 3);
            let cumf = &fig.series[0];
            assert!(
                cumf.final_rmse() < 1.5,
                "{}: cuMF rmse {}",
                fig.title,
                cumf.final_rmse()
            );
            for s in &fig.series {
                assert!(s.points.windows(2).all(|w| w[1].time_s > w[0].time_s));
            }
        }
    }

    #[test]
    fn quick_fig10_has_three_series() {
        let fig = fig10(&ExperimentConfig::quick());
        assert_eq!(fig.series.len(), 3);
        // Figure 10's shape: an ALS run (≈10 iterations) on 4 GPUs finishes
        // well before an SGD run (≈40 epochs) on the 32-node AWS cluster,
        // and in the same ballpark as the 64-node HPC cluster.
        let spec = PaperDataset::Hugewiki.spec();
        let dims = ProblemDims::new(spec.m, spec.n, spec.nz, spec.f as u64);
        let cumf_total = cumf_iteration_cost(&dims, &ClusterConfig::four_k80()).total_s() * 10.0;
        let aws_total = BaselineSystem::NomadAws32
            .iteration_time(&spec, spec.f)
            .total_s()
            * 40.0;
        let hpc_total = BaselineSystem::NomadHpc64
            .iteration_time(&spec, spec.f)
            .total_s()
            * 40.0;
        assert!(
            aws_total > cumf_total * 2.0,
            "cuMF {cumf_total} s vs NOMAD-AWS {aws_total} s"
        );
        assert!(
            hpc_total > cumf_total * 0.2 && hpc_total < cumf_total * 5.0,
            "cuMF {cumf_total} s should be in the same ballpark as NOMAD-HPC {hpc_total} s"
        );
    }
}
