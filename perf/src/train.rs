//! The `train_*` workloads: one op is one full training to a stated RMSE.
//!
//! An op builds a fresh engine from the training matrix and sweeps until
//! the evaluation RMSE reaches the target, so `op_ms_p50` is the paper's
//! time-to-RMSE.  The target sits between the RMSE after sweep 2 and after
//! sweep 3 for every seed tried (README, "Sizing"), so the number of sweeps
//! per op — and with it the work per op — does not depend on the seed.

use crate::api::{self, Csr, Entry, IncrementalEngine, TrainMetrics};
use crate::json::Json;
use crate::measure::Ops;
use crate::spec::Workload;
use crate::stats::percentile;
use crate::trace::{Traced, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the 10% hold-out split (fixed: the split is part of the
/// workload's definition, the ratings are what `--seed` varies).
const HOLDOUT_SEED: u64 = 11;
/// An op that has not reached the target after this many sweeps failed.
const MAX_SWEEPS: usize = 8;
const GROUND_TRUTH_RANK: usize = 8;
const LAMBDA: f32 = 0.05;

#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub m: u32,
    pub n: u32,
    pub nnz: usize,
    pub f: usize,
    /// Share of ratings held out; the target is on the held-out RMSE when
    /// positive and on the training RMSE when zero.
    pub holdout: f64,
    pub target_rmse: f64,
    /// The share of per-row time spent assembling Hermitians must fall in
    /// this range, or the workload is not the regime it is named for.  The
    /// bands are wide (measured: 0.87 dense, 0.27 to 0.37 sparse): they
    /// must hold through timing noise and through an optimisation of
    /// either phase, and trip only when the regime itself is gone.
    pub assembly_share: (f64, f64),
}

pub fn spec(workload: Workload, quick: bool) -> TrainSpec {
    let shrink = if quick { 2 } else { 1 };
    match workload {
        Workload::TrainDense => TrainSpec {
            m: 2000 / shrink,
            n: 600 / shrink,
            nnz: 150_000 / (shrink * shrink) as usize,
            f: 32,
            holdout: 0.1,
            // Between sweep 2 and sweep 3 at either size (README, "Sizing").
            target_rmse: if quick { 0.56 } else { 0.30 },
            assembly_share: (0.70, 1.0),
        },
        Workload::TrainSparse => TrainSpec {
            m: 1800 / shrink,
            n: 1800 / shrink,
            nnz: 14_250 / shrink as usize,
            f: 64,
            // Held-out RMSE is not monotone in this deliberately
            // over-parameterised regime, so the target is on training RMSE:
            // between sweep 2 and sweep 3 at full size, between sweep 1 and
            // sweep 2 under --quick.
            holdout: 0.0,
            target_rmse: if quick { 0.22 } else { 0.143 },
            assembly_share: (0.0, 0.50),
        },
        _ => unreachable!("{} is not a train workload", workload.name()),
    }
}

/// What set-up leaves behind: the training matrix every op clones, and
/// the ratings the target RMSE is evaluated on.
pub struct TrainSetup {
    spec: TrainSpec,
    seed: u64,
    train: Csr,
    eval: Vec<Entry>,
}

/// Generates, splits and converts the ratings, then runs one instrumented
/// warm-up op to check the workload's shape.  Returns the warm-up outcome
/// too: it counts as an attempted op.
pub fn setup(
    workload: Workload,
    quick: bool,
    seed: u64,
    tr: &mut Tracer,
) -> (TrainSetup, OpOutcome) {
    let spec = spec(workload, quick);
    let data = tr.span("data.synth_generate", 0, |_| {
        api::synth_generate(spec.m, spec.n, spec.nnz, GROUND_TRUTH_RANK, seed)
    });
    let split = tr.span("data.split", 0, |_| {
        api::split(&data.ratings, spec.holdout, HOLDOUT_SEED)
    });
    // The split already converts; this times the conversion on its own.
    tr.span("sparse.coo_to_csr", 0, |_| api::coo_to_csr(&data.ratings));
    // Engine construction transposes R; this times the transpose on its own.
    tr.span("sparse.transpose", 0, |_| api::csr_transpose(&split.train));
    let eval = if spec.holdout > 0.0 {
        split.test
    } else {
        api::csr_entries(&split.train)
    };
    let setup = TrainSetup {
        spec,
        seed,
        train: split.train,
        eval,
    };

    let metrics = Arc::new(TrainMetrics::new());
    let warm = setup.run_op(&mut Tracer::new(false), 0, Some(&metrics));
    let share = assembly_share(&api::train_metrics_json(&metrics));
    if !quick {
        let (lo, hi) = spec.assembly_share;
        assert!(
            share.is_some_and(|s| (lo..=hi).contains(&s)),
            "{}: Hermitian assembly takes {share:?} of per-row time, outside [{lo}, {hi}]: \
             the workload is not in the regime it is named for",
            workload.name()
        );
    }
    (setup, warm)
}

fn assembly_share(train_metrics: &Json) -> Option<f64> {
    let assembly = train_metrics.num("train_assembly_sum_ns")?;
    let solve = train_metrics.num("train_solve_sum_ns")?;
    (assembly + solve > 0.0).then(|| assembly / (assembly + solve))
}

/// What one training did.
pub struct OpOutcome {
    pub reached: bool,
    pub sweeps: usize,
    pub final_rmse: f64,
    /// The cost model's simulated seconds of the last sweep.
    pub predicted_sweep_s: f64,
    pub engine: Box<dyn IncrementalEngine>,
}

impl TrainSetup {
    /// One op: a fresh engine, swept until the target RMSE is met.
    pub fn run_op(
        &self,
        tr: &mut Tracer,
        op: u32,
        metrics: Option<&Arc<TrainMetrics>>,
    ) -> OpOutcome {
        tr.span("train.op", op, |tr| {
            let mut engine = tr.span("core.engine_new", op, |_| {
                api::engine_new(self.spec.f, LAMBDA, self.seed, self.train.clone())
            });
            if let Some(metrics) = metrics {
                engine.attach_metrics(Arc::clone(metrics));
            }
            let mut outcome = OpOutcome {
                reached: false,
                sweeps: 0,
                final_rmse: f64::INFINITY,
                predicted_sweep_s: 0.0,
                engine,
            };
            while !outcome.reached && outcome.sweeps < MAX_SWEEPS {
                outcome.predicted_sweep_s =
                    tr.span("core.train_sweep", op, |_| outcome.engine.train_sweep());
                outcome.sweeps += 1;
                outcome.final_rmse =
                    tr.span("core.rmse_eval", op, |_| outcome.engine.rmse(&self.eval));
                outcome.reached = outcome.final_rmse <= self.spec.target_rmse;
            }
            outcome
        })
    }

    /// Checks an op's result without the engine's help: the RMSE of its
    /// final factors, recomputed here in f64, must meet the target and
    /// agree with what the engine reported.
    pub fn verify(&self, outcome: &OpOutcome) -> bool {
        let (x, theta) = (outcome.engine.x(), outcome.engine.theta());
        let squared: f64 = self
            .eval
            .iter()
            .map(|e| {
                let predicted: f64 = x
                    .vector(e.row as usize)
                    .iter()
                    .zip(theta.vector(e.col as usize))
                    .map(|(&a, &b)| f64::from(a) * f64::from(b))
                    .sum();
                (predicted - f64::from(e.val)).powi(2)
            })
            .sum();
        let rmse = (squared / self.eval.len() as f64).sqrt();
        outcome.reached
            && rmse <= self.spec.target_rmse
            && (rmse - outcome.final_rmse).abs() <= 1e-4
    }
}

/// The untraced load generator: back-to-back trainings.
pub struct TrainLoad<'a> {
    setup: &'a TrainSetup,
    tracer: Tracer,
}

impl<'a> TrainLoad<'a> {
    pub fn new(setup: &'a TrainSetup) -> Self {
        Self {
            setup,
            tracer: Tracer::new(false),
        }
    }
}

impl Ops for TrainLoad<'_> {
    fn op(&mut self) -> bool {
        self.setup.run_op(&mut self.tracer, 0, None).reached
    }
}

/// The traced pass: set-up, then `ops` trainings with spans around every
/// layer call and `TrainMetrics` attached, and the per-layer values derived
/// from them; with `untraced_twin`, the same trainings once more untraced.
pub fn traced(workload: Workload, quick: bool, seed: u64, ops: u32, untraced_twin: bool) -> Traced {
    let mut tr = Tracer::new(true);
    let (setup, _) = setup(workload, quick, seed, &mut tr);
    let metrics = Arc::new(TrainMetrics::new());
    let started = Instant::now();
    let outcomes: Vec<OpOutcome> = (1..=ops)
        .map(|op| setup.run_op(&mut tr, op, Some(&metrics)))
        .collect();
    let ops_per_s = f64::from(ops) / started.elapsed().as_secs_f64();
    let failed = outcomes.iter().filter(|o| !setup.verify(o)).count() as u64;

    let p50_ms = |name: &str| percentile(&tr.durations_ns(name), 0.5) / 1e6;
    let first_ms = |name: &str| tr.durations_ns(name)[0] / 1e6;
    let exported = api::train_metrics_json(&metrics);
    let last = outcomes.last().expect("at least one traced op");
    let sweep_ms = p50_ms("core.train_sweep");
    let mut out = BTreeMap::from([
        ("data.synth_generate_ms", first_ms("data.synth_generate")),
        ("data.split_ms", first_ms("data.split")),
        ("sparse.coo_to_csr_ms", first_ms("sparse.coo_to_csr")),
        ("sparse.transpose_ms", first_ms("sparse.transpose")),
        ("core.engine_new_ms", p50_ms("core.engine_new")),
        ("core.sweep_ms_p50", sweep_ms),
        ("core.rmse_eval_ms", p50_ms("core.rmse_eval")),
        ("core.sweeps_to_target", last.sweeps as f64),
        ("core.final_rmse", last.final_rmse),
        ("gpu_sim.predicted_sweep_ms", last.predicted_sweep_s * 1e3),
        (
            "gpu_sim.predicted_over_measured",
            last.predicted_sweep_s * 1e3 / sweep_ms,
        ),
    ]);
    // Exporter keys are read by name: one the repository no longer exports
    // leaves its metric absent.
    let exported_keys = [
        (
            "core.assembly_us_per_row_p50",
            "train_assembly_p50_ns",
            1e-3,
        ),
        ("core.solve_us_per_row_p50", "train_solve_p50_ns", 1e-3),
        ("core.rows_solved", "train_rows_solved", 1.0),
    ];
    for (name, key, scale) in exported_keys {
        if let Some(v) = exported.num(key) {
            out.insert(name, v * scale);
        }
    }
    if let Some(share) = assembly_share(&exported) {
        out.insert("core.assembly_share", share);
    }
    let untraced_ops_per_s = untraced_twin.then(|| {
        let started = Instant::now();
        for _ in 0..ops {
            setup.run_op(&mut Tracer::new(false), 0, None);
        }
        f64::from(ops) / started.elapsed().as_secs_f64()
    });
    Traced {
        metrics: out,
        attempted: u64::from(ops),
        failed,
        ops_per_s,
        untraced_ops_per_s,
        tracer: tr,
    }
}
