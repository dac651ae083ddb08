//! The measured phase: time-boxed rounds of ops, and the end-to-end
//! metrics derived from them.
//!
//! Every metric except `setup_s` and `peak_rss_mb` is the median over the
//! rounds of the per-round value, so a disturbance shorter than half the
//! run does not move it.

use crate::stats::{median, monotone_trend, percentile, process_cpu_s};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How long the measured phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// `rounds` rounds, each ending with the first op that finishes after
    /// `round` has passed.
    Timed { rounds: usize, round: Duration },
    /// One round of exactly `ops` ops (traced passes and the thread-count
    /// comparison, where counts must repeat).
    Ops(usize),
}

#[derive(Debug, Clone, Default)]
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub ops: u64,
    pub failed: u64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// Wall time of every op in ms, kept only when percentiles are pooled
    /// over the rounds.
    pub op_ms: Vec<f32>,
}

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }
}

/// Where `op_ms_p50` and `op_ms_tail` come from.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// The tail percentile (0.99 on `serve_*`, 0.75 on `train_*`).
    pub tail: f64,
    /// Pool the ops of all rounds before taking percentiles (`train_*`,
    /// whose rounds hold only a handful of ops each).
    pub pooled: bool,
}

fn percentile_ms(op_ms: &[f32], p: f64) -> f64 {
    percentile(
        &op_ms.iter().map(|&ms| f64::from(ms)).collect::<Vec<_>>(),
        p,
    )
}

/// The load generator of one workload.
pub trait Ops {
    /// Performs one op and says whether it succeeded.  Only this call is
    /// timed as the op's latency.
    fn op(&mut self) -> bool;

    /// Runs between ops, inside the round's wall and CPU time but outside
    /// any op's latency (the write side of `serve_online`).
    fn after_op(&mut self) {}
}

/// Runs the rounds of the measured phase.
///
/// Per-op times live in one buffer reused by every round, so the memory
/// the harness itself touches does not grow with the number of rounds and
/// `peak_rss_mb` stays a property of the system measured.
pub fn run_rounds(budget: Budget, latency: Latency, load: &mut impl Ops) -> Vec<Round> {
    let (rounds, round_len, op_cap) = match budget {
        Budget::Timed { rounds, round } => (rounds, round, u64::MAX),
        Budget::Ops(ops) => (1, Duration::MAX, ops as u64),
    };
    let mut op_ms: Vec<f32> = Vec::new();
    (0..rounds)
        .map(|_| {
            op_ms.clear();
            let mut failed = 0;
            let cpu0 = process_cpu_s();
            let start = Instant::now();
            while start.elapsed() < round_len && (op_ms.len() as u64) < op_cap {
                let t = Instant::now();
                let ok = load.op();
                op_ms.push((t.elapsed().as_secs_f64() * 1e3) as f32);
                failed += u64::from(!ok);
                load.after_op();
            }
            let wall_s = start.elapsed().as_secs_f64();
            Round {
                wall_s,
                cpu_s: process_cpu_s() - cpu0,
                ops: op_ms.len() as u64,
                failed,
                p50_ms: percentile_ms(&op_ms, 0.5),
                tail_ms: percentile_ms(&op_ms, latency.tail),
                op_ms: if latency.pooled {
                    op_ms.clone()
                } else {
                    Vec::new()
                },
            }
        })
        .collect()
}

/// The round-derived end-to-end metrics, by name.
pub fn summarize(rounds: &[Round], latency: Latency) -> BTreeMap<&'static str, f64> {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let (p50, tail) = if latency.pooled {
        let pooled: Vec<f32> = rounds
            .iter()
            .flat_map(|r| r.op_ms.iter().copied())
            .collect();
        (
            percentile_ms(&pooled, 0.5),
            percentile_ms(&pooled, latency.tail),
        )
    } else {
        (per_round(&|r| r.p50_ms), per_round(&|r| r.tail_ms))
    };
    BTreeMap::from([
        ("ops_per_s", per_round(&Round::ops_per_s)),
        ("op_ms_p50", p50),
        ("op_ms_tail", tail),
        (
            "cpu_ms_per_op",
            per_round(&|r| r.cpu_s * 1e3 / r.ops as f64),
        ),
    ])
}

/// The stationarity check over per-round throughput: the monotone trend as
/// a share of the median, when there is one.
pub fn throughput_trend(rounds: &[Round]) -> Option<f64> {
    monotone_trend(&rounds.iter().map(Round::ops_per_s).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    const P75: Latency = Latency {
        tail: 0.75,
        pooled: false,
    };

    fn round(wall_s: f64, cpu_s: f64, op_ms: &[f32]) -> Round {
        Round {
            wall_s,
            cpu_s,
            ops: op_ms.len() as u64,
            failed: 0,
            p50_ms: percentile_ms(op_ms, 0.5),
            tail_ms: percentile_ms(op_ms, 0.75),
            op_ms: op_ms.to_vec(),
        }
    }

    #[test]
    fn per_round_medians_shrug_off_one_disturbed_round() {
        let mut rounds = vec![round(1.0, 0.5, &[1.0, 2.0, 3.0, 4.0]); 4];
        rounds.push(round(4.0, 3.0, &[10.0, 20.0, 30.0, 40.0]));
        let s = summarize(&rounds, P75);
        assert_eq!(s["ops_per_s"], 4.0);
        assert_eq!(s["op_ms_p50"], 2.0);
        assert_eq!(s["op_ms_tail"], 3.0);
        assert_eq!(s["cpu_ms_per_op"], 125.0);
    }

    #[test]
    fn pooled_percentiles_span_all_rounds() {
        let rounds = vec![round(1.0, 1.0, &[1.0, 2.0]), round(1.0, 1.0, &[3.0, 4.0])];
        let s = summarize(
            &rounds,
            Latency {
                tail: 0.75,
                pooled: true,
            },
        );
        assert_eq!(s["op_ms_p50"], 2.0);
        assert_eq!(s["op_ms_tail"], 3.0);
    }

    #[derive(Default)]
    struct Sleepy {
        calls: u32,
        between: u32,
    }

    impl Ops for Sleepy {
        fn op(&mut self) -> bool {
            self.calls += 1;
            std::thread::sleep(Duration::from_millis(2));
            self.calls.is_multiple_of(2)
        }
        fn after_op(&mut self) {
            self.between += 1;
        }
    }

    #[test]
    fn timed_rounds_finish_the_op_in_flight_and_count_failures() {
        let mut load = Sleepy::default();
        let budget = Budget::Timed {
            rounds: 2,
            round: Duration::from_millis(5),
        };
        let rounds = run_rounds(budget, P75, &mut load);
        assert_eq!(rounds.len(), 2);
        assert_eq!(load.calls, load.between);
        for r in &rounds {
            assert!(r.ops >= 2 && r.wall_s >= 0.005 && r.p50_ms >= 2.0);
            assert!(r.failed >= 1);
            assert!(r.op_ms.is_empty(), "unpooled rounds drop the raw samples");
        }
    }

    #[test]
    fn op_budget_runs_exactly_that_many_ops() {
        let rounds = run_rounds(Budget::Ops(7), P75, &mut Sleepy::default());
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].ops, 7);
        assert_eq!(throughput_trend(&rounds), None);
    }
}
