//! Monetary cost of a run and the speed/cost comparison of Table 1.
//!
//! The paper prices every system the same way: "(price per node per hr) ×
//! (#nodes) × (execution time)".  CuMF's headline claim — 6–10× as fast and
//! 33–100× as cost-efficient as the distributed CPU systems — follows
//! directly from that formula once per-iteration times are known.

/// Cost in dollars of running `n_nodes` nodes for `seconds`.
pub(crate) fn cost_of_run(price_per_node_hour: f64, n_nodes: usize, seconds: f64) -> f64 {
    price_per_node_hour * n_nodes as f64 * (seconds / 3600.0)
}

/// One comparison row of Table 1: a baseline system versus cuMF on the same
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub struct CostComparison {
    /// Baseline name (e.g. "NOMAD", "SparkALS", "Factorbird").
    pub baseline_name: String,
    /// Baseline node type name.
    pub baseline_node: String,
    /// Number of baseline nodes.
    pub baseline_nodes: usize,
    /// Baseline price per node per hour, dollars.
    pub baseline_price_per_hour: f64,
    /// Baseline time for the workload, seconds.
    pub baseline_seconds: f64,
    /// cuMF price per hour for its single machine, dollars.
    pub cumf_price_per_hour: f64,
    /// cuMF time for the same workload, seconds.
    pub cumf_seconds: f64,
}

impl CostComparison {
    /// How many times faster cuMF is ("cuMF speed" column of Table 1).
    pub fn speedup(&self) -> f64 {
        self.baseline_seconds / self.cumf_seconds
    }

    /// Baseline cost of the workload in dollars.
    pub fn baseline_cost(&self) -> f64 {
        cost_of_run(
            self.baseline_price_per_hour,
            self.baseline_nodes,
            self.baseline_seconds,
        )
    }

    /// cuMF cost of the workload in dollars.
    pub fn cumf_cost(&self) -> f64 {
        cost_of_run(self.cumf_price_per_hour, 1, self.cumf_seconds)
    }

    /// cuMF's cost as a fraction of the baseline's ("cuMF cost" column of
    /// Table 1, e.g. 0.03 = 3 %).
    pub fn cost_fraction(&self) -> f64 {
        self.cumf_cost() / self.baseline_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_of_run_is_price_times_nodes_times_hours() {
        assert!((cost_of_run(0.53, 50, 3600.0) - 26.5).abs() < 1e-9);
        assert!((cost_of_run(2.44, 1, 1800.0) - 1.22).abs() < 1e-9);
        assert_eq!(cost_of_run(1.0, 0, 3600.0), 0.0);
    }

    #[test]
    fn table1_shape_cumf_vs_sparkals() {
        // Paper's Table 1 row: SparkALS on 50×m3.2xlarge, cuMF 10× as fast,
        // ~1 % of the cost.  Using the published per-iteration times
        // (240 s vs 24 s), the formula reproduces exactly that row.
        let row = CostComparison {
            baseline_name: "SparkALS".into(),
            baseline_node: "m3.2xlarge".into(),
            baseline_nodes: 50,
            baseline_price_per_hour: 0.53,
            baseline_seconds: 240.0,
            cumf_price_per_hour: 2.44,
            cumf_seconds: 24.0,
        };
        assert!((row.speedup() - 10.0).abs() < 1e-9);
        let frac = row.cost_fraction();
        assert!(frac > 0.005 && frac < 0.02, "cost fraction {frac}");
        assert!(1.0 / frac > 50.0, "cost efficiency {}", 1.0 / frac);
    }

    #[test]
    fn table1_shape_cumf_vs_factorbird() {
        // Factorbird: 563 s vs 92 s → ~6× speed, ~2 % cost.
        let row = CostComparison {
            baseline_name: "Factorbird".into(),
            baseline_node: "c3.2xlarge".into(),
            baseline_nodes: 50,
            baseline_price_per_hour: 0.42,
            baseline_seconds: 563.0,
            cumf_price_per_hour: 2.44,
            cumf_seconds: 92.0,
        };
        assert!(row.speedup() > 5.0 && row.speedup() < 7.0);
        let frac = row.cost_fraction();
        assert!(frac > 0.01 && frac < 0.04, "cost fraction {frac}");
    }

    #[test]
    fn cheaper_baseline_hardware_reduces_the_advantage() {
        let expensive = CostComparison {
            baseline_name: "X".into(),
            baseline_node: "n".into(),
            baseline_nodes: 50,
            baseline_price_per_hour: 0.53,
            baseline_seconds: 240.0,
            cumf_price_per_hour: 2.44,
            cumf_seconds: 24.0,
        };
        let cheap = CostComparison {
            baseline_price_per_hour: 0.10,
            ..expensive.clone()
        };
        assert!(cheap.cost_fraction() > expensive.cost_fraction());
    }
}
