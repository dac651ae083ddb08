//! Out-of-core execution (§4.4 of the paper).
//!
//! When `R` (and even the factor matrices) exceed device — or host — memory,
//! cuMF streams partitions in batches, using separate CPU threads to preload
//! from disk to host memory and separate CUDA streams to preload from host
//! to device memory.  "By this proactive and asynchronous data loading, we
//! manage to handle out-of-core problems with close-to-zero data loading
//! time except for the first load."
//!
//! This module prices that pipeline ([`pipeline_time`]): with double
//! buffering, each batch's transfer hides behind the previous batch's
//! compute, and only the first load is exposed.

/// One batch of out-of-core work: how long its data takes to transfer and
/// how long its compute takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCost {
    /// Seconds to move the batch's data to the device.
    pub transfer_s: f64,
    /// Seconds of kernel time once the data is resident.
    pub compute_s: f64,
}

/// Total time of a sequence of batches.
///
/// Without prefetch, transfers and compute serialize.  With prefetch
/// (double buffering), batch `i + 1`'s transfer overlaps batch `i`'s
/// compute: only the first transfer is fully exposed, matching the paper's
/// "close-to-zero data loading time except for the first load".
pub fn pipeline_time(batches: &[BatchCost], prefetch: bool) -> f64 {
    if batches.is_empty() {
        return 0.0;
    }
    if !prefetch {
        return batches.iter().map(|b| b.transfer_s + b.compute_s).sum();
    }
    let mut total = batches[0].transfer_s;
    for i in 0..batches.len() {
        let next_transfer = batches.get(i + 1).map(|b| b.transfer_s).unwrap_or(0.0);
        total += batches[i].compute_s.max(next_transfer);
    }
    total
}

/// Fraction of total transfer time hidden behind compute by the prefetching
/// pipeline (0.0 = nothing hidden, 1.0 = everything but the first load).
pub fn hidden_transfer_fraction(batches: &[BatchCost]) -> f64 {
    let total_transfer: f64 = batches.iter().map(|b| b.transfer_s).sum();
    if total_transfer == 0.0 {
        return 1.0;
    }
    let serial = pipeline_time(batches, false);
    let pipelined = pipeline_time(batches, true);
    ((serial - pipelined) / total_transfer).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_time_is_the_sum() {
        let batches = vec![
            BatchCost {
                transfer_s: 1.0,
                compute_s: 2.0,
            },
            BatchCost {
                transfer_s: 1.0,
                compute_s: 2.0,
            },
        ];
        assert_eq!(pipeline_time(&batches, false), 6.0);
    }

    #[test]
    fn prefetch_hides_all_but_the_first_transfer_when_compute_dominates() {
        let batches = vec![
            BatchCost {
                transfer_s: 0.5,
                compute_s: 2.0
            };
            4
        ];
        // 0.5 (first load) + 4 × 2.0 = 8.5
        assert_eq!(pipeline_time(&batches, true), 8.5);
        assert!((hidden_transfer_fraction(&batches) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn prefetch_cannot_hide_transfers_longer_than_compute() {
        let batches = vec![
            BatchCost {
                transfer_s: 3.0,
                compute_s: 1.0
            };
            3
        ];
        // 3 + max(1,3) + max(1,3) + 1 = 10
        assert_eq!(pipeline_time(&batches, true), 10.0);
        assert!(pipeline_time(&batches, true) < pipeline_time(&batches, false));
    }

    #[test]
    fn empty_and_single_batch_edge_cases() {
        assert_eq!(pipeline_time(&[], true), 0.0);
        let one = [BatchCost {
            transfer_s: 1.0,
            compute_s: 2.0,
        }];
        assert_eq!(pipeline_time(&one, true), 3.0);
        assert_eq!(pipeline_time(&one, false), 3.0);
        assert_eq!(hidden_transfer_fraction(&[]), 1.0);
    }
}
