//! Latency/bandwidth model for simulated message transfer.

use std::time::Duration;

/// A simple alpha–beta network model: a message of `n` bytes becomes visible
/// to its receiver `latency + n * seconds_per_byte` after it is sent.
///
/// With `None` as the model, delivery is immediate (shared-memory speed) —
/// right for correctness tests. With a model, the mailbox holds messages
/// back until their arrival time, which is what lets the benchmark's
/// `dist_chembl` workload (`dist.{compute,both,comm}_frac`) and the
/// `distributed_scaling` example observe genuine compute/communication
/// overlap behaviour in process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetModel {
    /// Per-message latency (the MPI software + wire α term).
    pub latency: Duration,
    /// Transfer time per payload byte (1 / bandwidth, the β term).
    pub seconds_per_byte: f64,
}

impl NetModel {
    /// Model with the given α (latency) and bandwidth in bytes/second.
    pub fn new(latency: Duration, bandwidth_bytes_per_sec: f64) -> Self {
        assert!(bandwidth_bytes_per_sec > 0.0, "bandwidth must be positive");
        NetModel {
            latency,
            seconds_per_byte: 1.0 / bandwidth_bytes_per_sec,
        }
    }

    /// Transfer delay for an `n`-byte payload.
    pub fn delay(&self, n: usize) -> Duration {
        self.latency + Duration::from_secs_f64(self.seconds_per_byte * n as f64)
    }

    /// A model roughly shaped like a commodity cluster interconnect scaled
    /// for in-process testing: 20 µs latency, 1 GiB/s bandwidth.
    pub fn test_cluster() -> Self {
        NetModel::new(Duration::from_micros(20), 1024.0 * 1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_scales_with_size() {
        let net = NetModel::new(Duration::from_micros(10), 1_000_000.0);
        let small = net.delay(0);
        let big = net.delay(1_000_000);
        assert_eq!(small, Duration::from_micros(10));
        assert!(big >= Duration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = NetModel::new(Duration::ZERO, 0.0);
    }
}
