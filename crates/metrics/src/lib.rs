//! # lejit-metrics
//!
//! Evaluation metrics for the LeJIT reproduction, covering everything the
//! paper's figures report:
//!
//! * [`distance`] — Earth Mover's Distance (exact 1-D Wasserstein-1),
//!   Jensen–Shannon divergence over histograms, MAE/RMSE — Fig. 4 (left)
//!   and Fig. 5,
//! * [`timeseries`] — percentiles (p99 error) and autocorrelation
//!   similarity — Fig. 4 (left),
//! * [`burst`] — burst detection and the downstream burst-analysis
//!   accuracies (count / duration / volume / position) — Fig. 4 (right),
//! * [`violations`] — rule-violation accounting over model outputs —
//!   Fig. 3 (left) and Fig. 5's compliance column.

#![deny(clippy::disallowed_methods)]
#![warn(missing_docs)]

pub mod burst;
pub mod distance;
pub mod timeseries;
pub mod violations;

pub use burst::{burst_accuracy, detect_bursts, Burst, BurstAccuracy};
pub use distance::{emd, jsd, mae, rmse};
pub use timeseries::{autocorrelation, mean_acf_distance, p99_relative_error, percentile};
pub use violations::{violation_stats, ViolationStats};
