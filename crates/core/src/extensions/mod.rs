//! Extensions sketched in the paper's §2.2 "Discussion and Future
//! Extensions": beyond-accuracy metrics via McDiarmid sensitivity
//! analysis, and concept-drift monitoring as the dual of CI.

mod drift;
mod f1;

pub use drift::{DriftMonitor, DriftReport, DriftVerdict};
pub use f1::{f1_sample_size, f1_score, F1Sensitivity};
