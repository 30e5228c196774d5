//! Defect injection, fault-tolerant mapping and yield analysis for GNOR
//! PLAs.
//!
//! The paper's Section 5 closes with the observation that "a fault-tolerant
//! design approach for PLAs [Schmid & Leblebici] makes use of the regular
//! architecture and is expected to improve the yield of the unreliable
//! devices making up the PLA". This crate implements and measures that
//! claim on the GNOR PLA:
//!
//! * [`defect`] — stuck-off / stuck-on crosspoint defects and seeded
//!   Bernoulli defect maps,
//! * [`inject`] — fault simulation of a defective GNOR PLA (what the array
//!   actually computes given its defect map),
//! * [`mod@repair`] — spare-row repair: product terms are re-assigned to
//!   defect-compatible physical rows by bipartite matching, exploiting the
//!   array's regularity (any cube can live on any row),
//! * [`yield_analysis`] — Monte-Carlo yield curves with and without
//!   repair, sequential or sharded bit-identically across a deterministic
//!   worker pool (`ambipla_core::WorkerPool`).

pub mod bist;
pub mod column_repair;
pub mod defect;
pub mod inject;
pub mod repair;
pub mod testgen;
pub mod yield_analysis;

pub use bist::{bist_sequence, measure_coverage, BistCoverage};
pub use column_repair::{
    repair_with_columns, verify_column_repair, ColumnRepairOutcome, ColumnRepairedPla, RepairedView,
};
pub use defect::{DefectKind, DefectMap};
pub use inject::FaultyGnorPla;
pub use repair::{repair, RepairOutcome};
pub use testgen::{enumerate_faults, generate_tests, verify_tests, SingleFault, TestSet};
pub use yield_analysis::{
    yield_curve, yield_curve_biased, yield_curve_biased_parallel, yield_curve_parallel, YieldPoint,
};
