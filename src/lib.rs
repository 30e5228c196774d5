//! # ambipla — programmable logic circuits based on ambipolar CNFETs
//!
//! Facade crate for the reproduction of *Ben Jamaa, Atienza, Leblebici, De
//! Micheli, "Programmable Logic Circuits Based on Ambipolar CNFET", DAC
//! 2008*. It re-exports the workspace's subsystems under one roof:
//!
//! * [`device`] — ambipolar CNFET device model and programming matrix,
//! * [`logic`] — two-level logic: cubes, covers, ESPRESSO, `.pla` I/O,
//! * [`benchmarks`] — MCNC-style benchmark functions and workload generators,
//! * [`core`] — GNOR gates, GNOR-PLA / WPLA architecture, crossbar
//!   interconnect, area model (the paper's contribution),
//! * [`phase`] — output/product-term phase optimization and
//!   Doppio-Espresso WPLA synthesis,
//! * [`fpga`] — island-style FPGA model used for the Table 2 emulation,
//! * [`fault`] — defect injection, repair and yield analysis (with
//!   deterministic parallel Monte-Carlo),
//! * [`serve`] — the request-batching simulation service: lane-packing
//!   batchers sharded across threads, a materialized truth-table tier,
//!   worker-pool bulk sweeps,
//! * [`net`] — the multi-tenant TCP front end over [`serve`]:
//!   length-prefixed wire protocol, per-tenant token-bucket quotas,
//!   deficit-round-robin fair queueing,
//! * [`obs`] — the observability layer: structured-event ring buffer,
//!   [`Recorder`](obs::Recorder) sink trait, Prometheus-text and JSON
//!   metric exporters (per-registration serve metrics plug in via
//!   `serve::metric_families`).
//!
//! ## Quickstart
//!
//! ```
//! use ambipla::core::{GnorPla, Simulator, Technology};
//! use ambipla::logic::Cover;
//!
//! // A full adder: sum and carry from a, b, cin.
//! let f = Cover::parse(
//!     "110 01\n101 01\n011 01\n111 01\n\
//!      100 10\n010 10\n001 10\n111 10",
//!     3,
//!     2,
//! )
//! .unwrap();
//! let pla = GnorPla::from_cover(&f);
//! assert_eq!(pla.simulate_bits(0b011), vec![false, true]); // a+b = 10
//! let area = Technology::CnfetGnor.pla_area(pla.dimensions());
//! assert!(area > 0.0);
//! ```

pub use ambipla_core as core;
pub use ambipla_net as net;
pub use ambipla_obs as obs;
pub use ambipla_serve as serve;
pub use cnfet as device;
pub use fault;
pub use fpga;
pub use logic;
pub use mcnc as benchmarks;
pub use phaseopt as phase;
