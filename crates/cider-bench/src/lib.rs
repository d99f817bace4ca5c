//! Benchmark harness reproducing the evaluation of *"Cider: Native
//! Execution of iOS Apps on Android"* (ASPLOS 2014).
//!
//! * [`config`] — the four measurement configurations (§6) as bootable
//!   test beds;
//! * [`lmbench`] — the lmbench 3.0 microbenchmarks (Figure 5);
//! * [`fig5`] / [`fig6`] — full-figure runners producing normalized
//!   tables;
//! * [`apps`] — the app-framework scenario table (launch, jetsam
//!   round trip, realtime audio) built on `cider-frameworks`;
//! * [`ablations`] — shared-cache, diplomat-aggregation, fence-bug, and
//!   duct-tape-overhead experiments;
//! * [`dispatch`] — the virtual-time trap, IPC v2 and launch-storm
//!   costs of `BENCH_dispatch.json`;
//! * [`report`] — the normalized-table formatter.
//!
//! The `cider-report` binary prints every table; the Criterion benches
//! under `benches/` measure the same operations in host time.

pub mod ablations;
pub mod apps;
pub mod config;
pub mod dispatch;
pub mod fig5;
pub mod fig6;
pub mod lmbench;
pub mod report;

pub use config::{SystemConfig, TestBed};
pub use report::{Table, TableRow};
