//! Experiment harness regenerating every table and figure of the paper.

#![forbid(unsafe_code)]

pub mod adapter;
pub mod experiments;
pub mod fuzzsweep;
pub mod runner;
pub mod schema;
pub mod serving;
pub mod verifysweep;

pub use adapter::SystemHost;
pub use runner::{
    config, config_fingerprint, fan_out, geomean, run_workload, Protection, Target, WorkloadRun,
};
