//! # com-bench
//!
//! The experiment harness that regenerates **every table and figure** of
//! the paper's evaluation (Section V):
//!
//! | Paper artefact | Harness entry point |
//! |---|---|
//! | Table V (RDC10+RYC10) | [`experiments::tables::table5`] |
//! | Table VI (RDC11+RYC11) | [`experiments::tables::table6`] |
//! | Table VII (RDX11+RYX11) | [`experiments::tables::table7`] |
//! | Fig. 5(a)–(d) (sweep over `\|R\|`) | [`experiments::figures::sweep_requests`] |
//! | Fig. 5(e)–(h) (sweep over `\|W\|`) | [`experiments::figures::sweep_workers`] |
//! | Fig. 5(i)–(l) (sweep over `rad`) | [`experiments::figures::sweep_radius`] |
//! | Competitive ratios (Thms. 1–2) | [`experiments::cr::run_cr_study`] |
//! | Design ablations (§III-D) | [`experiments::ablation`] |
//!
//! Run `cargo run -p com-bench --release --bin repro -- all` to regenerate
//! everything (add `--quick` for a minutes-scale smoke pass, `--threads N`
//! to fan the grid across workers). Every entry point takes the
//! [`runner::SweepRunner`] it fans out on; timings at Table III scale
//! come from the repo benchmark (`benchmark/run.sh`).
//!
//! The [`runner`] module is the scaling substrate: a deterministic
//! parallel sweep runner whose results are bit-identical to serial
//! execution regardless of thread count.

pub mod experiments;
pub mod runner;
