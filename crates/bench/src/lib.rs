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
//!
//! The reporting substrate (§V-A's metrics) lives here too, free of
//! simulator types so the harness can adapt whatever it measures:
//! [`Table`] renders result tables in the shape of Tables V–VII,
//! [`SweepSeries`] holds Fig. 5-shaped sweeps, [`sparkline_row`] draws a
//! series in the terminal, and [`CountingAllocator`] counts heap bytes
//! for the memory-cost column.

pub mod experiments;
mod memory;
pub mod runner;
mod series;
mod spark;
mod table;

pub use memory::CountingAllocator;
pub use series::SweepSeries;
pub use spark::sparkline_row;
pub use table::Table;

/// Format a byte count as mebibytes with two decimals (the unit of the
/// paper's memory column).
pub(crate) fn fmt_mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Format a revenue in units of 10⁶ ¥ with three decimals (the unit of
/// the paper's revenue columns).
pub(crate) fn fmt_mega(revenue: f64) -> String {
    format!("{:.3}", revenue / 1.0e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_formatting() {
        assert_eq!(fmt_mib(13 * 1024 * 1024 + 512 * 1024), "13.50");
        assert_eq!(fmt_mega(1_752_000.0), "1.752");
        assert_eq!(fmt_mega(0.0), "0.000");
    }
}
