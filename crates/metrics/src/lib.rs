//! # com-metrics
//!
//! Reporting substrate for the COM experiments: result tables in the
//! shape of the paper's Tables V–VII, sweep series in the shape of
//! Fig. 5, and a byte-counting global allocator for the memory-cost
//! metric.
//!
//! This crate is deliberately free of simulator dependencies — it
//! formats and aggregates plain numbers, so the experiment harness can
//! adapt whatever it measures.

mod memory;
mod series;
mod spark;
mod table;

pub use memory::CountingAllocator;
pub use series::SweepSeries;
pub use spark::sparkline_row;
pub use table::Table;

/// Format a byte count as mebibytes with two decimals (the unit of the
/// paper's memory column).
pub fn fmt_mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Format a revenue in units of 10⁶ ¥ with three decimals (the unit of
/// the paper's revenue columns).
pub fn fmt_mega(revenue: f64) -> String {
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
