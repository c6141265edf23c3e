//! Terminal sparklines — compact series rendering for the harness output.

/// The eight block glyphs from lowest to highest.
const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render a numeric series as a unicode sparkline. Values are scaled to
/// the series' own min/max; a constant series renders mid-height; empty
/// input renders an empty string. Non-finite values render as spaces.
pub(crate) fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return " ".repeat(values.len());
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                ' '
            } else if span <= 0.0 {
                BLOCKS[3]
            } else {
                let idx = ((v - min) / span * 7.0).round() as usize;
                BLOCKS[idx.min(7)]
            }
        })
        .collect()
}

/// Render a labelled sparkline row: `label  ▁▃▅█  min..max`.
pub fn sparkline_row(label: &str, values: &[f64]) -> String {
    if values.is_empty() {
        return format!("{label:<12} (no data)");
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{label:<12} {}  [{min:.1} .. {max:.1}]", sparkline(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_constant_series() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▄▄▄");
    }

    #[test]
    fn monotone_series_uses_full_range() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(s, "▁▂▃▄▅▆▇█");
    }

    #[test]
    fn extremes_map_to_extreme_blocks() {
        let s: Vec<char> = sparkline(&[0.0, 10.0, 0.0]).chars().collect();
        assert_eq!(s[0], '▁');
        assert_eq!(s[1], '█');
        assert_eq!(s[2], '▁');
    }

    #[test]
    fn non_finite_values_render_as_spaces() {
        let s: Vec<char> = sparkline(&[1.0, f64::NAN, 2.0]).chars().collect();
        assert_eq!(s[1], ' ');
    }

    #[test]
    fn labelled_row() {
        let row = sparkline_row("revenue", &[1.0, 2.0]);
        assert!(row.starts_with("revenue"));
        assert!(row.contains("[1.0 .. 2.0]"));
        assert!(sparkline_row("x", &[]).contains("no data"));
    }
}
