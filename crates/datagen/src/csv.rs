//! CSV import/export for workers, requests and histories.
//!
//! The adoption path for real trace data (e.g. an approved DiDi GAIA
//! download): express each platform's day as two CSV files and load them
//! into an [`Instance`]. The format is deliberately minimal — no quoting
//! or escaping, since every field is numeric — and implemented without an
//! external CSV crate (DESIGN.md §6).
//!
//! ```text
//! workers.csv:  id,platform,arrival_secs,x_km,y_km,radius_km,history
//!               1,0,3600,12.5,8.25,1.0,14.2|9.0|22.5
//! requests.csv: id,platform,arrival_secs,x_km,y_km,value
//!               1,0,28800,14.0,9.1,18.5
//! ```
//!
//! The `history` column is a `|`-separated list of past per-job payments
//! (Definition 3.1's completed-request values); it may be empty.

use std::collections::HashMap;
use std::fmt::Write as _;

use com_geo::Point;
use com_pricing::WorkerHistory;
use com_sim::{
    EventStream, Instance, PlatformId, RequestId, RequestSpec, Timestamp, WorkerId, WorkerSpec,
    WorldConfig,
};

/// Parse error with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    pub(crate) line: usize,
    pub(crate) message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

fn err(line: usize, message: impl Into<String>) -> CsvError {
    CsvError {
        line,
        message: message.into(),
    }
}

fn parse<T: std::str::FromStr>(line: usize, field: &str, what: &str) -> Result<T, CsvError> {
    field
        .trim()
        .parse()
        .map_err(|_| err(line, format!("invalid {what}: {field:?}")))
}

/// What a float field must hold beyond parsing: the rules a live session
/// applies to a decoded event (`malformed` in `com-core`'s session), and a
/// non-negative arrival — the world's clock starts at zero, so an earlier
/// event would be a time rewind.
#[derive(Clone, Copy)]
enum Range {
    Finite,
    NonNegative,
    Positive,
}

fn number(line: usize, field: &str, what: &str, range: Range) -> Result<f64, CsvError> {
    let v: f64 = parse(line, field, what)?;
    let (ok, rule) = match range {
        Range::Finite => (v.is_finite(), "finite"),
        Range::NonNegative => (v.is_finite() && v >= 0.0, "finite and non-negative"),
        Range::Positive => (v.is_finite() && v > 0.0, "finite and positive"),
    };
    if ok {
        Ok(v)
    } else {
        Err(err(line, format!("{what} must be {rule}: {field:?}")))
    }
}

/// A platform id within the `platforms`-long roster.
fn platform(line: usize, field: &str, platforms: u16) -> Result<PlatformId, CsvError> {
    let p: u16 = parse(line, field, "platform")?;
    if p >= platforms {
        return Err(err(line, format!("unknown platform {p}")));
    }
    Ok(PlatformId(p))
}

/// Parse a workers CSV (header optional) over `platforms` platforms.
/// Returns specs plus histories.
fn parse_workers(
    text: &str,
    platforms: u16,
) -> Result<(Vec<WorkerSpec>, HashMap<WorkerId, WorkerHistory>), CsvError> {
    let mut specs = Vec::new();
    let mut histories = HashMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || (i == 0 && line.starts_with("id,")) {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 7 {
            return Err(err(
                line_no,
                format!("expected 7 fields, got {}", fields.len()),
            ));
        }
        let id = WorkerId(parse(line_no, fields[0], "worker id")?);
        let platform = platform(line_no, fields[1], platforms)?;
        let arrival =
            Timestamp::from_secs(number(line_no, fields[2], "arrival", Range::NonNegative)?);
        let x = number(line_no, fields[3], "x", Range::Finite)?;
        let y = number(line_no, fields[4], "y", Range::Finite)?;
        let radius = number(line_no, fields[5], "radius", Range::Positive)?;
        let history_field = fields[6].trim();
        let values: Vec<f64> = if history_field.is_empty() {
            Vec::new()
        } else {
            history_field
                .split('|')
                .map(|v| number(line_no, v, "history value", Range::NonNegative))
                .collect::<Result<_, _>>()?
        };
        if histories
            .insert(id, WorkerHistory::from_values(values))
            .is_some()
        {
            return Err(err(line_no, format!("duplicate worker id {id}")));
        }
        specs.push(WorkerSpec::new(
            id,
            platform,
            arrival,
            Point::new(x, y),
            radius,
        ));
    }
    Ok((specs, histories))
}

/// Parse a requests CSV (header optional) over `platforms` platforms.
fn parse_requests(text: &str, platforms: u16) -> Result<Vec<RequestSpec>, CsvError> {
    let mut specs = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || (i == 0 && line.starts_with("id,")) {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 6 {
            return Err(err(
                line_no,
                format!("expected 6 fields, got {}", fields.len()),
            ));
        }
        let id = RequestId(parse(line_no, fields[0], "request id")?);
        if !seen.insert(id) {
            return Err(err(line_no, format!("duplicate request id {id}")));
        }
        let platform = platform(line_no, fields[1], platforms)?;
        let arrival =
            Timestamp::from_secs(number(line_no, fields[2], "arrival", Range::NonNegative)?);
        let x = number(line_no, fields[3], "x", Range::Finite)?;
        let y = number(line_no, fields[4], "y", Range::Finite)?;
        let value = number(line_no, fields[5], "value", Range::Positive)?;
        specs.push(RequestSpec::new(
            id,
            platform,
            arrival,
            Point::new(x, y),
            value,
        ));
    }
    Ok(specs)
}

/// Assemble an [`Instance`] from parsed CSVs. `platform_names` must cover
/// every platform id referenced by the data.
pub fn instance_from_csv(
    workers_csv: &str,
    requests_csv: &str,
    platform_names: Vec<String>,
    config: WorldConfig,
) -> Result<Instance, CsvError> {
    let platforms = u16::try_from(platform_names.len()).unwrap_or(u16::MAX);
    let (workers, histories) = parse_workers(workers_csv, platforms)?;
    let requests = parse_requests(requests_csv, platforms)?;
    Ok(Instance {
        config,
        platform_names,
        histories,
        stream: EventStream::from_specs(workers, requests),
    })
}

/// Serialise an instance's workers to CSV (with header).
pub fn workers_to_csv(instance: &Instance) -> String {
    let mut out = String::from("id,platform,arrival_secs,x_km,y_km,radius_km,history\n");
    for w in instance.stream.workers() {
        let history = instance
            .histories
            .get(&w.id)
            .map(|h| {
                h.values()
                    .iter()
                    .map(|v| format!("{v}"))
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{history}",
            w.id.as_u64(),
            w.platform.0,
            w.arrival.as_secs(),
            w.location.x,
            w.location.y,
            w.radius,
        );
    }
    out
}

/// Serialise an instance's requests to CSV (with header).
pub fn requests_to_csv(instance: &Instance) -> String {
    let mut out = String::from("id,platform,arrival_secs,x_km,y_km,value\n");
    for r in instance.stream.requests() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            r.id.as_u64(),
            r.platform.0,
            r.arrival.as_secs(),
            r.location.x,
            r.location.y,
            r.value,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::profiles::{synthetic, SyntheticParams};

    #[test]
    fn parses_minimal_files() {
        let workers = "id,platform,arrival_secs,x_km,y_km,radius_km,history\n\
                       1,0,0,5.0,5.0,1.0,3.5|7.0\n\
                       2,1,60,6.0,5.0,1.5,\n";
        let requests = "id,platform,arrival_secs,x_km,y_km,value\n\
                        1,0,120,5.2,5.0,12.5\n";
        let inst = instance_from_csv(
            workers,
            requests,
            vec!["A".into(), "B".into()],
            WorldConfig::city(10.0),
        )
        .unwrap();
        assert_eq!(inst.worker_count(), 2);
        assert_eq!(inst.request_count(), 1);
        assert_eq!(inst.histories[&WorkerId(1)].values(), &[3.5, 7.0]);
        assert!(inst.histories[&WorkerId(2)].is_empty());
    }

    #[test]
    fn roundtrip_through_csv() {
        let original = generate(&synthetic(SyntheticParams {
            n_requests: 60,
            n_workers: 20,
            seed: 77,
            ..Default::default()
        }));
        let wcsv = workers_to_csv(&original);
        let rcsv = requests_to_csv(&original);
        let rebuilt = instance_from_csv(
            &wcsv,
            &rcsv,
            original.platform_names.clone(),
            original.config.clone(),
        )
        .unwrap();
        assert_eq!(rebuilt.stream, original.stream);
        for (id, h) in &original.histories {
            assert_eq!(&rebuilt.histories[id], h);
        }
    }

    #[test]
    fn reports_field_count_errors_with_line_numbers() {
        let bad = "1,0,0,5.0,5.0\n";
        let e = parse_requests(bad, 1).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expected 6 fields"));
    }

    #[test]
    fn reports_bad_numbers() {
        let bad = "id,platform,arrival_secs,x_km,y_km,value\n1,0,noon,5.0,5.0,9.0\n";
        let e = parse_requests(bad, 1).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("invalid arrival"));
    }

    #[test]
    fn rejects_duplicate_ids() {
        let dup = "1,0,0,5.0,5.0,1.0,\n1,0,9,6.0,5.0,1.0,\n";
        let e = parse_workers(dup, 1).unwrap_err();
        assert!(e.message.contains("duplicate worker id"));
    }

    #[test]
    fn rejects_unknown_platforms() {
        let workers = "1,5,0,5.0,5.0,1.0,\n";
        let e =
            instance_from_csv(workers, "", vec!["A".into()], WorldConfig::city(10.0)).unwrap_err();
        assert!(e.message.contains("unknown platform"));
    }

    #[test]
    fn blank_lines_and_headers_are_skipped() {
        let workers =
            "id,platform,arrival_secs,x_km,y_km,radius_km,history\n\n1,0,0,5.0,5.0,1.0,2.0\n\n";
        let (specs, _) = parse_workers(workers, 1).unwrap();
        assert_eq!(specs.len(), 1);
    }
}
