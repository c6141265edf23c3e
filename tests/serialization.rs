//! Serialisation round-trips: everything the harness persists must
//! survive — instances as CSV, assignments and configs as JSON.

use com::datagen::{instance_from_csv, requests_to_csv, workers_to_csv};
use com::prelude::*;

fn instance() -> Instance {
    generate(&synthetic(SyntheticParams {
        n_requests: 120,
        n_workers: 40,
        seed: 4242,
        ..Default::default()
    }))
}

#[test]
fn instance_csv_roundtrip_preserves_runs() {
    let original = instance();
    let rebuilt = instance_from_csv(
        &workers_to_csv(&original),
        &requests_to_csv(&original),
        original.platform_names.clone(),
        original.config.clone(),
    )
    .unwrap();
    let a = run_online(&original, &mut RamCom::default(), 5);
    let b = run_online(&rebuilt, &mut RamCom::default(), 5);
    assert_eq!(a.total_revenue(), b.total_revenue());
    let kinds_a: Vec<MatchKind> = a.assignments.iter().map(|x| x.kind).collect();
    let kinds_b: Vec<MatchKind> = b.assignments.iter().map(|x| x.kind).collect();
    assert_eq!(kinds_a, kinds_b);
}

/// Every field the engine would refuse as a live event (or as a time
/// rewind) is refused by the CSV loader first, naming the row's 1-based
/// line (the header is line 1).
#[test]
fn csv_rows_the_engine_would_refuse_are_errors_with_their_line() {
    const W: &str = "id,platform,arrival_secs,x_km,y_km,radius_km,history\n1,0,0,5.0,5.0,1.0,2.0\n";
    const R: &str = "id,platform,arrival_secs,x_km,y_km,value\n1,0,60,5.2,5.0,12.5\n";
    // (case, extra workers row, extra requests row): one row is bad, the
    // other empty
    let cases: &[(&str, &str, &str)] = &[
        ("request value NaN", "", "2,0,90,5.0,5.0,NaN"),
        ("request value inf", "", "2,0,90,5.0,5.0,inf"),
        ("request value zero", "", "2,0,90,5.0,5.0,0"),
        ("request value negative", "", "2,0,90,5.0,5.0,-3"),
        ("request arrival NaN", "", "2,0,NaN,5.0,5.0,9.0"),
        ("request arrival inf", "", "2,0,inf,5.0,5.0,9.0"),
        ("request arrival negative", "", "2,0,-60,5.0,5.0,9.0"),
        ("request x inf", "", "2,0,90,inf,5.0,9.0"),
        ("request y NaN", "", "2,0,90,5.0,NaN,9.0"),
        ("request platform unknown", "", "2,7,90,5.0,5.0,9.0"),
        ("worker radius NaN", "2,1,0,5.0,5.0,NaN,", ""),
        ("worker radius inf", "2,1,0,5.0,5.0,inf,", ""),
        ("worker radius zero", "2,1,0,5.0,5.0,0,", ""),
        ("worker radius negative", "2,1,0,5.0,5.0,-1,", ""),
        ("worker arrival NaN", "2,1,NaN,5.0,5.0,1.0,", ""),
        ("worker arrival inf", "2,1,inf,5.0,5.0,1.0,", ""),
        ("worker arrival negative", "2,1,-1,5.0,5.0,1.0,", ""),
        ("worker x NaN", "2,1,0,NaN,5.0,1.0,", ""),
        ("worker y inf", "2,1,0,5.0,-inf,1.0,", ""),
        ("worker history negative", "2,1,0,5.0,5.0,1.0,3.0|-1", ""),
        ("worker history NaN", "2,1,0,5.0,5.0,1.0,NaN", ""),
        ("worker history inf", "2,1,0,5.0,5.0,1.0,inf", ""),
        ("worker platform unknown", "2,7,0,5.0,5.0,1.0,", ""),
    ];
    for &(what, worker_row, request_row) in cases {
        let workers = format!("{W}{worker_row}\n");
        let requests = format!("{R}{request_row}\n");
        let result = instance_from_csv(
            &workers,
            &requests,
            vec!["A".into(), "B".into()],
            WorldConfig::city(10.0),
        );
        let e = result.err().unwrap_or_else(|| panic!("{what}: accepted"));
        assert!(e.to_string().starts_with("line 3: "), "{what}: {e}");
    }
}

#[test]
fn assignments_serialise_to_json() {
    let run = run_online(&instance(), &mut DemCom::default(), 1);
    let json = serde_json::to_string(&run.assignments).unwrap();
    let back: Vec<Assignment> = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), run.assignments.len());
    for (x, y) in run.assignments.iter().zip(&back) {
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.worker, y.worker);
        assert_eq!(x.outer_payment, y.outer_payment);
        assert_eq!(x.request.id, y.request.id);
    }
}

#[test]
fn scenario_config_json_roundtrip() {
    let config = chengdu_oct();
    let json = serde_json::to_string_pretty(&config).unwrap();
    let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, config);
    // And the round-tripped config generates the identical instance.
    assert_eq!(generate(&back).stream, generate(&config).stream);
}

#[test]
fn finite_shift_survives_both_serialisation_paths() {
    let mut config = synthetic(SyntheticParams {
        n_requests: 20,
        n_workers: 10,
        ..Default::default()
    });
    config.service = config.service.with_shift(6.0 * 3600.0);
    let json = serde_json::to_string(&config).unwrap();
    let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.service.shift_secs, 6.0 * 3600.0);

    // The world config a served `hello` carries.
    let world = generate(&config).config;
    let back: WorldConfig = serde_json::from_str(&serde_json::to_string(&world).unwrap()).unwrap();
    assert_eq!(back.service.shift_secs, 6.0 * 3600.0);
}

#[test]
fn unbounded_shift_is_omitted_from_json() {
    let config = synthetic(SyntheticParams::default());
    assert!(config.service.shift_secs.is_infinite());
    let json = serde_json::to_string(&config).unwrap();
    assert!(
        !json.contains("shift_secs"),
        "infinite shift must be omitted (JSON cannot express it)"
    );
    let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
    assert!(back.service.shift_secs.is_infinite());
}
