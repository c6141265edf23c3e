//! Matcher construction as a first-class API.
//!
//! Every entry point that turns an algorithm *name* into a runnable
//! matcher goes through here: [`MatcherSpec`] is the parsed form of CLI
//! strings like `"ramcom"` or `"route-aware:2.5"`, and it either builds a
//! fresh `Box<dyn OnlineMatcher>` or hands out a `Send + Sync`
//! [`MatcherFactory`] that mints one per run. Parsing is `Result`-based —
//! an unknown name is a [`SpecError`] listing the valid specs, never a
//! panic — and [`MatcherSpec::standard`] / [`MatcherSpec::all_builtin`]
//! enumerate what harness code (`simulate`, `repro`, the experiment
//! modules) can build, from one source of truth.
//!
//! Factories rather than matchers are what sweeps share because a
//! matcher is stateful across one replay (`begin`/`decide`) and must not
//! be shared between runs; a factory can be cloned into worker threads
//! and invoked once per (instance × seed) cell of a sweep.
//!
//! ```
//! use com_core::registry::MatcherSpec;
//!
//! // Fixed-name lookup…
//! let factory = MatcherSpec::parse("ramcom").unwrap().factory();
//! assert_eq!(factory().name(), "RamCOM");
//! // …and parameterised specs parse through the same call.
//! let capped = MatcherSpec::parse("route-aware:2.5").unwrap();
//! assert_eq!(capped.build().name(), "RouteAware");
//! // Unknown names are errors, not panics.
//! assert!(MatcherSpec::parse("simulated-annealing").is_err());
//! // The paper's presentation order, for experiment tables.
//! let names: Vec<&str> = MatcherSpec::standard().iter().map(|s| s.display_name()).collect();
//! assert_eq!(names, ["TOTA", "DemCOM", "RamCOM"]);
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::matcher::OnlineMatcher;
use crate::{DemCom, GreedyRt, RamCom, RouteAwareCom, TotaGreedy};

/// A `Send + Sync` factory minting a fresh matcher per run. Clone it into
/// as many worker threads as the sweep needs; every invocation returns an
/// independent, state-free-at-`begin` matcher.
pub type MatcherFactory = Arc<dyn Fn() -> Box<dyn OnlineMatcher> + Send + Sync>;

/// A parsed matcher specification: which built-in algorithm to construct,
/// with its parameters. This is the canonical, copyable description of a
/// matcher — experiments store `MatcherSpec`s, not matchers, and build
/// fresh instances per (cell, seed) job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatcherSpec {
    /// Single-platform greedy baseline (`"tota"`).
    Tota,
    /// Random-threshold baseline (`"greedy-rt"`).
    GreedyRt,
    /// Deterministic COM, Algorithm 1 (`"demcom"`).
    DemCom,
    /// Randomized COM, Algorithm 3 (`"ramcom"`).
    RamCom,
    /// DemCOM with a pickup-distance cap (`"route-aware:<cap-km>"`).
    RouteAware { pickup_cap_km: f64 },
}

impl MatcherSpec {
    /// Every accepted spec shape, for error messages and `--help` text.
    pub const TEMPLATES: [&'static str; 5] = [
        "tota",
        "greedy-rt",
        "demcom",
        "ramcom",
        "route-aware:<cap-km>",
    ];

    /// The paper's three headline algorithms in presentation order
    /// (every table and figure compares exactly these).
    pub fn standard() -> [MatcherSpec; 3] {
        [MatcherSpec::Tota, MatcherSpec::DemCom, MatcherSpec::RamCom]
    }

    /// One spec per built-in family — every algorithm this crate can
    /// construct, with a representative parameter where the family needs
    /// one. This is the fan-out set for whole-surface oracle tests: run
    /// each through the engine and assert the auditor stays silent.
    pub fn all_builtin() -> [MatcherSpec; 5] {
        [
            MatcherSpec::Tota,
            MatcherSpec::GreedyRt,
            MatcherSpec::DemCom,
            MatcherSpec::RamCom,
            MatcherSpec::RouteAware { pickup_cap_km: 2.5 },
        ]
    }

    /// Parse a spec string. Accepts canonical lowercase names
    /// (`"demcom"`), the display names used in reports (`"DemCOM"`), and
    /// the parameterised `"route-aware:<cap-km>"` form.
    pub fn parse(spec: &str) -> Result<Self, SpecError> {
        spec.parse()
    }

    /// The canonical spec string (round-trips through [`MatcherSpec::parse`]).
    pub fn canonical(&self) -> String {
        match self {
            MatcherSpec::Tota => "tota".into(),
            MatcherSpec::GreedyRt => "greedy-rt".into(),
            MatcherSpec::DemCom => "demcom".into(),
            MatcherSpec::RamCom => "ramcom".into(),
            MatcherSpec::RouteAware { pickup_cap_km } => format!("route-aware:{pickup_cap_km}"),
        }
    }

    /// The display name the built matcher reports (`OnlineMatcher::name`).
    pub fn display_name(&self) -> &'static str {
        match self {
            MatcherSpec::Tota => "TOTA",
            MatcherSpec::GreedyRt => "Greedy-RT",
            MatcherSpec::DemCom => "DemCOM",
            MatcherSpec::RamCom => "RamCOM",
            MatcherSpec::RouteAware { .. } => "RouteAware",
        }
    }

    /// Construct a fresh matcher for one run.
    pub fn build(&self) -> Box<dyn OnlineMatcher> {
        match *self {
            MatcherSpec::Tota => Box::new(TotaGreedy),
            MatcherSpec::GreedyRt => Box::new(GreedyRt::default()),
            MatcherSpec::DemCom => Box::new(DemCom::default()),
            MatcherSpec::RamCom => Box::new(RamCom::default()),
            MatcherSpec::RouteAware { pickup_cap_km } => {
                Box::new(RouteAwareCom::with_cap(pickup_cap_km))
            }
        }
    }

    /// A shareable factory for this spec.
    pub fn factory(&self) -> MatcherFactory {
        let spec = *self;
        Arc::new(move || spec.build())
    }
}

impl FromStr for MatcherSpec {
    type Err = SpecError;

    fn from_str(spec: &str) -> Result<Self, SpecError> {
        let lower = spec.trim().to_ascii_lowercase();
        if let Some(arg) = lower
            .strip_prefix("route-aware:")
            .or_else(|| lower.strip_prefix("routeaware:"))
        {
            let cap: f64 = arg.parse().map_err(|_| SpecError::BadParam {
                spec: spec.to_string(),
                reason: format!("`{arg}` is not a number of kilometres"),
            })?;
            if !cap.is_finite() || cap <= 0.0 {
                return Err(SpecError::BadParam {
                    spec: spec.to_string(),
                    reason: format!("pickup cap must be positive, got {cap}"),
                });
            }
            return Ok(MatcherSpec::RouteAware { pickup_cap_km: cap });
        }
        match lower.as_str() {
            "tota" => Ok(MatcherSpec::Tota),
            "greedy-rt" | "greedyrt" => Ok(MatcherSpec::GreedyRt),
            "demcom" => Ok(MatcherSpec::DemCom),
            "ramcom" => Ok(MatcherSpec::RamCom),
            // Bare `route-aware` without a cap: point at the template.
            "route-aware" | "routeaware" => Err(SpecError::BadParam {
                spec: spec.to_string(),
                reason: "route-aware needs a pickup cap: route-aware:<cap-km>".into(),
            }),
            _ => Err(SpecError::Unknown {
                spec: spec.to_string(),
            }),
        }
    }
}

impl fmt::Display for MatcherSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// Why a spec string failed to resolve. `Display` always names the valid
/// specs so CLI users see the menu, not a stack trace.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The name matches no built-in family.
    Unknown { spec: String },
    /// The family is known but its parameter is malformed.
    BadParam { spec: String, reason: String },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Unknown { spec } => write!(
                f,
                "unknown matcher spec `{spec}` (valid specs: {})",
                MatcherSpec::TEMPLATES.join(", ")
            ),
            SpecError::BadParam { spec, reason } => write!(
                f,
                "bad matcher spec `{spec}`: {reason} (valid specs: {})",
                MatcherSpec::TEMPLATES.join(", ")
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// [`MatcherSpec::parse`] under its older spelling, kept because
/// `benchmark/` and the integration tests call
/// `MatcherRegistry::builtin().resolve(s)` / `.build(s)`. Nothing can be
/// registered; code in the workspace calls [`MatcherSpec`] directly.
pub struct MatcherRegistry;

impl MatcherRegistry {
    /// The built-in algorithms — everything [`MatcherSpec::parse`] accepts.
    pub fn builtin() -> Self {
        MatcherRegistry
    }

    /// Resolve a spec string to a factory.
    pub fn resolve(&self, spec: &str) -> Result<MatcherFactory, SpecError> {
        MatcherSpec::parse(spec).map(|parsed| parsed.factory())
    }

    /// Build a fresh matcher straight from a spec string.
    pub fn build(&self, spec: &str) -> Result<Box<dyn OnlineMatcher>, SpecError> {
        MatcherSpec::parse(spec).map(|parsed| parsed.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_fixed_names_and_aliases() {
        assert_eq!(MatcherSpec::parse("tota").unwrap(), MatcherSpec::Tota);
        assert_eq!(MatcherSpec::parse("TOTA").unwrap(), MatcherSpec::Tota);
        assert_eq!(MatcherSpec::parse("DemCOM").unwrap(), MatcherSpec::DemCom);
        assert_eq!(MatcherSpec::parse("ramcom").unwrap(), MatcherSpec::RamCom);
        assert_eq!(
            MatcherSpec::parse("Greedy-RT").unwrap(),
            MatcherSpec::GreedyRt
        );
    }

    #[test]
    fn parse_route_aware_cap() {
        let spec = MatcherSpec::parse("route-aware:2.5").unwrap();
        assert_eq!(spec, MatcherSpec::RouteAware { pickup_cap_km: 2.5 });
        assert_eq!(spec.canonical(), "route-aware:2.5");
        assert_eq!(spec.build().name(), "RouteAware");
    }

    #[test]
    fn bad_specs_error_with_the_menu() {
        let err = MatcherSpec::parse("hungarian").unwrap_err();
        assert!(matches!(err, SpecError::Unknown { .. }));
        let msg = err.to_string();
        assert!(msg.contains("hungarian"), "{msg}");
        assert!(msg.contains("route-aware:<cap-km>"), "{msg}");
        assert!(msg.contains("ramcom"), "{msg}");

        for bad in [
            "route-aware:",
            "route-aware:abc",
            "route-aware:-1",
            "route-aware",
        ] {
            let err = MatcherSpec::parse(bad).unwrap_err();
            assert!(matches!(err, SpecError::BadParam { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn canonical_round_trips() {
        for spec in [
            MatcherSpec::Tota,
            MatcherSpec::GreedyRt,
            MatcherSpec::DemCom,
            MatcherSpec::RamCom,
            MatcherSpec::RouteAware { pickup_cap_km: 1.5 },
        ] {
            assert_eq!(MatcherSpec::parse(&spec.canonical()).unwrap(), spec);
            assert_eq!(spec.build().name(), spec.display_name());
        }
    }

    #[test]
    fn registry_agrees_with_spec_parse() {
        let r = MatcherRegistry::builtin();
        let templates = MatcherSpec::TEMPLATES.map(|t| t.replace("<cap-km>", "2.5"));
        let aliases = ["TOTA", "Greedy-RT", "DemCOM", "RamCOM", "RouteAware:1"];
        let bad = ["nope", "route-aware", "route-aware:-1"];
        for s in templates
            .iter()
            .map(String::as_str)
            .chain(aliases)
            .chain(bad)
        {
            let via_registry = r.build(s).map(|m| m.name());
            let via_spec = MatcherSpec::parse(s).map(|m| m.build().name());
            assert_eq!(via_registry, via_spec, "{s}");
            assert_eq!(r.resolve(s).map(|f| f().name()), via_spec, "{s}");
            assert_eq!(via_spec.is_err(), bad.contains(&s), "{s}");
        }
    }

    #[test]
    fn all_builtin_covers_every_family_and_resolves() {
        let r = MatcherRegistry::builtin();
        let specs = MatcherSpec::all_builtin();
        assert_eq!(specs.len(), 5);
        for spec in specs {
            // Each canonical form resolves through the registry too.
            assert_eq!(
                r.resolve(&spec.canonical()).unwrap()().name(),
                spec.display_name()
            );
        }
    }

    #[test]
    fn factories_mint_independent_matchers() {
        let f = MatcherSpec::RamCom.factory();
        let a = f();
        let b = f();
        // Two boxes, not one shared matcher.
        assert_ne!(
            a.as_ref() as *const dyn OnlineMatcher as *const () as usize,
            b.as_ref() as *const dyn OnlineMatcher as *const () as usize
        );
    }

    #[test]
    fn factories_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let f = MatcherSpec::DemCom.factory();
        assert_send_sync(&f);
    }
}
