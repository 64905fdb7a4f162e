//! The `BENCH_*.json` performance artifact: schema, statistics,
//! validation, regression comparison and the trajectory table.
//!
//! Every PR commits one `BENCH_<pr>.json` at the repo root, written by
//! `mc-perf` and read back by `mc-perf-report`. The format is a flat
//! JSON object (the [`mc_obs::json`] subset: scalars plus flat numeric
//! arrays) with dotted keys:
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "pr": 7,
//!   "host.os": "linux", "host.arch": "x86_64", "host.cores": 8,
//!   "profile": "release",
//!   "scale": "perf",
//!   "suites": "engine_ticks_per_sec.ycsb_a,...",        // ordered names
//!   "suite.<name>.unit": "ticks/sec",
//!   "suite.<name>.higher_is_better": true,
//!   "suite.<name>.median": 1234.5,
//!   "suite.<name>.mad": 10.25,
//!   "suite.<name>.reps": [1230.1, 1234.5, 1239.9],
//!   "extra.phase.tick.p50_ns": 8192                      // optional detail
//! }
//! ```
//!
//! Medians and MADs (median absolute deviation) are stored *and*
//! recomputed from `reps` at validation time, so a hand-edited artifact
//! cannot silently disagree with its own samples.

use std::io;
use std::path::Path;

/// Current artifact schema version. Bump on incompatible layout changes;
/// `check` rejects unknown versions.
pub const SCHEMA_VERSION: u64 = 1;

/// Suites every artifact must carry (the acceptance floor: engine
/// ticks/sec, scan throughput, migration-overhead share at two batch
/// sizes, sweep speedup). Extra suites are welcome.
pub const REQUIRED_SUITES: [&str; 5] = [
    "engine_ticks_per_sec.ycsb_a",
    "scan_pages_per_sec.threads_1",
    "migration_overhead_share.batch_1",
    "migration_overhead_share.batch_8",
    "sweep_parallel_speedup",
];

/// One benchmark suite's repetitions and summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// Stable dotted name (`scan_pages_per_sec.threads_1`).
    pub name: String,
    /// Unit label for tables (`ticks/sec`, `share`, `x`).
    pub unit: String,
    /// Direction of goodness: `true` for throughputs/speedups, `false`
    /// for overhead shares.
    pub higher_is_better: bool,
    /// Raw per-repetition samples, in run order.
    pub reps: Vec<f64>,
    /// Median of `reps`.
    pub median: f64,
    /// Median absolute deviation of `reps` (robust spread).
    pub mad: f64,
}

impl SuiteResult {
    /// Builds a suite from raw repetitions, computing median and MAD.
    pub fn from_reps(name: &str, unit: &str, higher_is_better: bool, reps: Vec<f64>) -> Self {
        let m = median(&reps);
        let d = mad(&reps);
        SuiteResult {
            name: name.to_string(),
            unit: unit.to_string(),
            higher_is_better,
            reps,
            median: m,
            mad: d,
        }
    }
}

/// One `BENCH_<pr>.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Artifact layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// The PR this artifact was measured for (`BENCH_7.json` -> 7).
    pub pr: u64,
    /// Host operating system (`std::env::consts::OS`).
    pub host_os: String,
    /// Host CPU architecture (`std::env::consts::ARCH`).
    pub host_arch: String,
    /// Logical cores available on the measuring host.
    pub host_cores: u64,
    /// Build profile the suites ran under (`release`/`debug`).
    pub profile: String,
    /// Scale label (`perf`, `smoke`).
    pub scale: String,
    /// Suite results, in a stable order.
    pub suites: Vec<SuiteResult>,
    /// Free-form numeric detail fields (per-phase percentiles etc.),
    /// ignored by validation and comparison.
    pub extras: Vec<(String, f64)>,
}

/// Median of a sample set; 0.0 for an empty set.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median absolute deviation: `median(|x - median(xs)|)`. A robust
/// spread estimate — one hiccupy repetition cannot inflate it the way it
/// would a standard deviation.
pub fn mad(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = median(xs);
    let devs: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&devs)
}

impl BenchArtifact {
    /// Serialises the artifact as one flat JSON object.
    pub fn to_json(&self) -> String {
        let mut w = mc_obs::json::ObjectWriter::new();
        w.num_field("schema_version", self.schema_version);
        w.num_field("pr", self.pr);
        w.str_field("host.os", &self.host_os);
        w.str_field("host.arch", &self.host_arch);
        w.num_field("host.cores", self.host_cores);
        w.str_field("profile", &self.profile);
        w.str_field("scale", &self.scale);
        let names: Vec<&str> = self.suites.iter().map(|s| s.name.as_str()).collect();
        w.str_field("suites", &names.join(","));
        for s in &self.suites {
            w.str_field(&format!("suite.{}.unit", s.name), &s.unit);
            // The writer has no bool field; 0/1 keeps the parser's
            // numeric path (get_num) working.
            w.num_field(
                &format!("suite.{}.higher_is_better", s.name),
                u64::from(s.higher_is_better),
            );
            w.float_field(&format!("suite.{}.median", s.name), s.median);
            w.float_field(&format!("suite.{}.mad", s.name), s.mad);
            w.num_arr_field(&format!("suite.{}.reps", s.name), &s.reps);
        }
        for (k, v) in &self.extras {
            w.float_field(&format!("extra.{k}"), *v);
        }
        w.finish()
    }

    /// Parses an artifact from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed JSON or missing
    /// required fields. Use [`BenchArtifact::check`] afterwards for the
    /// full semantic validation.
    pub fn from_json(text: &str) -> Result<Self, String> {
        use mc_obs::json::{get_arr, get_num, get_str, parse_flat_object};
        let obj = parse_flat_object(text)?;
        let req_num = |key: &str| {
            get_num(&obj, key).ok_or_else(|| format!("missing or non-numeric field `{key}`"))
        };
        let req_str = |key: &str| {
            get_str(&obj, key)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field `{key}`"))
        };
        let mut suites = Vec::new();
        let names = req_str("suites")?;
        for name in names.split(',').filter(|n| !n.is_empty()) {
            let reps = get_arr(&obj, &format!("suite.{name}.reps"))
                .ok_or_else(|| format!("missing reps array for suite `{name}`"))?
                .to_vec();
            suites.push(SuiteResult {
                name: name.to_string(),
                unit: req_str(&format!("suite.{name}.unit"))?,
                higher_is_better: req_num(&format!("suite.{name}.higher_is_better"))? != 0.0,
                median: req_num(&format!("suite.{name}.median"))?,
                mad: req_num(&format!("suite.{name}.mad"))?,
                reps,
            });
        }
        let extras = obj
            .iter()
            .filter_map(|(k, v)| {
                let key = k.strip_prefix("extra.")?;
                match v {
                    mc_obs::json::Value::Num(n) => Some((key.to_string(), *n)),
                    _ => None,
                }
            })
            .collect();
        Ok(BenchArtifact {
            schema_version: req_num("schema_version")? as u64,
            pr: req_num("pr")? as u64,
            host_os: req_str("host.os")?,
            host_arch: req_str("host.arch")?,
            host_cores: req_num("host.cores")? as u64,
            profile: req_str("profile")?,
            scale: req_str("scale")?,
            suites,
            extras,
        })
    }

    /// Full schema validation: version, identity fields, required suite
    /// coverage, and internal consistency of every suite (non-empty
    /// finite reps whose recomputed median/MAD match the stored values).
    ///
    /// # Errors
    ///
    /// Returns the first violation as a human-readable message.
    pub fn check(&self) -> Result<(), String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unknown schema_version {} (this tool understands {SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.pr == 0 {
            return Err("pr must be >= 1".into());
        }
        if self.host_os.is_empty() || self.host_arch.is_empty() || self.profile.is_empty() {
            return Err("host metadata (host.os/host.arch/profile) must be non-empty".into());
        }
        if self.host_cores == 0 {
            return Err("host.cores must be >= 1".into());
        }
        for required in REQUIRED_SUITES {
            if !self.suites.iter().any(|s| s.name == required) {
                return Err(format!("required suite `{required}` is missing"));
            }
        }
        for s in &self.suites {
            if s.unit.is_empty() {
                return Err(format!("suite `{}` has an empty unit", s.name));
            }
            if s.reps.is_empty() {
                return Err(format!("suite `{}` has no repetitions", s.name));
            }
            if s.reps.iter().any(|r| !r.is_finite()) {
                return Err(format!("suite `{}` has a non-finite repetition", s.name));
            }
            let tol = |expect: f64| (expect.abs() * 1e-9).max(1e-9);
            let m = median(&s.reps);
            if (s.median - m).abs() > tol(m) {
                return Err(format!(
                    "suite `{}`: stored median {} disagrees with reps (median {m})",
                    s.name, s.median
                ));
            }
            let d = mad(&s.reps);
            if (s.mad - d).abs() > tol(d) {
                return Err(format!(
                    "suite `{}`: stored mad {} disagrees with reps (mad {d})",
                    s.name, s.mad
                ));
            }
        }
        Ok(())
    }

    /// The suite with the given name, if present.
    pub fn suite(&self, name: &str) -> Option<&SuiteResult> {
        self.suites.iter().find(|s| s.name == name)
    }
}

/// One detected regression between two artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The regressing suite's name.
    pub suite: String,
    /// Previous artifact's median.
    pub prev: f64,
    /// Candidate artifact's median.
    pub next: f64,
    /// Signed relative change, `(next - prev) / prev`.
    pub change: f64,
}

/// Compares two artifacts suite-by-suite and returns every suite whose
/// median moved in its bad direction by more than `threshold`
/// (relative, e.g. `0.5` = 50%). Suites missing from either side and
/// zero-median baselines are skipped — absence is a schema question for
/// [`BenchArtifact::check`], not a regression.
pub fn compare(prev: &BenchArtifact, next: &BenchArtifact, threshold: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for p in &prev.suites {
        let Some(n) = next.suite(&p.name) else {
            continue;
        };
        if p.median == 0.0 {
            continue;
        }
        let change = (n.median - p.median) / p.median;
        let regressed = if p.higher_is_better {
            change < -threshold
        } else {
            change > threshold
        };
        if regressed {
            out.push(Regression {
                suite: p.name.clone(),
                prev: p.median,
                next: n.median,
                change,
            });
        }
    }
    out
}

/// Formats a metric value compactly for tables.
fn fmt_metric(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_string()
    } else if a >= 1e6 || a < 1e-3 {
        format!("{v:.2e}")
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders the cross-PR trajectory table: one row per suite (union of
/// all artifacts, in order of first appearance), one column per
/// artifact, cells `median ±mad`.
pub fn render_trajectory(artifacts: &[BenchArtifact]) -> String {
    let mut names: Vec<String> = Vec::new();
    for a in artifacts {
        for s in &a.suites {
            if !names.contains(&s.name) {
                names.push(s.name.clone());
            }
        }
    }
    let mut header = vec!["suite".to_string(), "unit".to_string()];
    for a in artifacts {
        header.push(format!("PR {} ({})", a.pr, a.scale));
    }
    let mut rows: Vec<Vec<String>> = vec![header];
    for name in &names {
        let unit = artifacts
            .iter()
            .find_map(|a| a.suite(name).map(|s| s.unit.clone()))
            .unwrap_or_default();
        let mut row = vec![name.clone(), unit];
        for a in artifacts {
            row.push(match a.suite(name) {
                Some(s) => format!("{} ±{}", fmt_metric(s.median), fmt_metric(s.mad)),
                None => "-".to_string(),
            });
        }
        rows.push(row);
    }
    // Column-aligned plain text.
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let widths: Vec<usize> = (0..cols)
        .map(|c| {
            rows.iter()
                .map(|r| r.get(c).map_or(0, |s| s.chars().count()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(c, cell)| format!("{cell:<width$}", width = widths[c]))
            .collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
        if i == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Loads every `BENCH_*.json` under `dir`, sorted by PR number.
///
/// # Errors
///
/// Propagates I/O errors; malformed artifacts are returned as
/// `InvalidData` naming the offending file.
pub fn load_dir(dir: &Path) -> io::Result<Vec<BenchArtifact>> {
    let mut artifacts = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path)?;
        let artifact = BenchArtifact::from_json(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{name}: {e}")))?;
        artifacts.push(artifact);
    }
    artifacts.sort_by_key(|a| a.pr);
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(pr: u64, scan: f64, share8: f64) -> BenchArtifact {
        let suites = vec![
            SuiteResult::from_reps(
                "engine_ticks_per_sec.ycsb_a",
                "ticks/sec",
                true,
                vec![100.0, 102.0, 98.0, 101.0, 99.0],
            ),
            SuiteResult::from_reps(
                "migration_overhead_share.batch_1",
                "share",
                false,
                vec![0.30, 0.30, 0.30],
            ),
            SuiteResult::from_reps(
                "migration_overhead_share.batch_8",
                "share",
                false,
                vec![share8, share8, share8],
            ),
            SuiteResult::from_reps("sweep_parallel_speedup", "x", true, vec![2.5, 2.6, 2.4]),
            SuiteResult::from_reps(
                "scan_pages_per_sec.threads_1",
                "pages/sec",
                true,
                vec![scan, scan * 1.01, scan * 0.99],
            ),
        ];
        BenchArtifact {
            schema_version: SCHEMA_VERSION,
            pr,
            host_os: "linux".into(),
            host_arch: "x86_64".into(),
            host_cores: 8,
            profile: "release".into(),
            scale: "perf".into(),
            suites,
            extras: vec![("phase.tick.p50_ns".into(), 8192.0)],
        }
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mad(&[1.0, 1.0, 1.0]), 0.0);
        // median 2, deviations [1, 0, 1] -> mad 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0]), 1.0);
        // Robustness: one wild outlier barely moves the MAD.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 1000.0]), 1.0);
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let a = sample(7, 4000.0, 0.25);
        let text = a.to_json();
        let b = BenchArtifact::from_json(&text).unwrap();
        assert_eq!(a, b);
        b.check().unwrap();
    }

    #[test]
    fn check_rejects_schema_violations() {
        let mut a = sample(7, 4000.0, 0.25);
        a.schema_version = 99;
        assert!(a.check().unwrap_err().contains("schema_version"));

        let mut a = sample(7, 4000.0, 0.25);
        a.suites.retain(|s| s.name != "sweep_parallel_speedup");
        assert!(a.check().unwrap_err().contains("sweep_parallel_speedup"));

        let mut a = sample(7, 4000.0, 0.25);
        a.suites[0].median += 5.0;
        assert!(a.check().unwrap_err().contains("disagrees"));

        let mut a = sample(7, 4000.0, 0.25);
        a.suites[0].reps.clear();
        a.suites[0].median = 0.0;
        a.suites[0].mad = 0.0;
        assert!(a.check().unwrap_err().contains("no repetitions"));

        let mut a = sample(0, 4000.0, 0.25);
        a.pr = 0;
        assert!(a.check().unwrap_err().contains("pr"));
    }

    #[test]
    fn from_json_reports_missing_fields() {
        assert!(BenchArtifact::from_json("not json").is_err());
        assert!(BenchArtifact::from_json("{}")
            .unwrap_err()
            .contains("suites"));
        let err = BenchArtifact::from_json(r#"{"suites":"x","schema_version":1}"#).unwrap_err();
        assert!(err.contains("x"), "{err}");
    }

    #[test]
    fn compare_flags_injected_regressions_in_both_directions() {
        let prev = sample(6, 4000.0, 0.25);
        // Throughput collapse: the scan drops 4000 -> 1500 (-62%).
        let slow = sample(7, 1500.0, 0.25);
        let regs = compare(&prev, &slow, 0.5);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].suite, "scan_pages_per_sec.threads_1");
        assert!(regs[0].change < -0.5);

        // Overhead growth: share at batch 8 climbs 0.25 -> 0.60 (+140%).
        let heavy = sample(7, 4000.0, 0.60);
        let regs = compare(&prev, &heavy, 0.5);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].suite, "migration_overhead_share.batch_8");
        assert!(regs[0].change > 0.5);

        // Within threshold: nothing flagged.
        assert!(compare(&prev, &sample(7, 3500.0, 0.30), 0.5).is_empty());
    }

    #[test]
    fn trajectory_table_lists_every_pr_column() {
        let a6 = sample(6, 4000.0, 0.25);
        let a7 = sample(7, 4200.0, 0.22);
        let table = render_trajectory(&[a6, a7]);
        assert!(table.contains("PR 6"), "{table}");
        assert!(table.contains("PR 7"), "{table}");
        assert!(table.contains("engine_ticks_per_sec.ycsb_a"), "{table}");
        assert!(table.contains("±"), "{table}");
        // Every non-separator line has the same column count feel: the
        // suite names all appear.
        for s in sample(6, 1.0, 0.1).suites {
            assert!(table.contains(&s.name), "missing {}", s.name);
        }
    }

    #[test]
    fn load_dir_reads_and_sorts_artifacts() {
        let dir = std::env::temp_dir().join(format!("mc-bench-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_7.json"), sample(7, 4000.0, 0.2).to_json()).unwrap();
        std::fs::write(dir.join("BENCH_6.json"), sample(6, 3000.0, 0.3).to_json()).unwrap();
        std::fs::write(dir.join("not-a-bench.json"), "{}").unwrap();
        let arts = load_dir(&dir).unwrap();
        assert_eq!(arts.len(), 2);
        assert_eq!((arts[0].pr, arts[1].pr), (6, 7));
        std::fs::write(dir.join("BENCH_8.json"), "garbage").unwrap();
        assert!(load_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
