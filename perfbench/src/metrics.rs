//! Metric tables, their computation from repetitions, and the JSON line.

use crate::check::Tally;
use crate::workload::Spec;
use crate::Rep;
use mc_obs::{Phase, PhaseSummary};
use mc_sim::SystemKind;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// End-to-end metrics (plain runs), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("host_s", "s"),
    ("accesses_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_ops_per_s", "1/s"),
    ("sim_fast_share", "ratio"),
    ("op_ok_share", "ratio"),
];

/// Per-layer metrics (traced runs), with units. `sim_ns` is simulated
/// (virtual) time; `ns` is host time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.ops", "count"),
    ("workloads.self_ns", "ns"),
    ("workloads.self_ns_per_op", "ns"),
    ("workloads.load_ns", "ns"),
    ("sim.new_ns", "ns"),
    ("sim.access.calls", "count"),
    ("sim.access.ns", "ns"),
    ("sim.bytes.calls", "count"),
    ("sim.bytes.ns", "ns"),
    ("sim.compute.calls", "count"),
    ("sim.compute.ns", "ns"),
    ("sim.self_ns", "ns"),
    ("sim.pages", "count"),
    ("sim.self_ns_per_page", "ns"),
    ("sim.minor_faults", "count"),
    ("sim.hint_faults", "count"),
    ("sim.virt.access_ns", "sim_ns"),
    ("sim.virt.stall_ns", "sim_ns"),
    ("sim.virt.daemon_ns", "sim_ns"),
    ("sim.virt.background_ns", "sim_ns"),
    ("mem.allocs", "count"),
    ("mem.promotions", "count"),
    ("mem.demotions", "count"),
    ("mem.migration_failures", "count"),
    ("core.tick.count", "count"),
    ("core.tick.ns", "ns"),
    ("core.tick.p50_ns", "ns"),
    ("core.tick.p99_ns", "ns"),
    ("core.scan.ns", "ns"),
    ("core.scan.pages", "count"),
    ("core.merge.ns", "ns"),
    ("core.promote_drain.ns", "ns"),
    ("core.promote_drain.pages", "count"),
    ("core.pressure.ns", "ns"),
    ("core.pressure.pages", "count"),
    ("core.migrate_batch.ns", "ns"),
    ("core.migrate_batch.count", "count"),
    ("core.self_ns", "ns"),
    ("core.pages_scanned", "count"),
    ("core.promote_retries", "count"),
    ("core.promote_gave_ups", "count"),
    ("core.reaccess_share", "ratio"),
    ("policies.tick.count", "count"),
    ("policies.tick.ns", "ns"),
    ("policies.samples", "count"),
    ("policies.sketch_updates", "count"),
    ("policies.direct_placements", "count"),
    ("policies.promotions", "count"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_ns", "ns"),
    ("trace.unattributed_share", "ratio"),
];

/// Fewest ticks for which a p99 has ten samples beyond it.
const P99_MIN_TICKS: u64 = 1000;

/// Collects metrics, taking each unit from `table`.
struct Sink {
    table: &'static [(&'static str, &'static str)],
    out: Vec<Metric>,
}

impl Sink {
    fn put(&mut self, name: &'static str, value: f64) {
        let unit = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not in its table"));
        self.out.push(Metric { name, value, unit });
    }
}

/// The quantile of the repetitions' host times that the benchmark reports.
///
/// On a shared host, contention from other tenants comes and goes within
/// seconds and slows this workload by up to 1.7x, so the share of
/// contended repetitions in a run, and with it the median, drifts from
/// run to run. The contended level itself is steady, and the 90th
/// percentile tracks it.
const HOST_QUANTILE: f64 = 0.9;

/// Index of the nearest-rank `HOST_QUANTILE` in `n` sorted values.
fn host_rank(n: usize) -> usize {
    ((HOST_QUANTILE * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `HOST_QUANTILE` of `f` over `reps`.
fn host_quantile(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    let mut v: Vec<f64> = reps.iter().map(f).collect();
    v.sort_by(f64::total_cmp);
    v[host_rank(v.len())]
}

/// End-to-end metrics over the plain repetitions.
pub fn end_to_end(plain: &[Rep], peak_rss_kib: u64, checks: &Tally) -> Vec<Metric> {
    let mut s = Sink {
        table: END_TO_END,
        out: Vec::new(),
    };
    let sim = &plain[0].sim;
    let host_s = host_quantile(plain, |r| r.host_ns as f64) / 1e9;
    s.put("host_s", host_s);
    s.put("accesses_per_s", sim.accesses() as f64 / host_s);
    s.put(
        "setup_s",
        host_quantile(plain, |r| (r.setup.new_ns + r.setup.load_ns) as f64) / 1e9,
    );
    s.put("peak_rss_mib", peak_rss_kib as f64 / 1024.0);
    s.put("sim_ops_per_s", sim.sim_ops_per_s());
    s.put("sim_fast_share", sim.headline.fast_share.unwrap_or(0.0));
    let ok = checks.attempted.saturating_sub(checks.failed) as f64 / checks.attempted.max(1) as f64;
    s.put("op_ok_share", ok);
    s.out
}

/// Host time of one traced repetition, split into layer self times.
///
/// Every field is a self time, so the fields sum to the repetition's
/// host time exactly; `of` returns `None` when spans fail to nest (a
/// child longer than its parent), which would mean the trace is wrong.
#[derive(Debug, Clone, Copy)]
pub struct Breakdown {
    /// Op spans minus the memory calls inside them.
    pub workloads_self: u64,
    /// Memory calls minus the daemon ticks inside them.
    pub sim_self: u64,
    /// MULTI-CLOCK tick time outside its phase spans.
    pub core_self: u64,
    /// MULTI-CLOCK phases: scan, merge, promote drain, pressure.
    pub core_phases: [u64; 4],
    /// Ticks of any other policy (HybridTier), which has no phase spans.
    pub policies_tick: u64,
    /// Host time outside every op span: the drive loop itself.
    pub unattributed: u64,
}

fn phase(phases: &[PhaseSummary], p: Phase) -> &PhaseSummary {
    phases
        .iter()
        .find(|s| s.phase == p)
        .expect("summaries cover every phase")
}

impl Breakdown {
    /// Splits `rep`'s host time; `None` for an untraced repetition or
    /// spans that do not nest.
    pub fn of(spec: &Spec, rep: &Rep) -> Option<Breakdown> {
        let t = rep.trace.as_ref()?;
        let tick = phase(&t.phases, Phase::Tick).total_nanos;
        let workloads_self = t.proxy.op_ns.checked_sub(t.proxy.mem_ns())?;
        let sim_self = t.proxy.mem_ns().checked_sub(tick)?;
        let unattributed = rep.host_ns.checked_sub(t.proxy.op_ns)?;
        let mut b = Breakdown {
            workloads_self,
            sim_self,
            core_self: 0,
            core_phases: [0; 4],
            policies_tick: 0,
            unattributed,
        };
        if spec.system == SystemKind::MultiClock {
            let nested = [
                Phase::Scan,
                Phase::Merge,
                Phase::PromoteDrain,
                Phase::Pressure,
            ];
            for (slot, p) in b.core_phases.iter_mut().zip(nested) {
                *slot = phase(&t.phases, p).total_nanos;
            }
            b.core_self = tick.checked_sub(b.core_phases.iter().sum())?;
        } else {
            b.policies_tick = tick;
        }
        Some(b)
    }

    /// The sum of every self time and the residual.
    pub fn total(&self) -> u64 {
        self.workloads_self
            + self.sim_self
            + self.core_self
            + self.core_phases.iter().sum::<u64>()
            + self.policies_tick
            + self.unattributed
    }
}

/// Per-layer metrics from the traced repetition at the reported host-time
/// quantile, plus the trace's overhead over the plain repetitions.
pub fn per_layer(spec: &Spec, plain: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let mut s = Sink {
        table: PER_LAYER,
        out: Vec::new(),
    };
    let mut order: Vec<&Rep> = traced.iter().collect();
    order.sort_by_key(|r| r.host_ns);
    let rep = order[host_rank(order.len())];
    let t = rep
        .trace
        .as_ref()
        .expect("traced repetitions carry a trace");
    let b = Breakdown::of(spec, rep).unwrap_or(Breakdown {
        workloads_self: 0,
        sim_self: 0,
        core_self: 0,
        core_phases: [0; 4],
        policies_tick: 0,
        unattributed: rep.host_ns,
    });
    let sim = &rep.sim;
    let (before, after) = (&sim.before, &sim.after);
    let stat = |f: fn(&mc_mem::MemStats) -> u64| (f(&after.stats) - f(&before.stats)) as f64;
    let counter = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let virt = |f: fn(&mc_sim::CostBreakdown) -> mc_mem::Nanos| {
        (f(&after.costs).as_nanos() - f(&before.costs).as_nanos()) as f64
    };
    let multi_clock = spec.system == SystemKind::MultiClock;
    let daemon = |v: f64, mine: bool| if mine { v } else { 0.0 };

    let ops = t.proxy.ops as f64;
    s.put("workloads.ops", ops);
    s.put("workloads.self_ns", b.workloads_self as f64);
    s.put(
        "workloads.self_ns_per_op",
        b.workloads_self as f64 / ops.max(1.0),
    );
    s.put("workloads.load_ns", rep.setup.load_ns as f64);

    s.put("sim.new_ns", rep.setup.new_ns as f64);
    s.put("sim.access.calls", t.proxy.access.calls as f64);
    s.put("sim.access.ns", t.proxy.access.ns as f64);
    s.put("sim.bytes.calls", t.proxy.bytes.calls as f64);
    s.put("sim.bytes.ns", t.proxy.bytes.ns as f64);
    s.put("sim.compute.calls", t.proxy.compute.calls as f64);
    s.put("sim.compute.ns", t.proxy.compute.ns as f64);
    s.put("sim.self_ns", b.sim_self as f64);
    let pages = sim.accesses() as f64;
    s.put("sim.pages", pages);
    s.put("sim.self_ns_per_page", b.sim_self as f64 / pages.max(1.0));
    s.put(
        "sim.minor_faults",
        (after.costs.minor_faults - before.costs.minor_faults) as f64,
    );
    s.put(
        "sim.hint_faults",
        (after.costs.hint_faults - before.costs.hint_faults) as f64,
    );
    s.put("sim.virt.access_ns", virt(|c| c.access_time));
    s.put("sim.virt.stall_ns", virt(|c| c.stall_time));
    s.put("sim.virt.daemon_ns", virt(|c| c.daemon_time));
    s.put("sim.virt.background_ns", virt(|c| c.background_time));

    s.put("mem.allocs", stat(|m| m.allocs));
    s.put("mem.promotions", stat(|m| m.promotions));
    s.put("mem.demotions", stat(|m| m.demotions));
    s.put("mem.migration_failures", stat(|m| m.migration_failures));

    let tick = phase(&t.phases, Phase::Tick);
    let p99 = if tick.count >= P99_MIN_TICKS {
        tick.p99_nanos as f64
    } else {
        0.0
    };
    s.put("core.tick.count", daemon(tick.count as f64, multi_clock));
    s.put("core.tick.ns", daemon(tick.total_nanos as f64, multi_clock));
    s.put(
        "core.tick.p50_ns",
        daemon(tick.p50_nanos as f64, multi_clock),
    );
    s.put("core.tick.p99_ns", daemon(p99, multi_clock));
    let scan = phase(&t.phases, Phase::Scan);
    s.put("core.scan.ns", scan.total_nanos as f64);
    s.put("core.scan.pages", scan.items as f64);
    s.put(
        "core.merge.ns",
        phase(&t.phases, Phase::Merge).total_nanos as f64,
    );
    let drain = phase(&t.phases, Phase::PromoteDrain);
    s.put("core.promote_drain.ns", drain.total_nanos as f64);
    s.put("core.promote_drain.pages", drain.items as f64);
    let pressure = phase(&t.phases, Phase::Pressure);
    s.put("core.pressure.ns", pressure.total_nanos as f64);
    s.put("core.pressure.pages", pressure.items as f64);
    let batch = phase(&t.phases, Phase::MigrateBatch);
    s.put("core.migrate_batch.ns", batch.total_nanos as f64);
    s.put("core.migrate_batch.count", batch.count as f64);
    s.put("core.self_ns", b.core_self as f64);
    s.put("core.pages_scanned", counter("mc_pages_scanned"));
    s.put("core.promote_retries", counter("mc_promote_retries"));
    s.put("core.promote_gave_ups", counter("mc_promote_gave_ups"));
    s.put(
        "core.reaccess_share",
        sim.reaccess_pct.unwrap_or(0.0) / 100.0,
    );

    s.put(
        "policies.tick.count",
        daemon(tick.count as f64, !multi_clock),
    );
    s.put("policies.tick.ns", b.policies_tick as f64);
    s.put("policies.samples", counter("ht_samples"));
    s.put("policies.sketch_updates", counter("ht_sketch_updates"));
    s.put(
        "policies.direct_placements",
        counter("ht_direct_placements"),
    );
    s.put("policies.promotions", counter("ht_promotions"));

    let plain_host = host_quantile(plain, |r| r.host_ns as f64);
    let traced_host = rep.host_ns as f64;
    s.put("trace.overhead", traced_host / plain_host);
    s.put("trace.unattributed_ns", b.unattributed as f64);
    s.put(
        "trace.unattributed_share",
        b.unattributed as f64 / rep.host_ns.max(1) as f64,
    );
    s.out
}

/// The result line the benchmark contract asks for.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Table entries `metrics` lacks or repeats, and metrics outside `table`.
pub fn missing(metrics: &[Metric], table: &[(&str, &str)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, unit) in table {
        let n = metrics
            .iter()
            .filter(|m| m.name == *name && m.unit == *unit)
            .count();
        if n != 1 {
            problems.push(format!("metric {name} ({unit}) printed {n} times"));
        }
    }
    for m in metrics {
        if !table.iter().any(|(n, _)| *n == m.name) {
            problems.push(format!("metric {} is not in its table", m.name));
        }
    }
    problems
}

/// `(name, unit)` pairs declared by one metric list of `BENCHMARK.json`.
pub type Declared = Vec<(String, String)>;

/// Reads the `end_to_end` and `per_layer` lists of `BENCHMARK.json`.
pub fn declared(text: &str) -> Result<(Declared, Declared), String> {
    Ok((list(text, "end_to_end")?, list(text, "per_layer")?))
}

/// The flat objects of the array under `key`.
fn list(text: &str, key: &str) -> Result<Declared, String> {
    let quoted = format!("\"{key}\"");
    let at = text.find(&quoted).ok_or(format!("no {key} list"))?;
    let rest = &text[at..];
    let open = rest.find('[').ok_or(format!("{key} is not a list"))?;
    let close = rest.find(']').ok_or(format!("{key} list is not closed"))?;
    let mut body = &rest[open + 1..close];
    let mut out = Vec::new();
    while let Some(start) = body.find('{') {
        let end = body[start..]
            .find('}')
            .ok_or(format!("unclosed object in {key}"))?;
        let obj = mc_obs::json::parse_flat_object(&body[start..start + end + 1])?;
        let field = |f: &str| {
            mc_obs::json::get_str(&obj, f)
                .map(str::to_string)
                .ok_or(format!("{key} entry without {f}"))
        };
        out.push((field("name")?, field("unit")?));
        body = &body[start + end + 1..];
    }
    Ok(out)
}

/// Differences between the program's table and the declared list.
pub fn missing_declared(table: &[(&str, &str)], listed: &Declared) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, unit) in table {
        if !listed.iter().any(|(n, u)| n == name && u == unit) {
            problems.push(format!("{name} ({unit}) is not declared in BENCHMARK.json"));
        }
    }
    for (name, unit) in listed {
        if !table.iter().any(|(n, u)| n == name && u == unit) {
            problems.push(format!(
                "BENCHMARK.json declares {name} ({unit}), which is never printed"
            ));
        }
    }
    problems
}
