//! The traced run: per-layer metrics from spans recorded around each call
//! the benchmark makes into a layer's public entry point.
//!
//! Detector workloads run a ladder of single runs per program (engine,
//! tool dispatch, view manager, Peer-Set, SP+ under three specs, trace
//! record and replay), then alternate a traced pass that calls the suite
//! pipeline's layers one by one with an untraced pass through
//! `check_workload`; the ratio of their medians is `trace.overhead`. The
//! pool workload times the serial engine on `fib` and alternates traced
//! and untraced pool passes. A layer a workload does not reach reports 0.

use std::collections::BTreeMap;
use std::time::Instant;

use rader::cilk::par::ParRuntime;
use rader::cilk::replay::ProgramTrace;
use rader::cilk::{Ctx, EmptyTool, SerialEngine, StealSpec};
use rader::core::{coverage, CoverageOptions, PeerSet, SpPlus};
use rader::workloads::fib;
use rader_bench::{spec_for, Config};

use crate::measure::{
    detector_pass, gate, guarded, outputs_ok, pool_pass, repeats, room, Verdict, SETUP_REPS,
};
use crate::programs::{self, Expect, Program, POOL_PROGRAMS};
use crate::stats::{geomean, median};
use crate::trace::{duration, self_time, Tracer};
use crate::{Args, Metric, RunResult, Tally, THREADS};

/// Repetitions of each ladder rung; a rung reports its median.
const LADDER_REPS: usize = 5;

/// Every per-layer metric with its unit, in print order.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("workloads.gen_s", "s"),
    ("engine.run_s", "s"),
    ("engine.frames", "count"),
    ("engine.strands", "count"),
    ("engine.accesses", "count"),
    ("tool.empty_s", "s"),
    ("tool.self_s", "s"),
    ("views.run_s", "s"),
    ("views.self_s", "s"),
    ("views.steals", "count"),
    ("views.reduces", "count"),
    ("peerset.run_s", "s"),
    ("peerset.checks", "count"),
    ("spplus.nosteal_s", "s"),
    ("spplus.updates_s", "s"),
    ("spplus.reductions_s", "s"),
    ("spplus.checks", "count"),
    ("spplus.ns_per_check", "ns"),
    ("replay.record_s", "s"),
    ("replay.record_overhead", "ratio"),
    ("replay.events", "count"),
    ("replay.replay_s", "s"),
    ("replay.speedup", "ratio"),
    ("sweep.replay_hit", "ratio"),
    ("sweep.record_s", "s"),
    ("sweep.specs_s", "s"),
    ("sweep.merge_s", "s"),
    ("sweep.runs", "count"),
    ("sweep.claims", "count"),
    ("sweep.spplus_checks", "count"),
    ("sweep.ns_per_check", "ns"),
    ("sweep.races", "count"),
    ("sweep.findings", "count"),
    ("suite.minimize_s", "s"),
    ("suite.other_s", "s"),
    ("pool.run_s", "s"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.steal_retries", "count"),
    ("pool.steal_ratio", "ratio"),
    ("pool.ns_per_task", "ns"),
    ("pool.vs_serial", "ratio"),
    ("pool.scaling_2w", "ratio"),
    ("fig7.peerset", "ratio"),
    ("fig7.nosteal", "ratio"),
    ("fig7.updates", "ratio"),
    ("fig7.reductions", "ratio"),
    ("fig8.peerset", "ratio"),
    ("fig8.nosteal", "ratio"),
    ("fig8.updates", "ratio"),
    ("fig8.reductions", "ratio"),
    ("trace.overhead", "ratio"),
    ("single_run_s", "s"),
];

/// Ladder rungs, named by their spans.
const ENGINE: &str = "cilk.engine.run";
const EMPTY: &str = "cilk.engine.run_tool.empty";
const VIEWS: &str = "cilk.engine.run.steals";
const PEERSET: &str = "core.peerset";
const NOSTEAL: &str = "core.spplus.nosteal";
const UPDATES: &str = "core.spplus.updates";
const REDUCTIONS: &str = "core.spplus.reductions";
const RECORD: &str = "cilk.replay.record";
const REPLAY: &str = "cilk.replay.replay";
const FIG_COLUMNS: [(&str, &str, &str); 4] = [
    (PEERSET, "fig7.peerset", "fig8.peerset"),
    (NOSTEAL, "fig7.nosteal", "fig8.nosteal"),
    (UPDATES, "fig7.updates", "fig8.updates"),
    (REDUCTIONS, "fig7.reductions", "fig8.reductions"),
];

/// Metrics being filled in, keyed by name.
struct Sheet(BTreeMap<&'static str, Metric>);

impl Sheet {
    fn new() -> Sheet {
        Sheet(
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, Metric::one(n, u, 0.0, 0)))
                .collect(),
        )
    }

    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let m = self.0.get_mut(name).expect("metric listed in PER_LAYER");
        m.value = value;
        m.samples = samples;
    }

    fn median(&mut self, name: &'static str, xs: &[f64]) {
        let unit = self.0[name].unit;
        self.0.insert(name, Metric::median(name, unit, xs));
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name].value
    }

    fn into_metrics(mut self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(n, _)| self.0.remove(n).expect("every metric present"))
            .collect()
    }
}

/// Time samples per ladder rung, seconds.
type RungTimes = BTreeMap<&'static str, Vec<f64>>;

/// Run `f` in a span named `name` and keep its duration as a sample.
fn rung<R>(
    tr: &mut Tracer,
    t: &mut RungTimes,
    name: &'static str,
    program: usize,
    f: impl FnOnce() -> R,
) -> R {
    let (r, id) = tr.span(name, program, |_| f());
    t.entry(name)
        .or_default()
        .push(duration(tr.spans(), id) as f64 * 1e-9);
    r
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The traced run.
pub fn run(args: &Args) -> RunResult {
    let mut tr = Tracer::default();
    let mut tally = Tally::default();
    let mut sheet = Sheet::new();
    if args.workload == "pool" {
        pool(args, &mut tr, &mut tally, &mut sheet);
    } else {
        detector(args, &mut tr, &mut tally, &mut sheet);
    }
    tally.record("spans", write_spans(args, &tr));
    RunResult {
        metrics: sheet.into_metrics(),
        tally,
    }
}

/// Write the spans as JSON lines under the build directory
/// (`$CARGO_TARGET_DIR`, else `perfbench/target`).
fn write_spans(args: &Args, tr: &Tracer) -> Result<(), String> {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.to_json_lines()))
        .map_err(|e| format!("spans not written to {}: {e}", path.display()))?;
    println!("spans {} written to {}", tr.spans().len(), path.display());
    Ok(())
}

/// Build the workload `SETUP_REPS` times, one span each; returns the last
/// build.
fn set_up_traced<T>(tr: &mut Tracer, sheet: &mut Sheet, build: impl Fn() -> T) -> T {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (built, id) = tr.span("rader-workloads.gen", 0, |_| build());
        times.push(duration(tr.spans(), id) as f64 * 1e-9);
        last = Some(built);
    }
    sheet.median("workloads.gen_s", &times);
    last.expect("SETUP_REPS > 0")
}

fn detector(args: &Args, tr: &mut Tracer, tally: &mut Tally, sheet: &mut Sheet) {
    let progs = set_up_traced(tr, sheet, || programs::detector_programs(args.seed));
    let start = Instant::now();
    let mut med: Vec<BTreeMap<&str, f64>> = Vec::new();
    let mut counts = [0u64; 8];
    let mut replay_ok = Vec::new();
    for (i, p) in progs.iter().enumerate() {
        let (t, c, ok) = ladder(tr, tally, p, i);
        med.push(
            t.iter()
                .map(|(&k, v)| (k, median(v).unwrap_or(0.0)))
                .collect(),
        );
        counts.iter_mut().zip(c).for_each(|(a, b)| *a += b);
        replay_ok.push(ok);
    }
    let at = |m: &BTreeMap<&str, f64>, rung: &str| m.get(rung).copied().unwrap_or(0.0);
    let sum = |rung: &str| med.iter().map(|m| at(m, rung)).sum::<f64>();
    let sum_ok = |rung: &str| {
        med.iter()
            .zip(&replay_ok)
            .filter(|(_, &ok)| ok)
            .map(|(m, _)| at(m, rung))
            .sum::<f64>()
    };
    let n = LADDER_REPS;
    let [frames, strands, accesses, steals, reduces, pchecks, schecks, events] = counts;
    let engine = sum(ENGINE);
    sheet.set("engine.run_s", engine, n);
    sheet.set("engine.frames", frames as f64, n);
    sheet.set("engine.strands", strands as f64, n);
    sheet.set("engine.accesses", accesses as f64, n);
    sheet.set("tool.empty_s", sum(EMPTY), n);
    sheet.set("tool.self_s", sum(EMPTY) - engine, n);
    sheet.set("views.run_s", sum(VIEWS), n);
    sheet.set("views.self_s", sum(VIEWS) - engine, n);
    sheet.set("views.steals", steals as f64, n);
    sheet.set("views.reduces", reduces as f64, n);
    sheet.set("peerset.run_s", sum(PEERSET), n);
    sheet.set("peerset.checks", pchecks as f64, n);
    sheet.set("spplus.nosteal_s", sum(NOSTEAL), n);
    sheet.set("spplus.updates_s", sum(UPDATES), n);
    sheet.set("spplus.reductions_s", sum(REDUCTIONS), n);
    sheet.set("spplus.checks", schecks as f64, n);
    sheet.set(
        "spplus.ns_per_check",
        ratio(sum(REDUCTIONS) * 1e9, schecks as f64),
        n,
    );
    // What a user pays to check one schedule: Peer-Set plus SP+ under the
    // "Check reductions" spec, one run per program.
    sheet.set("single_run_s", sum(PEERSET) + sum(REDUCTIONS), n);
    sheet.set("replay.record_s", sum(RECORD), n);
    sheet.set("replay.record_overhead", ratio(sum(RECORD), engine), n);
    sheet.set("replay.events", events as f64, n);
    sheet.set("replay.replay_s", sum_ok(REPLAY), n);
    sheet.set(
        "replay.speedup",
        ratio(sum_ok(REDUCTIONS), sum_ok(REPLAY)),
        n,
    );
    for (rung, f7, f8) in FIG_COLUMNS {
        let over = |base: &str| {
            let xs: Vec<f64> = med
                .iter()
                .map(|m| ratio(at(m, rung), at(m, base)))
                .collect();
            geomean(&xs).unwrap_or(0.0)
        };
        sheet.set(f7, over(ENGINE), n);
        sheet.set(f8, over(EMPTY), n);
    }

    // Alternate traced and untraced passes until the deadline.
    let mut first_u = vec![None; progs.len()];
    let mut first_t = vec![None; progs.len()];
    let mut k = vec![1; progs.len()];
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut phases: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut totals = [0u64; 6];
    let mut pairs = Vec::new();
    while room(start, args.seconds, &pairs) {
        let (sums, t) = traced_pass(tr, tally, &progs, &mut first_t);
        for (name, v) in sums {
            phases.entry(name).or_default().push(v);
        }
        totals = t;
        traced.push(phases["pass"].last().copied().unwrap_or(0.0));
        untraced.push(
            detector_pass(&progs, &mut first_u, &mut k, tally)
                .iter()
                .sum(),
        );
        pairs.push(traced[traced.len() - 1] + untraced[untraced.len() - 1]);
    }
    let [runs, replayed, claims, checks, races, findings] = totals;
    for (metric, phase) in [
        ("sweep.record_s", "record"),
        ("sweep.specs_s", "specs"),
        ("sweep.merge_s", "merge"),
        ("suite.minimize_s", "minimize"),
        ("suite.other_s", "other"),
    ] {
        sheet.median(metric, &phases[phase]);
    }
    let p = traced.len();
    sheet.set("sweep.runs", runs as f64, p);
    sheet.set("sweep.claims", claims as f64, p);
    sheet.set("sweep.spplus_checks", checks as f64, p);
    sheet.set("sweep.races", races as f64, p);
    sheet.set("sweep.findings", findings as f64, p);
    sheet.set("sweep.replay_hit", ratio(replayed as f64, runs as f64), p);
    let swept = sheet.get("sweep.record_s") + sheet.get("sweep.specs_s");
    sheet.set("sweep.ns_per_check", ratio(swept * 1e9, checks as f64), p);
    overhead(sheet, &traced, &untraced);
}

/// `trace.overhead`: median traced pass over median untraced pass.
fn overhead(sheet: &mut Sheet, traced: &[f64], untraced: &[f64]) {
    let (t, u) = (median(traced), median(untraced));
    sheet.set(
        "trace.overhead",
        ratio(t.unwrap_or(0.0), u.unwrap_or(0.0)),
        traced.len(),
    );
}

/// One program's ladder: rung time samples, summed counters
/// `[frames, strands, accesses, steals, reduces, peer-set checks, SP+
/// checks, replay events]`, and whether replay served the reductions
/// spec (a divergence falls back to re-execution in the sweep).
fn ladder(
    tr: &mut Tracer,
    tally: &mut Tally,
    p: &Program,
    i: usize,
) -> (RungTimes, [u64; 8], bool) {
    let run = |cx: &mut Ctx<'_>| (p.workload.run)(cx);
    let k = SerialEngine::new().run(run).max_sync_block;
    let updates = spec_for(Config::SpPlusUpdates, k);
    let reductions = spec_for(Config::SpPlusReductions, k);
    let spplus = |spec: &StealSpec| {
        let mut sp = SpPlus::new();
        SerialEngine::with_spec(spec.clone()).run_tool(&mut sp, run);
        sp
    };
    let mut t = RungTimes::new();
    let mut first = None;
    let mut replay_ok = true;
    for _ in 0..LADDER_REPS {
        let before = p.outcome.snapshot();
        let outcome = guarded(|| {
            let stats = rung(tr, &mut t, ENGINE, i, || SerialEngine::new().run(run));
            rung(tr, &mut t, EMPTY, i, || {
                SerialEngine::new().run_tool(&mut EmptyTool, run)
            });
            let views = rung(tr, &mut t, VIEWS, i, || {
                SerialEngine::with_spec(reductions.clone()).run(run)
            });
            let peers = rung(tr, &mut t, PEERSET, i, || {
                let mut peers = PeerSet::new();
                SerialEngine::new().run_tool(&mut peers, run);
                peers
            });
            let nosteal = rung(tr, &mut t, NOSTEAL, i, || spplus(&StealSpec::None));
            let upd = rung(tr, &mut t, UPDATES, i, || spplus(&updates));
            let red = rung(tr, &mut t, REDUCTIONS, i, || spplus(&reductions));
            let trace = rung(tr, &mut t, RECORD, i, || ProgramTrace::record(run));
            let replayed = rung(tr, &mut t, REPLAY, i, || {
                let mut sp = SpPlus::new();
                SerialEngine::with_spec(reductions.clone()).replay_tool(&mut sp, &trace)
            });
            replay_ok &= replayed.is_ok();
            outputs_ok(p, before)?;
            let racy = [peers.report(), nosteal.report(), upd.report(), red.report()]
                .iter()
                .any(|r| r.has_races());
            if p.expect == Expect::Clean && racy {
                return Err("clean program reported races on a single schedule".into());
            }
            let c = [
                stats.frames,
                stats.strands,
                stats.reads + stats.writes,
                views.steals,
                views.reduce_merges,
                peers.checks,
                red.checks,
                trace.len() as u64,
            ];
            repeats(&mut first, c)
        });
        tally.record(p.workload.name, outcome);
    }
    if !replay_ok {
        println!(
            "note: {} replay diverged under the reductions spec; replay.* omit it",
            p.workload.name
        );
    }
    (t, first.unwrap_or_default(), replay_ok)
}

/// One traced pass: the suite pipeline's layers called one by one, as
/// `check_workload` calls them. Returns per-phase seconds summed over the
/// programs, and the summed counters `[runs, replayed, claims, SP+
/// checks, races, findings]`.
fn traced_pass(
    tr: &mut Tracer,
    tally: &mut Tally,
    progs: &[Program],
    first: &mut [Option<[u64; 6]>],
) -> (BTreeMap<&'static str, f64>, [u64; 6]) {
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut totals = [0u64; 6];
    let ns = |tr: &Tracer, id: usize| duration(tr.spans(), id) as f64 * 1e-9;
    for (i, p) in progs.iter().enumerate() {
        let run = |cx: &mut Ctx<'_>| (p.workload.run)(cx);
        let before = p.outcome.snapshot();
        let depth = tr.depth();
        let outcome = guarded(|| {
            let (res, pass) = tr.span("rader.suite.pass", i, |tr| {
                let mut peers = PeerSet::new();
                tr.span(PEERSET, i, |_| {
                    SerialEngine::new().run_tool(&mut peers, run)
                });
                let (sweep, sid) = tr.span("core.coverage.sweep", i, |_| {
                    coverage::exhaustive_check_parallel(run, &CoverageOptions::default(), THREADS)
                });
                // The sweep times its own phases; they become its children.
                let phases = [
                    (
                        "record",
                        "core.coverage.sweep.record",
                        sweep.timing.record_ns,
                    ),
                    ("specs", "core.coverage.sweep.specs", sweep.timing.sweep_ns),
                    ("merge", "core.coverage.sweep.merge", sweep.timing.merge_ns),
                ];
                tr.phases(sid, &phases.map(|(_, span, v)| (span, v)));
                for (phase, _, v) in phases {
                    *sums.entry(phase).or_default() += v as f64 * 1e-9;
                }
                let mut report = peers.report().clone();
                tr.span("core.report.merge", i, |_| report.merge(&sweep.report));
                let minimize = sweep.findings.first().map(|(spec, _)| {
                    let ((), id) = tr.span("core.coverage.minimize_spec", i, |_| {
                        coverage::minimize_spec(run, spec);
                    });
                    ns(tr, id)
                });
                *sums.entry("minimize").or_default() += minimize.unwrap_or(0.0);
                (sweep, report)
            });
            let (sweep, report) = res;
            *sums.entry("pass").or_default() += ns(tr, pass);
            *sums.entry("other").or_default() += self_time(tr.spans(), pass) as f64 * 1e-9;
            let verdict = Verdict {
                report: &report,
                partial: sweep.partial,
                quarantined: sweep.quarantined.len(),
            };
            gate(p, before, &verdict)?;
            let c = [
                sweep.runs as u64,
                sweep.replayed as u64,
                sweep.claims as u64,
                sweep.spplus_checks,
                (report.determinacy.len() + report.view_read.len()) as u64,
                sweep.findings.len() as u64,
            ];
            totals.iter_mut().zip(c).for_each(|(a, b)| *a += b);
            repeats(&mut first[i], c)
        });
        tr.truncate_open(depth);
        tally.record(p.workload.name, outcome);
    }
    for phase in ["record", "specs", "merge", "minimize", "other", "pass"] {
        sums.entry(phase).or_default();
    }
    (sums, totals)
}

fn pool(args: &Args, tr: &mut Tracer, tally: &mut Tally, sheet: &mut Sheet) {
    let input = set_up_traced(tr, sheet, || programs::pool_input(args.seed));
    let start = Instant::now();
    // The serial engine on the same fib: the base of `pool.vs_serial`.
    let want = fib::fib_reference(programs::POOL_FIB_N);
    let mut t = RungTimes::new();
    let mut first = None;
    for _ in 0..LADDER_REPS {
        let outcome = guarded(|| {
            let mut got = 0;
            let stats = rung(tr, &mut t, ENGINE, 0, || {
                SerialEngine::new().run(|cx| got = fib::fib_program(cx, programs::POOL_FIB_N))
            });
            if got != want {
                return Err(format!("serial fib returned {got}, expected {want}"));
            }
            repeats(
                &mut first,
                [stats.frames, stats.strands, stats.reads + stats.writes],
            )
        });
        tally.record("serial fib", outcome);
    }
    let serial = t.get(ENGINE).and_then(|v| median(v)).unwrap_or(0.0);
    let [frames, strands, accesses] = first.unwrap_or_default();
    sheet.set("engine.run_s", serial, LADDER_REPS);
    sheet.set("engine.frames", frames as f64, LADDER_REPS);
    sheet.set("engine.strands", strands as f64, LADDER_REPS);
    sheet.set("engine.accesses", accesses as f64, LADDER_REPS);

    let workers = [1, THREADS];
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let (mut one, mut two, mut fib1) = (Vec::new(), Vec::new(), Vec::new());
    let (mut steals, mut retries, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_tasks = None;
    let mut tasks = 0;
    let mut pairs = Vec::new();
    while room(start, args.seconds, &pairs) {
        let mut per_w = [0.0; 2];
        let (mut s, mut r, mut n) = (0, 0, 0);
        for (wi, &w) in workers.iter().enumerate() {
            let rt = ParRuntime::new(w);
            for (which, name) in POOL_PROGRAMS.iter().enumerate() {
                let id_program = which + wi * POOL_PROGRAMS.len();
                let depth = tr.depth();
                let outcome = guarded(|| {
                    let ((stats, ok), id) = tr.span("cilk.par.run", id_program, |_| {
                        programs::run_pool(&rt, &input, which)
                    });
                    let d = duration(tr.spans(), id) as f64 * 1e-9;
                    per_w[wi] += d;
                    if which == 0 && w == 1 {
                        fib1.push(d);
                    }
                    (s, r, n) = (s + stats.steals, r + stats.steal_retries, n + stats.tasks);
                    ok.then_some(())
                        .ok_or_else(|| "result differs from the serial reference".into())
                });
                tr.truncate_open(depth);
                tally.record(name, outcome);
            }
        }
        tally.record("pool tasks", repeats(&mut first_tasks, n));
        tasks = n;
        traced.push(per_w[0] + per_w[1]);
        one.push(per_w[0]);
        two.push(per_w[1]);
        steals.push(s as f64);
        retries.push(r as f64);
        ratios.push(ratio(s as f64, n as f64));
        untraced.push(pool_pass(&input, &workers, tally));
        pairs.push(traced[traced.len() - 1] + untraced[untraced.len() - 1]);
    }
    let p = traced.len();
    sheet.median("pool.run_s", &traced);
    sheet.set("pool.tasks", tasks as f64, p);
    sheet.median("pool.steals", &steals);
    sheet.median("pool.steal_retries", &retries);
    sheet.median("pool.steal_ratio", &ratios);
    let run_s = sheet.get("pool.run_s");
    sheet.set("pool.ns_per_task", ratio(run_s * 1e9, tasks as f64), p);
    let fib1 = median(&fib1).unwrap_or(0.0);
    sheet.set("pool.vs_serial", ratio(fib1, serial), p);
    let (one, two) = (median(&one).unwrap_or(0.0), median(&two).unwrap_or(0.0));
    sheet.set("pool.scaling_2w", ratio(one, two), p);
    // One run of each pool program at the benchmark's thread count.
    sheet.set("single_run_s", two, p);
    overhead(sheet, &traced, &untraced);
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;
    use crate::stats::valid_metric_name;

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_every_metric_once() {
        let json = include_str!("../../BENCHMARK.json");
        let end_to_end = ["pass_s", "peak_rss_mb", "setup_s"];
        let workloads = ["verdict", "pool"];
        let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        for name in names.iter().chain(&end_to_end).chain(&workloads) {
            assert!(valid_metric_name(name), "{name}");
            let key = format!("\"name\": \"{name}\"");
            assert_eq!(json.matches(&key).count(), 1, "{name} listed once");
        }
        let listed = json.matches("\"name\": ").count();
        assert_eq!(listed, names.len() + end_to_end.len() + workloads.len());
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} in {unit}");
        }
    }
}
