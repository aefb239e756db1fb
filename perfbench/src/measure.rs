//! The untraced run: end-to-end metrics, measured as a user would run
//! the system.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rader::cilk::par::ParRuntime;
use rader::core::RaceReport;
use rader::suite::{check_workload, SuiteOptions, WorkloadVerdict};

use crate::programs::{self, Expect, Program, POOL_PROGRAMS};
use crate::stats::median;
use crate::{Args, Metric, RunResult, Tally, THREADS};

/// Set-up repetitions on each thread; `setup_s` is the median of all.
pub const SETUP_REPS: usize = 21;
/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time `f`, returning its result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

/// Run `f`, turning a panic into an error that names it.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// Whether another sample fits before `seconds` have passed, judging its
/// length by the last one; the first always runs.
pub fn room(start: Instant, seconds: f64, done: &[f64]) -> bool {
    done.last().is_none_or(|last| secs(start) + last <= seconds)
}

/// Time `SETUP_REPS` set-ups on each of [`THREADS`] threads at once, so
/// that both cores are sampled, then build the copy the run keeps.
/// Returns it and the set-up times.
pub fn set_up<T>(build: impl Fn() -> T + Sync) -> (T, Vec<f64>) {
    let times = std::thread::scope(|s| {
        let reps = || {
            (0..SETUP_REPS)
                .map(|_| timed(|| black_box(build())).1)
                .collect::<Vec<f64>>()
        };
        let threads: Vec<_> = (0..THREADS).map(|_| s.spawn(reps)).collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("set-up panicked"))
            .collect()
    });
    (build(), times)
}

/// The verdict a program reached, reduced to what the gate checks.
pub struct Verdict<'a> {
    /// Merged report of every detector run behind the verdict.
    pub report: &'a RaceReport,
    /// A budget cut the sweep short.
    pub partial: bool,
    /// Specs whose run panicked and were set aside.
    pub quarantined: usize,
}

/// The correctness gate of one full verdict: every execution returned
/// the reference output, the sweep was complete with nothing
/// quarantined, and the races are exactly the planted kind (none for a
/// clean program).
pub fn gate(p: &Program, before: (u64, u64), v: &Verdict<'_>) -> Result<(), String> {
    outputs_ok(p, before)?;
    if v.partial {
        return Err("verdict is partial".into());
    }
    if v.quarantined > 0 {
        return Err(format!("{} specs quarantined", v.quarantined));
    }
    let (dets, reads) = (v.report.determinacy.len(), v.report.view_read.len());
    match p.expect {
        Expect::Clean if dets + reads > 0 => Err(format!(
            "clean program reported {dets} determinacy and {reads} view-read races"
        )),
        Expect::ViewRead if reads == 0 => Err("planted view-read race not reported".into()),
        Expect::Determinacy if dets == 0 => Err("planted determinacy race not reported".into()),
        _ => Ok(()),
    }
}

/// Every execution of `p` since `before` returned the reference output,
/// and there was at least one.
pub fn outputs_ok(p: &Program, before: (u64, u64)) -> Result<(), String> {
    let (runs, wrong) = p.outcome.snapshot();
    if runs == before.0 {
        return Err("program never executed".into());
    }
    if wrong > before.1 {
        return Err(format!(
            "{} of {} executions returned a wrong output",
            wrong - before.1,
            runs - before.0
        ));
    }
    Ok(())
}

/// Fail when `now` differs from the value first seen in `first`.
pub fn repeats<T: PartialEq + std::fmt::Debug>(
    first: &mut Option<T>,
    now: T,
) -> Result<(), String> {
    match first {
        None => {
            *first = Some(now);
            Ok(())
        }
        Some(f) if *f == now => Ok(()),
        Some(f) => Err(format!(
            "counters changed across passes: {f:?} then {now:?}"
        )),
    }
}

/// Counters of a verdict that must repeat exactly across passes.
fn verdict_counters(v: &WorkloadVerdict) -> [u64; 10] {
    [
        v.runs as u64,
        v.replayed as u64,
        v.claims as u64,
        v.k as u64,
        v.m as u64,
        v.frames,
        v.accesses,
        v.peer_set_checks,
        v.spplus_checks,
        v.races as u64,
    ]
}

/// One verdict on `programs[i]` through the user entry point, gated and
/// counted; returns the seconds it took. `first` holds the program's
/// counters from its first verdict, `k` its measured sync-block size.
pub fn check_program(
    p: &Program,
    first: &mut Option<[u64; 10]>,
    k: &mut u32,
    tally: &mut Tally,
) -> f64 {
    let opts = SuiteOptions {
        threads: THREADS,
        ..Default::default()
    };
    let t = Instant::now();
    let before = p.outcome.snapshot();
    let outcome = guarded(|| {
        let v = check_workload(&p.workload, &opts)?;
        *k = v.k;
        gate(
            p,
            before,
            &Verdict {
                report: &v.report,
                partial: v.partial,
                quarantined: v.quarantined.len(),
            },
        )?;
        repeats(first, verdict_counters(&v))
    });
    let took = secs(t);
    tally.record(p.workload.name, outcome);
    took
}

/// One full pass over the detector programs through the user entry point;
/// returns each program's seconds and prints them to stderr. `first` and
/// `k` are as for [`check_program`], one entry per program.
pub fn detector_pass(
    programs: &[Program],
    first: &mut [Option<[u64; 10]>],
    k: &mut [u32],
    tally: &mut Tally,
) -> Vec<f64> {
    let times: Vec<f64> = (0..programs.len())
        .map(|i| check_program(&programs[i], &mut first[i], &mut k[i], tally))
        .collect();
    let line: String = programs
        .iter()
        .zip(&times)
        .map(|(p, t)| format!(" {}={t:.4}", p.workload.name))
        .collect();
    eprintln!("pass{line}");
    times
}

/// The untraced run: `pass_s`, `peak_rss_mb`, `setup_s`.
pub fn run(args: &Args) -> RunResult {
    let mut tally = Tally::default();
    let (pass_s, rss, setup) = if args.workload == "pool" {
        let (input, setup) = set_up(|| programs::pool_input(args.seed));
        let (passes, rss) = measure_passes(args.seconds, || {
            pool_pass(&input, &[1, THREADS], &mut tally)
        });
        (Metric::median("pass_s", "s", &passes), rss, setup)
    } else {
        let (progs, setup) = set_up(|| programs::detector_programs(args.seed));
        let mut first = vec![None; progs.len()];
        let mut k = vec![1; progs.len()];
        let (times, rss) = measure_programs(args.seconds, &progs, &mut first, &mut k, &mut tally);
        for (p, t) in progs.iter().zip(&times) {
            let m = median(t).unwrap_or(0.0);
            println!("program {} = {m} s (n={})", p.workload.name, t.len());
        }
        // A pass is the programs run one after another, so its typical
        // time is the sum of each program's median.
        let pass = times.iter().filter_map(|t| median(t)).sum();
        let samples = times.iter().map(Vec::len).min().unwrap_or(0);
        (Metric::one("pass_s", "s", pass, samples), rss, setup)
    };
    if rss.is_none() {
        tally.record("peak_rss_mb", Err("VmHWM unreadable".into()));
    }
    RunResult {
        metrics: vec![
            pass_s,
            Metric::one("peak_rss_mb", "MB", rss.unwrap_or(0.0), 1),
            Metric::median("setup_s", "s", &setup),
        ],
        tally,
    }
}

/// Run `pass` until `seconds` have passed, as long as the next pass fits
/// judged by the last; returns the times and the first pass's peak
/// memory. Peak memory is the first pass's: later passes start from
/// whatever the allocator kept of earlier ones, which varies between
/// processes by a fifth, while a fresh process's first pass repeats to 1%.
fn measure_passes(seconds: f64, mut pass: impl FnMut() -> f64) -> (Vec<f64>, Option<f64>) {
    reset_peak_rss();
    let start = Instant::now();
    let mut passes = vec![pass()];
    let rss = peak_rss_mb();
    while room(start, seconds, &passes) {
        passes.push(pass());
    }
    (passes, rss)
}

/// One full pass over `progs` (which also gives the peak memory, as in
/// [`measure_passes`]), then one verdict after another on the programs in
/// turn, for as long as the next fits in `seconds` judged by that
/// program's last time. Returns each program's times. Taking one program
/// at a time fills the window, where whole passes of ~13 s left half a
/// pass of it unused on average.
fn measure_programs(
    seconds: f64,
    progs: &[Program],
    first: &mut [Option<[u64; 10]>],
    k: &mut [u32],
    tally: &mut Tally,
) -> (Vec<Vec<f64>>, Option<f64>) {
    reset_peak_rss();
    let start = Instant::now();
    let mut times: Vec<Vec<f64>> = detector_pass(progs, first, k, tally)
        .into_iter()
        .map(|t| vec![t])
        .collect();
    let rss = peak_rss_mb();
    for i in (0..progs.len()).cycle() {
        if !room(start, seconds, &times[i]) {
            break;
        }
        let t = check_program(&progs[i], &mut first[i], &mut k[i], tally);
        times[i].push(t);
    }
    (times, rss)
}

/// One run of each pool program at each worker count in `workers`;
/// returns the seconds taken.
pub fn pool_pass(input: &programs::PoolInput, workers: &[usize], tally: &mut Tally) -> f64 {
    let t = Instant::now();
    for &w in workers {
        let rt = ParRuntime::new(w);
        for (which, name) in POOL_PROGRAMS.iter().enumerate() {
            let outcome = guarded(|| {
                let (_, ok) = programs::run_pool(&rt, input, which);
                ok.then_some(())
                    .ok_or_else(|| "result differs from the serial reference".into())
            });
            tally.record(name, outcome);
        }
    }
    secs(t)
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`], MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Reset the peak resident set size to the current one (Linux: `5` to
/// `/proc/self/clear_refs`). Where that fails the peak stays the
/// process's lifetime peak, which is never lower.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
