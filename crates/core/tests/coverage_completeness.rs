//! Empirical check of the Section-7 coverage guarantee: for ostensibly
//! deterministic programs, the Θ(M) + Θ(K³) specification families find
//! every race (involving at least one view-oblivious strand) that *any*
//! schedule exhibits.
//!
//! We cannot enumerate all schedules, so we compare against a large
//! random-schedule sample: everything a random sample finds, the sweep
//! must find too. (The converse need not hold — the sweep's constructed
//! schedules are strictly more thorough.)

use std::collections::BTreeSet;

use rader_cilk::synth::{gen_program, run_synth, GenConfig};
use rader_cilk::{Ctx, Loc, SerialEngine, StealSpec};
use rader_core::{coverage, CoverageOptions, SpPlus};

fn spplus_locs(spec: &StealSpec, prog: impl FnOnce(&mut Ctx<'_>)) -> BTreeSet<Loc> {
    let mut tool = SpPlus::new();
    SerialEngine::with_spec(spec.clone()).run_tool(&mut tool, prog);
    tool.report().racy_locs()
}

#[test]
fn sweep_dominates_random_schedule_sampling() {
    // View-aliasing programs: reducer views overlap user memory, so
    // view-aware strands (whose existence depends on the schedule) can
    // race with oblivious code — the regime Section 7 is about.
    let cfg = GenConfig {
        view_aliasing: true,
        size: 30,
        ..GenConfig::default()
    };
    let mut programs_with_schedule_dependent_races = 0;
    for seed in 0..40u64 {
        let prog = gen_program(seed, &cfg);
        let run = |cx: &mut Ctx<'_>| {
            run_synth(cx, &prog);
        };

        // The sweep's verdict.
        let sweep = coverage::exhaustive_check_parallel(run, &CoverageOptions::default(), 1);
        let sweep_locs = sweep.report.racy_locs();

        // A random-schedule sample: 40 random specs of varying density.
        let stats = SerialEngine::new().run(run);
        let mut sampled: BTreeSet<Loc> = spplus_locs(&StealSpec::None, run);
        for i in 0..40u64 {
            let spec = StealSpec::Random {
                seed: seed.wrapping_mul(41).wrapping_add(i),
                max_block: stats.max_sync_block.max(1),
                steals_per_block: 1 + (i % 3) as u32,
            };
            sampled.extend(spplus_locs(&spec, run));
        }

        assert!(
            sampled.is_subset(&sweep_locs),
            "seed {seed}: random sampling found {:?} that the sweep \
             ({:?}) missed",
            sampled.difference(&sweep_locs).collect::<Vec<_>>(),
            sweep_locs
        );
        if !sweep_locs.is_empty() && sweep_locs != spplus_locs(&StealSpec::None, run) {
            programs_with_schedule_dependent_races += 1;
        }
    }
    // The corpus must actually exercise the interesting regime.
    assert!(
        programs_with_schedule_dependent_races >= 3,
        "only {programs_with_schedule_dependent_races} programs had \
         schedule-dependent races; the corpus is too tame to be evidence"
    );
}

#[test]
fn sweep_is_deterministic() {
    let cfg = GenConfig {
        view_aliasing: true,
        ..GenConfig::default()
    };
    for seed in 0..10u64 {
        let prog = gen_program(seed, &cfg);
        let run = |cx: &mut Ctx<'_>| {
            run_synth(cx, &prog);
        };
        let a = coverage::exhaustive_check_parallel(run, &CoverageOptions::default(), 1);
        let b = coverage::exhaustive_check_parallel(run, &CoverageOptions::default(), 1);
        assert_eq!(a.report.racy_locs(), b.report.racy_locs());
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.findings.len(), b.findings.len());
    }
}

#[test]
fn capping_k_reduces_runs_monotonically() {
    let prog = gen_program(3, &GenConfig::default());
    let run = |cx: &mut Ctx<'_>| {
        run_synth(cx, &prog);
    };
    let full = coverage::exhaustive_check_parallel(run, &CoverageOptions::default(), 1);
    let capped = coverage::exhaustive_check_parallel(
        run,
        &CoverageOptions {
            max_k: Some(2),
            ..CoverageOptions::default()
        },
        1,
    );
    assert!(capped.runs <= full.runs);
    assert!(capped.k <= 2);
}

#[test]
fn parallel_sweep_matches_serial_sweep() {
    use rader_core::coverage::exhaustive_check_parallel;
    let cfg = GenConfig {
        view_aliasing: true,
        ..GenConfig::default()
    };
    for seed in [0u64, 7, 21] {
        let prog = gen_program(seed, &cfg);
        let run = |cx: &mut Ctx<'_>| {
            run_synth(cx, &prog);
        };
        let serial = coverage::exhaustive_check_parallel(run, &CoverageOptions::default(), 1);
        for threads in [1usize, 4] {
            let par = exhaustive_check_parallel(run, &CoverageOptions::default(), threads);
            assert_eq!(par.runs, serial.runs, "seed {seed}");
            assert_eq!(
                par.report.racy_locs(),
                serial.report.racy_locs(),
                "seed {seed} threads {threads}"
            );
            assert_eq!(par.findings.len(), serial.findings.len());
            for (a, b) in par.findings.iter().zip(&serial.findings) {
                assert_eq!(a.0, b.0, "finding order must be deterministic");
            }
        }
    }
}
