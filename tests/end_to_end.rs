//! Cross-crate integration tests: the full benchmark suite through every
//! detector configuration, the paper's running examples, and the public
//! API surface.

use rader::core::{
    coverage, CoverageOptions, ExhaustiveReport, PeerSet, RaceReport, Rader, SpPlus,
};
use rader::prelude::*;
use rader::workloads::{self, fig1, Scale};
use rader_cilk::{BlockScript, ProgramTrace, ViewMem, ViewMonoid};

/// Every benchmark in the suite validates its result (each workload
/// asserts against its serial reference internally) and is clean under
/// both detectors and several steal specifications.
#[test]
fn suite_is_correct_and_race_free_under_all_configs() {
    for w in workloads::suite(Scale::Small) {
        // Uninstrumented run (the workload self-validates).
        SerialEngine::new().run(|cx| (w.run)(cx));

        // Peer-Set.
        let mut peerset = PeerSet::new();
        SerialEngine::new().run_tool(&mut peerset, |cx| (w.run)(cx));
        assert!(
            !peerset.report().has_races(),
            "{}: {}",
            w.name,
            peerset.report()
        );

        // SP+ under the paper's three configurations.
        for spec in [
            StealSpec::None,
            StealSpec::EveryBlock(BlockScript::steals(vec![1, 2, 3])),
            StealSpec::Random {
                seed: 0xbe9c4,
                max_block: 8,
                steals_per_block: 3,
            },
            StealSpec::AtSpawnCount(2),
        ] {
            let mut spplus = SpPlus::new();
            SerialEngine::with_spec(spec.clone()).run_tool(&mut spplus, |cx| (w.run)(cx));
            assert!(
                !spplus.report().has_races(),
                "{} under {:?}: {}",
                w.name,
                spec,
                spplus.report()
            );
        }
    }
}

/// Workload results are identical across steal specifications (the
/// engine-level reducer determinism contract, at suite scale).
#[test]
fn suite_results_are_schedule_invariant() {
    for w in workloads::suite(Scale::Small) {
        for spec in [
            StealSpec::EveryBlock(BlockScript::steals(vec![1])),
            StealSpec::Random {
                seed: 7,
                max_block: 4,
                steals_per_block: 2,
            },
        ] {
            // The workload closures assert their expected outputs, so a
            // schedule-dependent result panics here.
            SerialEngine::with_spec(spec).run(|cx| (w.run)(cx));
        }
    }
}

#[test]
fn figure1_buggy_and_fixed_end_to_end() {
    // Buggy: caught by the sweep; Fixed: clean under the same sweep.
    let sweep = coverage::exhaustive_check_parallel(
        |cx| {
            fig1::race_program(cx, 10);
        },
        &CoverageOptions::default(),
        1,
    );
    assert!(sweep.report.has_races());
    let sweep = coverage::exhaustive_check_parallel(
        |cx| {
            fig1::race_program_fixed(cx, 10);
        },
        &CoverageOptions::default(),
        1,
    );
    assert!(!sweep.report.has_races(), "{}", sweep.report);
}

#[test]
fn racy_knapsack_heuristic_flagged_only_by_peerset() {
    use rader::workloads::knapsack;
    let inst = knapsack::gen_instance(8, 5);
    let rader = Rader::new();
    let vr = rader.check_view_read(|cx| {
        knapsack::knapsack_racy_program(cx, &inst);
    });
    assert_eq!(vr.view_read.len(), 1);
    // The mid-computation get reads the view cell that parallel updates
    // write — SP+ additionally sees a determinacy race on the view cell.
    let det = rader.check_determinacy(StealSpec::None, |cx| {
        knapsack::knapsack_racy_program(cx, &inst);
    });
    assert!(det.view_read.is_empty());
}

#[test]
fn prelude_surface_works() {
    // Exercise the re-exported API exactly as the README shows it.
    let mut collected = Vec::new();
    SerialEngine::new().run(|cx| {
        let list = ListMonoid::register(cx);
        let best = Max::register(cx);
        let lo = Min::register(cx);
        cx.par_for(0..10, 2, &mut |cx, i| {
            list.push_back(cx, i as Word);
            best.update(cx, i as Word);
            lo.update(cx, i as Word);
        });
        cx.sync();
        collected = list.to_vec(cx);
        assert_eq!(best.get(cx), 9);
        assert_eq!(lo.get(cx), 0);
    });
    assert_eq!(collected, (0..10).collect::<Vec<Word>>());
}

#[test]
fn parallel_runtime_agrees_with_serial_engine() {
    use rader::cilk::par::ParRuntime;
    // The same logical program on both execution substrates.
    let serial = {
        let mut out = Vec::new();
        SerialEngine::new().run(|cx| {
            let list = ListMonoid::register(cx);
            for i in 0..32 {
                cx.spawn(move |cx| list.push_back(cx, i));
            }
            cx.sync();
            out = list.to_vec(cx);
        });
        out
    };
    let (_stats, parallel) = ParRuntime::new(4).run(|cx| {
        let list = ListMonoid::register(cx);
        for i in 0..32 {
            cx.spawn(move |cx| list.push_back(cx, i));
        }
        cx.sync();
        list.to_vec(cx)
    });
    assert_eq!(serial, parallel);
}

/// The Touchy monoid's reduce writes a shared user cell. During replay the
/// reduce body runs for real and writes a `Loc` captured in the record
/// run — valid because the arenas are address-identical.
struct Touchy {
    cell: Loc,
}

impl ViewMonoid for Touchy {
    fn create_identity(&self, m: &mut ViewMem<'_>) -> Loc {
        m.alloc(1)
    }
    fn reduce(&self, m: &mut ViewMem<'_>, left: Loc, right: Loc) {
        let r = m.read(right);
        let l = m.read(left);
        m.write(left, l + r);
        m.write(self.cell, 1);
    }
    fn update(&self, m: &mut ViewMem<'_>, view: Loc, op: &[Word]) {
        let v = m.read(view);
        m.write(view, v + op[0]);
    }
}

/// The sweep (record once, replay per spec, re-execute a spec only when
/// its replay diverges) against the Section-7 plan run the slow, obvious
/// way: every spec re-executes the program under a fresh SP+, and the
/// reports merge in spec order.
///
/// pbfs walks its bag view after each sync, and the bag's pennant
/// structure depends on the reduce tree the steal schedule built, so a
/// fresh run performs slightly different numbers of oblivious reads than
/// the recorded no-steal walk. For such view-derived post-sync scans the
/// replay contract is report-identity, not stream-identity (DESIGN.md
/// §5b): reports and findings agree exactly while check counts drift
/// within ±1%. The view-aliasing synth programs make some specs diverge,
/// so seed 0 exercises the per-spec fallback.
#[test]
fn sweep_matches_per_spec_reexecution() {
    use rader::cilk::synth::{gen_program, run_synth, GenConfig};
    use rader::core::coverage::{reduce_coverage_specs, update_coverage_specs};
    use rader::workloads::{knapsack, pbfs};
    use std::sync::Arc;

    /// Sweep `program`, assert it agrees with the reference, and return
    /// the sweep with the reference's SP+ check count. The reference runs
    /// every spec under a fresh SP+, by re-execution or, with `replay`,
    /// by replaying the program's no-steal trace (re-executing exactly
    /// where the sweep falls back).
    fn check(
        name: &str,
        program: &(dyn Fn(&mut Ctx<'_>) + Sync),
        replay: bool,
    ) -> (ExhaustiveReport, u64) {
        let stats = SerialEngine::new().run(program);
        let (k, m) = (stats.max_sync_block, stats.max_spawn_count);
        let trace = replay.then(|| ProgramTrace::record(program));
        let mut specs = vec![StealSpec::None];
        specs.extend(update_coverage_specs(m));
        specs.extend(reduce_coverage_specs(k));
        let mut report = RaceReport::default();
        let mut findings = Vec::new();
        let mut checks = 0u64;
        for s in &specs {
            let mut tool = SpPlus::new();
            let engine = SerialEngine::with_spec(s.clone());
            if trace
                .as_ref()
                .is_none_or(|t| engine.replay_tool(&mut tool, t).is_err())
            {
                engine.run_tool(&mut tool, program);
            }
            checks += tool.checks;
            let r = tool.into_report();
            if r.has_races() {
                findings.push((s.clone(), r.clone()));
            }
            report.merge(&r);
        }

        let sweep = coverage::exhaustive_check_parallel(program, &CoverageOptions::default(), 1);
        assert_eq!((sweep.k, sweep.m), (k, m), "{name}");
        assert_eq!(sweep.runs, specs.len(), "{name}");
        assert_eq!(sweep.report, report, "{name}: reports must agree");
        assert_eq!(sweep.findings, findings, "{name}");
        (sweep, checks)
    }

    let touchy = |cx: &mut Ctx<'_>| {
        let cell = cx.alloc(1);
        let h = cx.new_reducer(Arc::new(Touchy { cell }));
        cx.spawn(move |cx| cx.write(cell, 7));
        cx.spawn(move |cx| cx.reducer_update(h, &[1]));
        cx.reducer_update(h, &[2]);
        cx.sync();
    };
    let (sweep, checks) = check("touchy", &touchy, false);
    assert!(sweep.report.has_races());
    assert_eq!(sweep.replayed, sweep.runs);
    assert_eq!(sweep.spplus_checks, checks);

    let cfg = GenConfig {
        view_aliasing: true,
        size: 30,
        ..GenConfig::default()
    };
    for seed in [0u64, 5, 11, 23, 37] {
        let prog = gen_program(seed, &cfg);
        let run = |cx: &mut Ctx<'_>| {
            run_synth(cx, &prog);
        };
        let (sweep, checks) = check(&format!("aliasing seed {seed}"), &run, false);
        if seed == 0 {
            // A diverging replay's checks count as well as its fallback's.
            assert!(sweep.replayed < sweep.runs, "the fallback never engaged");
        } else {
            assert_eq!(sweep.replayed, sweep.runs, "seed {seed} fell back");
            assert_eq!(sweep.spplus_checks, checks, "seed {seed}");
        }
    }

    let g = pbfs::gen_graph(64, 4, 7);
    let (sweep, checks) = check(
        "pbfs",
        &|cx| {
            pbfs::pbfs_program(cx, &g, 0);
        },
        false,
    );
    assert!(!sweep.report.has_races(), "pbfs is race-free");
    assert_eq!(sweep.replayed, sweep.runs);
    let (a, b) = (sweep.spplus_checks as f64, checks as f64);
    assert!(
        (a - b).abs() / b < 0.01,
        "check-count drift exceeded the documented ±1% bound: \
         sweep {a} vs re-execution {b}"
    );

    // Racy corpora: every spec races, so the pooled detector must forget
    // each run's race marks before the next. knapsack-racy feeds a racy
    // mid-computation `get` into its pruning, so it is not ostensibly
    // deterministic: a re-execution under a steal spec explores a
    // different search tree than the recorded one, outside the replay
    // contract (DESIGN.md §5b). Its reference therefore replays too.
    let (pbfs_racy, pbfs_checks) = check(
        "pbfs-racy",
        &|cx| {
            pbfs::pbfs_racy_program(cx, &g, 0);
        },
        false,
    );
    let inst = knapsack::gen_instance(8, 3);
    let (knapsack_racy, knapsack_checks) = check(
        "knapsack-racy",
        &|cx| {
            knapsack::knapsack_racy_program(cx, &inst);
        },
        true,
    );
    for (name, sweep, checks) in [
        ("pbfs-racy", pbfs_racy, pbfs_checks),
        ("knapsack-racy", knapsack_racy, knapsack_checks),
    ] {
        assert_eq!(sweep.findings.len(), sweep.runs, "{name}: every spec races");
        assert_eq!(sweep.replayed, sweep.runs, "{name}");
        assert_eq!(sweep.spplus_checks, checks, "{name}");
    }
}

#[test]
fn detectors_compose_with_every_builtin_monoid() {
    // One program touching every builtin reducer; clean everywhere.
    let program = |cx: &mut Ctx<'_>| {
        let add = OpAdd::register(cx);
        let mul = OpMul::register(cx);
        let bag = BagMonoid::register(cx);
        let out = OstreamMonoid::register(cx);
        let list = ListMonoid::register(cx);
        for i in 1..=8 {
            cx.spawn(move |cx| {
                add.add(cx, i);
                mul.update(cx, if i % 3 == 0 { 2 } else { 1 });
                bag.insert(cx, i);
                out.emit(cx, &[i, i * i]);
                list.push_back(cx, i);
            });
        }
        cx.sync();
        assert_eq!(add.get(cx), 36);
        assert_eq!(mul.get(cx), 4);
        assert_eq!(bag.count(cx), 8);
        assert_eq!(out.records(cx), 8);
        assert_eq!(list.to_vec(cx), (1..=8).collect::<Vec<Word>>());
    };
    let rader = Rader::new();
    assert!(!rader.check_view_read(program).has_races());
    for spec in [
        StealSpec::EveryBlock(BlockScript::steals(vec![2, 5])),
        StealSpec::Random {
            seed: 1,
            max_block: 8,
            steals_per_block: 3,
        },
    ] {
        let r = rader.check_determinacy(spec.clone(), program);
        assert!(!r.has_races(), "under {spec:?}: {r}");
    }
}
