//! Replay-fidelity differential suite.
//!
//! The trace/replay layer (`rader_cilk::replay`) claims that for an
//! ostensibly deterministic program, SP+ on a replayed trace is
//! *indistinguishable* from SP+ on a fresh re-execution under the same
//! steal specification. This suite checks the claim byte-for-byte:
//! random synth programs × random steal specs, fresh `RaceReport` vs
//! replayed `RaceReport` compared with `==` (and `RunStats` too).
//!
//! View-aliasing programs are included. For those, a replay may
//! legitimately refuse (`ReplayError::ViewDivergence`) when a spec makes
//! an aliased `get_view` result schedule-dependent — that is the
//! documented fallback contract, not an infidelity — so divergence is
//! permitted *only* in the aliasing configuration, and every replay that
//! does succeed must still match exactly.

use rader_cilk::synth::{gen_program, run_synth, GenConfig};
use rader_cilk::{BlockOp, BlockScript, Ctx, ProgramTrace, RunStats, SerialEngine, StealSpec};
use rader_core::SpPlus;
use rader_rng::Rng;

/// A random `EveryBlock` script: strictly increasing steal indices with
/// reduces sprinkled between them.
fn random_script(rng: &mut Rng) -> BlockScript {
    let steals = 1 + rng.below(3);
    let mut ops = Vec::new();
    let mut idx = 0u32;
    for _ in 0..steals {
        idx += 1 + rng.below(3) as u32;
        ops.push(BlockOp::Steal(idx));
        if rng.gen_bool(0.4) {
            ops.push(BlockOp::Reduce);
        }
    }
    BlockScript::new(ops)
}

/// A random steal specification drawn from all three spec shapes.
fn random_spec(rng: &mut Rng, stats: &RunStats) -> StealSpec {
    match rng.below(3) {
        0 => StealSpec::EveryBlock(random_script(rng)),
        1 => StealSpec::Random {
            seed: rng.next_u64(),
            max_block: stats.max_sync_block.max(1),
            steals_per_block: 1 + rng.below(3) as u32,
        },
        _ => StealSpec::AtSpawnCount(1 + rng.below(stats.max_spawn_count.max(1) as u64) as u32),
    }
}

#[test]
fn replayed_spplus_is_byte_identical_to_fresh_execution() {
    // (label, config, may replay refuse with ViewDivergence?)
    let corpora: &[(&str, GenConfig, bool)] = &[
        ("plain", GenConfig::default(), false),
        (
            "aliasing",
            GenConfig {
                view_aliasing: true,
                reducer_reads: false,
                ..GenConfig::default()
            },
            true,
        ),
    ];
    let mut ok_cases = 0usize;
    let mut diverged = 0usize;
    for (label, cfg, divergence_allowed) in corpora {
        for seed in 0..60u64 {
            let prog = gen_program(seed, cfg);
            let run = |cx: &mut Ctx<'_>| {
                run_synth(cx, &prog);
            };
            let trace = ProgramTrace::record(run);
            let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37).wrapping_add(7));
            for case in 0..4u32 {
                let spec = random_spec(&mut rng, trace.stats());
                let mut fresh = SpPlus::new();
                let fresh_stats = SerialEngine::with_spec(spec.clone()).run_tool(&mut fresh, run);
                let mut replayed = SpPlus::new();
                match SerialEngine::with_spec(spec.clone()).replay_tool(&mut replayed, &trace) {
                    Ok(replay_stats) => {
                        assert_eq!(
                            replayed.report(),
                            fresh.report(),
                            "corpus {label} seed {seed} case {case} spec {spec:?}: \
                             replayed report differs from fresh report"
                        );
                        assert_eq!(
                            replay_stats, fresh_stats,
                            "corpus {label} seed {seed} case {case} spec {spec:?}: \
                             replayed RunStats differ from fresh RunStats"
                        );
                        ok_cases += 1;
                    }
                    Err(e) => {
                        assert!(
                            *divergence_allowed,
                            "corpus {label} seed {seed} case {case} spec {spec:?}: \
                             replay refused unexpectedly: {e}"
                        );
                        diverged += 1;
                    }
                }
            }
        }
    }
    // The acceptance bar: at least 100 replayed cases compared equal,
    // and the aliasing corpus actually exercised the refusal path.
    assert!(
        ok_cases >= 100,
        "only {ok_cases} replayed cases compared (need >= 100); \
         {diverged} diverged"
    );
    assert!(
        diverged > 0,
        "aliasing corpus never triggered divergence; the fallback \
         contract is untested"
    );
}
