//! The paper's Figure 1, end to end: the shallow-copy list bug whose
//! determinacy race hides inside a `Reduce` operation.
//!
//! ```sh
//! cargo run --release --example fig1_list_race
//! ```
//!
//! Demonstrates:
//! 1. the buggy program is clean on the no-steal schedule (why Cilk
//!    Screen-style single-schedule checking misses it);
//! 2. a steal specification that makes the race bite, with the racing
//!    access attributed to a `Reduce` strand;
//! 3. the Section-7 exhaustive sweep finding it with no hand-picked
//!    specification;
//! 4. the deep-copy fix coming back clean under the full sweep.

use rader::core::{coverage, CoverageOptions, Rader};
use rader::workloads::fig1;
use rader_cilk::{BlockScript, StealSpec};

fn main() {
    let rader = Rader::new();

    println!("=== Figure 1: the shallow-copy list race ===\n");

    // 1. Single no-steal schedule: nothing to see.
    let report = rader.check_determinacy(StealSpec::None, |cx| {
        fig1::race_program(cx, 16);
    });
    println!("SP+ with no steals (the serial schedule):\n{report}");
    assert!(!report.has_races());

    // 2. Steal the scanner's continuation: the scan now overlaps
    //    update_list, and the final Reduce splices onto the shared tail.
    let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1]));
    let report = rader.check_determinacy(spec, |cx| {
        fig1::race_program(cx, 16);
    });
    println!("SP+ stealing continuation 1 of every sync block:\n{report}");
    assert!(report.has_races());
    let reduce_involved = report.determinacy.iter().any(|r| {
        r.current.kind == rader_cilk::AccessKind::Reduce
            || r.prior.kind == rader_cilk::AccessKind::Reduce
    });
    println!("race involves a Reduce strand: {reduce_involved}\n");

    // 3. No hand-picked spec: the Theorem-6/7 coverage sweep.
    let sweep = coverage::exhaustive_check_parallel(
        |cx| {
            fig1::race_program(cx, 12);
        },
        &CoverageOptions::default(),
        1,
    );
    println!(
        "exhaustive sweep: {} SP+ runs (K = {}, M = {}):\n{}",
        sweep.runs, sweep.k, sweep.m, sweep.report
    );
    assert!(sweep.report.has_races());

    // 4. The fix: a deep copy. Clean under the same sweep.
    let sweep = coverage::exhaustive_check_parallel(
        |cx| {
            fig1::race_program_fixed(cx, 12);
        },
        &CoverageOptions::default(),
        1,
    );
    println!(
        "deep-copy fix under the same sweep ({} runs): {}",
        sweep.runs, sweep.report
    );
    assert!(!sweep.report.has_races());

    // Bonus: the view-read-race variant from Section 2.
    let report = rader.check_view_read(|cx| {
        fig1::update_list_premature_get(cx, 8);
    });
    println!("Peer-Set on update_list with a premature get_value:\n{report}");
    assert_eq!(report.view_read.len(), 1);

    println!("fig1_list_race OK");
}
