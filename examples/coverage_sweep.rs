//! Section-7 coverage in action: how many steal specifications does
//! exhaustive checking need, and what do they elicit?
//!
//! ```sh
//! cargo run --release --example coverage_sweep
//! ```

use rader::cilk::synth::{nested_spawns, run_synth};
use rader::core::coverage::{
    count_elicited_reduce_ops, reduce_coverage_specs, update_coverage_specs,
};
use rader::core::{coverage, CoverageOptions};
use rader_cilk::SerialEngine;

fn main() {
    // ------------------------------------------------------------------
    // Theorem 7: distinct reduce operations elicited on a K-spawn block.
    // ------------------------------------------------------------------
    println!("Theorem 7 — reduce-op coverage on a flat K-spawn sync block");
    println!(
        "{:>4} {:>8} {:>14} {:>12}",
        "K", "specs", "elicited ops", "C(K,3)"
    );
    for k in [3u32, 4, 5, 6, 8] {
        let specs = reduce_coverage_specs(k);
        let (distinct, nspecs) = count_elicited_reduce_ops(k, &specs);
        let choose3 = (k as usize) * (k as usize - 1) * (k as usize - 2) / 6;
        println!("{k:>4} {nspecs:>8} {distinct:>14} {choose3:>12}");
    }

    // ------------------------------------------------------------------
    // Theorem 6: update coverage by spawn count on nested spawns.
    // ------------------------------------------------------------------
    println!("\nTheorem 6 — update-coverage family sizes for nested spawns");
    println!("{:>4} {:>4} {:>10} {:>12}", "K", "D", "M (= K·D)", "specs");
    for (k, d) in [(2u32, 2u32), (3, 2), (3, 3), (4, 3)] {
        let prog = nested_spawns(k, d);
        let stats = SerialEngine::new().run(|cx| {
            run_synth(cx, &prog);
        });
        let m = stats.max_spawn_count;
        let specs = update_coverage_specs(m);
        println!("{k:>4} {d:>4} {m:>10} {:>12}", specs.len());
        assert_eq!(m, k * (d + 1));
    }

    // ------------------------------------------------------------------
    // The full sweep on an ostensibly deterministic program.
    // ------------------------------------------------------------------
    let prog = nested_spawns(3, 2);
    let rep = coverage::exhaustive_check_parallel(
        |cx| {
            run_synth(cx, &prog);
        },
        &CoverageOptions::default(),
        1,
    );
    println!(
        "\nexhaustive sweep on nested_spawns(3,2): {} runs (K = {}, M = {}), races: {}",
        rep.runs,
        rep.k,
        rep.m,
        rep.report.has_races()
    );
    assert!(!rep.report.has_races());

    println!("coverage_sweep OK");
}
