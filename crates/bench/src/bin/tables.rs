//! Regenerate the paper's Figure 7 and Figure 8 overhead tables.
//!
//! ```sh
//! cargo run -p rader-bench --release --bin tables            # paper scale
//! cargo run -p rader-bench --release --bin tables -- --small # test scale
//! cargo run -p rader-bench --release --bin tables -- --reps 5
//! ```
//!
//! Absolute numbers depend on the simulator substrate; the claims to
//! compare against the paper are the *shapes*: Peer-Set ≪ SP+, fib and
//! knapsack dominating the SP+ columns (tiny strands), ferret cheap, and
//! "Check reductions" ≥ "Check updates" ≥ "No steals".

use rader_bench::{
    figure7_rows, figure8_rows, geomean, geomean_excluding, print_characterization, print_table,
};
use rader_workloads::Scale;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--small") {
        Scale::Small
    } else {
        Scale::Paper
    };
    let reps = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3usize);

    println!("Rader evaluation tables (scale: {scale:?}, reps: {reps}, min-of-reps timing)");
    print_characterization(scale);

    let f7 = figure7_rows(scale, reps);
    print_table(
        "Figure 7: Rader's overhead over running the benchmarks without instrumentation",
        "no instrumentation",
        &f7,
    );
    println!(
        "\npaper reference: Peer-Set geomean 2.32 (range 1.03-5.95); \
         SP+ 'Check reductions' geomean 16.76 (range 3.94-75.60)"
    );
    println!(
        "measured:        Peer-Set geomean {:.2}; SP+ 'Check reductions' geomean {:.2}",
        geomean(&f7, 0),
        geomean(&f7, 3)
    );

    let f8 = figure8_rows(scale, reps);
    print_table(
        "Figure 8: Rader's overhead over running the benchmarks with an empty tool",
        "empty tool",
        &f8,
    );
    println!(
        "\npaper reference: Peer-Set geomean 1.84 (range 1.00-3.89); \
         SP+ 'Check reductions' geomean 7.27 excluding ferret (range 3.04-15.68)"
    );
    println!(
        "measured:        Peer-Set geomean {:.2}; SP+ 'Check reductions' geomean {:.2} \
         ({:.2} excluding ferret)",
        geomean(&f8, 0),
        geomean(&f8, 3),
        geomean_excluding(&f8, 3, "ferret"),
    );
}
