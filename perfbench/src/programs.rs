//! Seeded inputs and the programs each workload runs.
//!
//! Inputs come from the `rader-workloads` generators. Seed 0 reproduces
//! the `Scale::Paper` inputs of `rader suite --paper`; any other seed
//! re-seeds every generator at the same sizes. Programs receive only the
//! generated inputs; each run compares its output with the plain-Rust
//! reference computed at set-up and counts a mismatch instead of
//! panicking, so a wrong answer becomes a counted failure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rader::cilk::par::{ParCtx, ParRuntime, PoolStats};
use rader::cilk::{Ctx, Word};
use rader::reducers::{ListMonoid, Monoid, OpAdd, RedHandle};
use rader::workloads::{collision, dedup, ferret, fib, fig1, knapsack, pbfs, Workload};

/// The seed whose inputs are the paper-scale inputs.
pub const PAPER_SEED: u64 = 0;

/// Generator seed for one input: the paper's seed, moved by `seed`.
pub fn derive(paper: u64, seed: u64) -> u64 {
    paper ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Which race kind a program's verdict must report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// No race of either kind.
    Clean,
    /// At least one view-read race (Peer-Set).
    ViewRead,
    /// At least one determinacy race (SP+ sweep).
    Determinacy,
}

/// Executions of one program and how many returned a wrong output.
#[derive(Default, Debug)]
pub struct Outcome {
    runs: AtomicU64,
    wrong: AtomicU64,
}

impl Outcome {
    fn record(&self, ok: bool) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.wrong.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(runs, wrong)` so far.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.runs.load(Ordering::Relaxed),
            self.wrong.load(Ordering::Relaxed),
        )
    }
}

/// One detector program: a suite workload plus its expected verdict.
pub struct Program {
    /// What `rader::suite::check_workload` runs.
    pub workload: Workload,
    /// The verdict it must reach.
    pub expect: Expect,
    /// Output checks made by the program's own executions.
    pub outcome: Arc<Outcome>,
}

/// The generated inputs of the `verdict` workload, one per program (kept
/// for the seed-determinism check; programs own their own copies).
#[derive(Clone, Debug)]
pub enum Input {
    /// `fib(n)` has no generated input.
    Fib(u32),
    /// A knapsack instance.
    Knapsack(knapsack::Instance),
    /// A knapsack instance for the racy program.
    KnapsackRacy(knapsack::Instance),
    /// A collision scene.
    Collision(collision::Scene),
    /// A dedup stream.
    Dedup(dedup::Stream),
    /// A ferret corpus.
    Ferret(ferret::Corpus),
    /// A pbfs graph.
    Pbfs(pbfs::Graph),
    /// A pbfs graph for the racy program.
    PbfsRacy(pbfs::Graph),
    /// Figure 1's list length `n`.
    Fig1(u64),
}

/// The generated inputs of the `verdict` workload, in program order: the
/// deep programs (`fib`, `knapsack`), the wide ones (`collision`, `dedup`,
/// `ferret`, `pbfs`), then the racy ones (`knapsack-racy`, `pbfs-racy`,
/// `fig1-racy`).
pub fn inputs(seed: u64) -> Vec<Input> {
    let graph = pbfs::gen_graph(10_000, 5, derive(0x70626673, seed));
    vec![
        Input::Fib(22),
        Input::Knapsack(knapsack_instance(seed)),
        Input::Collision(collision::gen_scene(20, derive(0x636f6c, seed))),
        Input::Dedup(dedup::gen_stream(600, derive(0x646564, seed))),
        Input::Ferret(ferret::gen_corpus(1200, 8, derive(0x666572, seed))),
        Input::Pbfs(graph.clone()),
        // The racy knapsack prunes on a mid-flight reducer read, so its
        // work follows the values too: it keeps the paper instance.
        Input::KnapsackRacy(knapsack_instance(PAPER_SEED)),
        Input::PbfsRacy(graph),
        Input::Fig1(8),
    ]
}

/// The paper's 17 knapsack weights and capacity, with values drawn from
/// `seed` (seed 0 keeps the paper's values). The branch-and-bound tree
/// depends only on the weights and the capacity, so every seed is a new
/// instance of the same difficulty: re-drawing the weights moves its
/// verdict time by a quarter, which would swamp the bounds the benchmark
/// gates on.
pub fn knapsack_instance(seed: u64) -> knapsack::Instance {
    let mut inst = knapsack::gen_instance(17, 0x6b6e6170);
    if seed != PAPER_SEED {
        let mut rng = rader::rng::Rng::seed_from_u64(derive(0x6b6e6170, seed));
        inst.values = inst.values.iter().map(|_| rng.gen_range(1..30)).collect();
    }
    inst
}

/// Build the `verdict` workload's programs from its inputs: set-up, as
/// measured by `setup_s`.
pub fn detector_programs(seed: u64) -> Vec<Program> {
    inputs(seed).into_iter().map(program).collect()
}

type Run = Box<dyn Fn(&mut Ctx<'_>) + Sync>;

fn program(input: Input) -> Program {
    let outcome = Arc::new(Outcome::default());
    let out = outcome.clone();
    let (name, expect, run): (&'static str, Expect, Run) = match input {
        Input::Fib(n) => {
            let want = fib::fib_reference(n);
            let run = move |cx: &mut Ctx<'_>| out.record(fib::fib_program(cx, n) == want);
            ("fib", Expect::Clean, Box::new(run))
        }
        Input::KnapsackRacy(inst) => {
            let want = knapsack::knapsack_reference(&inst);
            let run = move |cx: &mut Ctx<'_>| {
                out.record(knapsack::knapsack_racy_program(cx, &inst) == want)
            };
            ("knapsack-racy", Expect::ViewRead, Box::new(run))
        }
        Input::Knapsack(inst) => {
            let want = knapsack::knapsack_reference(&inst);
            let run =
                move |cx: &mut Ctx<'_>| out.record(knapsack::knapsack_program(cx, &inst) == want);
            ("knapsack", Expect::Clean, Box::new(run))
        }
        Input::Collision(scene) => {
            let want = collision::collision_reference(&scene);
            let run = move |cx: &mut Ctx<'_>| {
                out.record(collision::collision_program(cx, &scene) == want)
            };
            ("collision", Expect::Clean, Box::new(run))
        }
        Input::Dedup(stream) => {
            let records = dedup::dedup_reference(&stream);
            let uniques = records.iter().filter(|r| r[0] == dedup::TAG_DATA).count();
            let want = (records.len() as Word, uniques as Word);
            let run = move |cx: &mut Ctx<'_>| out.record(dedup::dedup_program(cx, &stream) == want);
            ("dedup", Expect::Clean, Box::new(run))
        }
        Input::Ferret(corpus) => {
            let (hits, checksum) = ferret::ferret_reference(&corpus);
            let want = (hits.len() as Word, checksum);
            let run =
                move |cx: &mut Ctx<'_>| out.record(ferret::ferret_program(cx, &corpus) == want);
            ("ferret", Expect::Clean, Box::new(run))
        }
        Input::PbfsRacy(g) => {
            let want = pbfs::pbfs_reference(&g, 0);
            let run =
                move |cx: &mut Ctx<'_>| out.record(pbfs::pbfs_racy_program(cx, &g, 0) == want);
            ("pbfs-racy", Expect::Determinacy, Box::new(run))
        }
        Input::Pbfs(g) => {
            let want = pbfs::pbfs_reference(&g, 0);
            let run = move |cx: &mut Ctx<'_>| out.record(pbfs::pbfs_program(cx, &g, 0) == want);
            ("pbfs", Expect::Clean, Box::new(run))
        }
        // The buggy list program still scans the three pushed items:
        // the spawned scan runs before the racing update serially.
        Input::Fig1(n) => {
            let run = move |cx: &mut Ctx<'_>| out.record(fig1::race_program(cx, n) == 3);
            ("fig1-racy", Expect::Determinacy, Box::new(run))
        }
    };
    Program {
        workload: Workload {
            name,
            description: "",
            input_label: String::new(),
            run,
        },
        expect,
        outcome,
    }
}

/// `fib(n)` for the pool programs.
pub const POOL_FIB_N: u32 = 22;
const LIST_LEN: usize = 2048;
const SPIN_TASKS: u64 = 256;
const SPIN_STEPS: u64 = 20_000;

/// Inputs and serial references of the `pool` workload.
#[derive(Clone, Debug)]
pub struct PoolInput {
    /// Values appended, in order, to a `ListMonoid` reducer.
    pub list: Arc<[Word]>,
    /// Seed of the compute-heavy `par_for` bodies.
    pub spin_seed: u64,
    fib_want: Word,
    spin_want: Vec<Word>,
}

/// Generate the pool workload's inputs and their serial references.
pub fn pool_input(seed: u64) -> PoolInput {
    let mut rng = rader::rng::Rng::seed_from_u64(derive(0x706f6f6c, seed));
    let list: Arc<[Word]> = (0..LIST_LEN).map(|_| rng.gen_range(0..1 << 40)).collect();
    let spin_seed = rng.next_u64();
    PoolInput {
        list,
        spin_seed,
        fib_want: fib::fib_reference(POOL_FIB_N),
        spin_want: (0..SPIN_TASKS).map(|i| spin(spin_seed, i)).collect(),
    }
}

fn spin(seed: u64, i: u64) -> Word {
    let mut acc = seed ^ i;
    for _ in 0..SPIN_STEPS {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    (acc >> 1) as Word
}

/// Names of the pool programs, in run order.
pub const POOL_PROGRAMS: [&str; 3] = ["par_fib", "list_append", "par_for_spin"];

/// Run pool program `which` on `rt`; returns the pool's statistics and
/// whether the result equals the serial reference.
pub fn run_pool(rt: &ParRuntime, input: &PoolInput, which: usize) -> (PoolStats, bool) {
    match which {
        0 => {
            let (s, v) = rt.run(|cx| {
                let sum = OpAdd::register(cx);
                par_fib(cx, POOL_FIB_N, sum);
                cx.sync();
                sum.get(cx)
            });
            (s, v == input.fib_want)
        }
        1 => {
            let vals = input.list.clone();
            let (s, v) = rt.run(move |cx| {
                let list = ListMonoid::register(cx);
                let n = vals.len() as u64;
                cx.par_for(0..n, 8, move |cx, i| list.push_back(cx, vals[i as usize]));
                list.to_vec(cx)
            });
            (s, v[..] == input.list[..])
        }
        _ => {
            let seed = input.spin_seed;
            let (s, v) = rt.run(move |cx| {
                let out = cx.alloc(SPIN_TASKS as usize);
                cx.par_for(0..SPIN_TASKS, 1, move |cx, i| {
                    cx.write_idx(out, i as usize, spin(seed, i))
                });
                (0..SPIN_TASKS as usize)
                    .map(|i| cx.read_idx(out, i))
                    .collect::<Vec<_>>()
            });
            (s, v == input.spin_want)
        }
    }
}

fn par_fib(cx: &mut ParCtx<'_>, n: u32, sum: RedHandle<OpAdd>) {
    if n < 2 {
        sum.add(cx, n as Word);
        return;
    }
    cx.spawn(move |cx| par_fib(cx, n - 1, sum));
    par_fib(cx, n - 2, sum);
    cx.sync();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(seed: u64) -> Vec<String> {
        inputs(seed).iter().map(|i| format!("{i:?}")).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(fingerprint(7), fingerprint(7));
        let (seven, eight) = (fingerprint(7), fingerprint(8));
        // Every seeded input moves; fib, the racy knapsack and fig1 are fixed.
        for (i, (a, b)) in seven.iter().zip(&eight).enumerate() {
            assert_eq!(a == b, [0, 6, 8].contains(&i), "input {i}: {a:.40}");
        }
        let (a, b) = (pool_input(7), pool_input(7));
        assert_eq!((a.list, a.spin_seed), (b.list, b.spin_seed));
        assert_ne!(pool_input(8).list, pool_input(7).list);
    }

    #[test]
    fn paper_seed_reproduces_the_paper_scale_inputs() {
        let inputs = fingerprint(PAPER_SEED);
        let paper = format!("{:?}", knapsack::gen_instance(17, 0x6b6e6170));
        assert_eq!(inputs[1], format!("Knapsack({paper})"));
        assert_eq!(inputs[6], format!("KnapsackRacy({paper})"));
        let graph = format!("{:?}", pbfs::gen_graph(10_000, 5, 0x70626673));
        assert_eq!(inputs[5], format!("Pbfs({graph})"));
        assert_eq!(inputs[7], format!("PbfsRacy({graph})"));
    }
}
