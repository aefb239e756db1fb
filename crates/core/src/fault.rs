//! Deterministic fault injection for the exhaustive sweep.
//!
//! The sweep's fault-tolerance machinery — worker `catch_unwind`,
//! quarantine, journal checkpointing under interruption — is only
//! trustworthy if it can be *exercised on demand*. A [`FaultPlan`] is a
//! seeded, pure function from spec index to [`Fault`]: the same plan
//! injects the same panics and delays at the same spec boundaries on
//! every run and every thread count, so a test (or the
//! `--fault-seed` / `--fault-panic-at` CLI flags) can pin "spec 5
//! panics, everything else completes, spec 5 is quarantined" as an exact
//! expectation rather than a probabilistic one.
//!
//! Determinism contract (same as the `rader-rng` crate this is styled
//! after): the draw for spec index `i` is `splitmix64(seed ⊕ φ·i)` — a
//! one-shot hash, not a shared stream — so workers racing over chunks in
//! any order still see identical faults per spec.

use std::collections::BTreeSet;
use std::time::Duration;

use rader_rng::splitmix64;

/// Weyl increment (odd, irrational-ratio constant) decorrelating
/// per-index seeds; the same constant splitmix64 itself advances by.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// What to inject at one spec boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Run the spec normally.
    None,
    /// Panic before the spec's SP+ run starts.
    Panic,
    /// Sleep for the duration, then run normally (exercises budget
    /// deadlines and checkpoint interleavings without corrupting
    /// results).
    Delay(Duration),
}

/// A seeded, deterministic schedule of injected faults.
///
/// Rate-based faults draw per spec index; exact faults ([`FaultPlan::
/// panic_at`]) fire unconditionally at the named indices. Exact faults
/// win over rate draws, and panics win over delays.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    panic_rate: f64,
    delay_rate: f64,
    delay: Duration,
    panic_at: BTreeSet<usize>,
}

impl FaultPlan {
    /// A plan that injects nothing (until configured).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The plan's seed (echoed into injected panic payloads).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Panic before a spec's run with probability `rate` per spec.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sleep `delay` before a spec's run with probability `rate` per
    /// spec.
    pub fn with_delay(mut self, rate: f64, delay: Duration) -> Self {
        self.delay_rate = rate.clamp(0.0, 1.0);
        self.delay = delay;
        self
    }

    /// Unconditionally panic at spec index `index` (repeatable; indices
    /// accumulate).
    pub fn panic_at(mut self, index: usize) -> Self {
        self.panic_at.insert(index);
        self
    }

    /// True if the plan can never inject anything.
    pub fn is_empty(&self) -> bool {
        self.panic_at.is_empty() && self.panic_rate == 0.0 && self.delay_rate == 0.0
    }

    /// The fault (if any) to inject before running spec `index`. Pure:
    /// depends only on the plan and the index.
    pub fn fault_for(&self, index: usize) -> Fault {
        if self.panic_at.contains(&index) {
            return Fault::Panic;
        }
        if self.panic_rate == 0.0 && self.delay_rate == 0.0 {
            return Fault::None;
        }
        let mut state = self.seed ^ (index as u64).wrapping_mul(PHI);
        let draw = splitmix64(&mut state);
        // 53 uniform mantissa bits → [0, 1), the rand/rader-rng
        // construction.
        let unit = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if unit < self.panic_rate {
            Fault::Panic
        } else if unit < self.panic_rate + self.delay_rate {
            Fault::Delay(self.delay)
        } else {
            Fault::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let plan = FaultPlan::new(7);
        assert!(plan.is_empty());
        for i in 0..1000 {
            assert_eq!(plan.fault_for(i), Fault::None);
        }
    }

    #[test]
    fn exact_panics_fire_only_at_their_indices() {
        let plan = FaultPlan::new(1).panic_at(5).panic_at(9);
        assert!(!plan.is_empty());
        for i in 0..20 {
            let want = if i == 5 || i == 9 {
                Fault::Panic
            } else {
                Fault::None
            };
            assert_eq!(plan.fault_for(i), want, "index {i}");
        }
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(42).with_panic_rate(0.3);
        let b = FaultPlan::new(42).with_panic_rate(0.3);
        let c = FaultPlan::new(43).with_panic_rate(0.3);
        let draws_a: Vec<_> = (0..256).map(|i| a.fault_for(i)).collect();
        let draws_b: Vec<_> = (0..256).map(|i| b.fault_for(i)).collect();
        let draws_c: Vec<_> = (0..256).map(|i| c.fault_for(i)).collect();
        assert_eq!(draws_a, draws_b);
        assert_ne!(draws_a, draws_c);
        let panics = draws_a.iter().filter(|f| **f == Fault::Panic).count();
        // 256 draws at p=0.3: expect ~77; a generous window guards the
        // mapping without flaking.
        assert!((40..=120).contains(&panics), "{panics} panics of 256");
    }

    #[test]
    fn rates_partition_panic_then_delay() {
        let d = Duration::from_millis(2);
        let plan = FaultPlan::new(9).with_panic_rate(0.5).with_delay(0.5, d);
        let mut saw_panic = false;
        let mut saw_delay = false;
        for i in 0..64 {
            match plan.fault_for(i) {
                Fault::Panic => saw_panic = true,
                Fault::Delay(got) => {
                    assert_eq!(got, d);
                    saw_delay = true;
                }
                Fault::None => panic!("rates sum to 1; index {i} drew None"),
            }
        }
        assert!(saw_panic && saw_delay);
    }

    #[test]
    fn rate_clamps_to_unit_interval() {
        let plan = FaultPlan::new(0).with_panic_rate(7.5);
        for i in 0..32 {
            assert_eq!(plan.fault_for(i), Fault::Panic, "index {i}");
        }
    }
}
