//! Deterministic schedule fuzzing: a seeded perturbation wrapper around
//! any [`SchedPolicy`].
//!
//! The runtime is non-preemptive, so every schedule is a pure function
//! of the ready queue's decisions. [`Fuzzed`] wraps a policy and
//! perturbs a bounded number of those decisions using a splitmix64
//! stream advanced **only** at decision points — never from time,
//! thread ids or addresses — so a `(seed, budget)` pair names exactly
//! one execution order. Replaying the same scenario with the same pair
//! reproduces the same schedule byte-for-byte, which is what lets the
//! fuzz farm quarantine a divergent run with a working reproducer.
//!
//! Three perturbation kinds, drawn uniformly while budget remains:
//!
//! | kind | decision point | effect |
//! |------|----------------|--------|
//! | wake demotion | [`SchedPolicy::enqueue_woken`] | the woken thread is admitted as if freshly spawned (its residency snapshot is ignored), reordering it behind whatever the policy favours |
//! | dispatch delay | [`SchedPolicy::pop`] | the policy's chosen thread is re-admitted at the back and the runner-up dispatches instead |
//! | spawn hold | [`SchedPolicy::enqueue_new`] | the spawned thread is parked in a one-slot side pocket and admitted at the *next* decision point, shifting its arrival by one scheduling event |
//!
//! With `budget == 0` the wrapper is a strict pass-through: no draws
//! are taken and every call forwards verbatim, so `Fuzzed<FifoPolicy>`
//! with an empty budget is byte-identical to plain [`FifoPolicy`](crate::FifoPolicy) (a
//! property test pins this down).

use crate::fault::splitmix64;
use crate::sched::{SchedPolicy, SchedulingPolicy, WakeInfo};
use regwin_machine::ThreadId;

/// Seeded, budget-bounded schedule perturbation around an inner
/// [`SchedPolicy`]. See the [module docs](self) for the perturbation
/// kinds and the determinism contract.
///
/// The wrapper reports the inner policy's [`SchedPolicy::kind`], so a
/// fuzzed run files under the policy it perturbs; sweep job keys must
/// therefore carry the fuzz seed separately (the v6 `JobKey` does) or
/// disable the result cache.
#[derive(Debug)]
pub struct Fuzzed<P: SchedPolicy> {
    inner: P,
    state: u64,
    budget: u32,
    perturbed: u64,
    held: Option<ThreadId>,
}

impl<P: SchedPolicy> Fuzzed<P> {
    /// Wraps `inner`, seeding the perturbation stream with `seed` and
    /// allowing at most `budget` perturbations over the whole run.
    pub fn new(inner: P, seed: u64, budget: u32) -> Self {
        Fuzzed { inner, state: seed, budget, perturbed: 0, held: None }
    }

    /// Perturbations applied so far (never exceeds the budget).
    pub fn perturbations(&self) -> u64 {
        self.perturbed
    }

    /// Perturbations still allowed.
    pub fn remaining_budget(&self) -> u32 {
        self.budget
    }

    /// Draws from the decision stream and debits the budget if the draw
    /// says "perturb here" (roughly one decision in four).
    fn roll(&mut self) -> bool {
        if self.budget == 0 {
            return false;
        }
        let hit = splitmix64(&mut self.state).is_multiple_of(4);
        if hit {
            self.budget -= 1;
            self.perturbed += 1;
        }
        hit
    }

    /// Releases a held spawn, if any, into the inner queue. Called at
    /// every decision point so a parked thread is delayed by exactly
    /// one scheduling event and can never be lost.
    fn release_held(&mut self) {
        if let Some(t) = self.held.take() {
            self.inner.enqueue_new(t);
        }
    }
}

impl<P: SchedPolicy> SchedPolicy for Fuzzed<P> {
    fn kind(&self) -> SchedulingPolicy {
        self.inner.kind()
    }

    fn enqueue_new(&mut self, t: ThreadId) {
        self.release_held();
        if self.roll() {
            self.held = Some(t);
        } else {
            self.inner.enqueue_new(t);
        }
    }

    fn enqueue_woken(&mut self, t: ThreadId, wake: WakeInfo) {
        self.release_held();
        if self.roll() {
            self.inner.enqueue_new(t);
        } else {
            self.inner.enqueue_woken(t, wake);
        }
    }

    fn pop(&mut self) -> Option<ThreadId> {
        self.release_held();
        let first = self.inner.pop()?;
        if !self.inner.is_empty() && self.roll() {
            let second = self.inner.pop().expect("inner queue was non-empty");
            self.inner.enqueue_new(first);
            Some(second)
        } else {
            Some(first)
        }
    }

    fn len(&self) -> usize {
        // A held spawn is still queued from the scheduler's point of
        // view; excluding it would fake an idle queue and trip the
        // deadlock detector.
        self.inner.len() + usize::from(self.held.is_some())
    }

    fn uses_residency(&self) -> bool {
        self.inner.uses_residency()
    }
}

impl SchedPolicy for Box<dyn SchedPolicy> {
    fn kind(&self) -> SchedulingPolicy {
        (**self).kind()
    }

    fn enqueue_new(&mut self, t: ThreadId) {
        (**self).enqueue_new(t);
    }

    fn enqueue_woken(&mut self, t: ThreadId, wake: WakeInfo) {
        (**self).enqueue_woken(t, wake);
    }

    fn pop(&mut self) -> Option<ThreadId> {
        (**self).pop()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }

    fn uses_residency(&self) -> bool {
        (**self).uses_residency()
    }
}

/// Builds a fuzzed ready-queue implementation around the shipped policy
/// `kind` — the one-liner the fuzz farm hands to
/// [`Simulation::with_sched_policy`](crate::Simulation::with_sched_policy).
pub fn fuzzed_policy(kind: SchedulingPolicy, seed: u64, budget: u32) -> Box<dyn SchedPolicy> {
    Box::new(Fuzzed::new(kind.build(), seed, budget))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::FifoPolicy;

    fn t(n: usize) -> ThreadId {
        ThreadId::new(n)
    }

    fn drive<P: SchedPolicy>(p: &mut P, script: &[(u8, usize)]) -> Vec<Option<ThreadId>> {
        let mut popped = Vec::new();
        for &(op, n) in script {
            match op {
                0 => p.enqueue_new(t(n)),
                1 => p.enqueue_woken(t(n), WakeInfo::default()),
                _ => popped.push(p.pop()),
            }
        }
        popped
    }

    // A deterministic enqueue/pop script mixing all three call kinds.
    const SCRIPT: &[(u8, usize)] = &[
        (0, 0),
        (0, 1),
        (2, 0),
        (1, 2),
        (0, 3),
        (2, 0),
        (2, 0),
        (1, 0),
        (1, 1),
        (2, 0),
        (2, 0),
        (2, 0),
        (2, 0),
    ];

    #[test]
    fn zero_budget_is_a_strict_pass_through() {
        for seed in 0..32u64 {
            let mut plain = FifoPolicy::default();
            let mut fuzzed = Fuzzed::new(FifoPolicy::default(), seed, 0);
            assert_eq!(drive(&mut plain, SCRIPT), drive(&mut fuzzed, SCRIPT));
            assert_eq!(fuzzed.perturbations(), 0);
        }
    }

    #[test]
    fn same_seed_same_schedule_and_seeds_differ() {
        let run = |seed: u64| {
            let mut p = Fuzzed::new(FifoPolicy::default(), seed, 8);
            drive(&mut p, SCRIPT)
        };
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..64u64 {
            assert_eq!(run(seed), run(seed), "seed {seed} not reproducible");
            distinct.insert(run(seed));
        }
        assert!(distinct.len() > 1, "64 seeds never perturbed the schedule");
    }

    #[test]
    fn no_thread_is_lost_or_duplicated() {
        for seed in 0..64u64 {
            let mut p = Fuzzed::new(FifoPolicy::default(), seed, 16);
            for n in 0..6 {
                p.enqueue_new(t(n));
            }
            let mut seen = std::collections::BTreeSet::new();
            while let Some(id) = p.pop() {
                assert!(seen.insert(id), "thread {id:?} popped twice (seed {seed})");
            }
            assert_eq!(seen.len(), 6, "threads lost under seed {seed}");
            assert!(p.is_empty());
        }
    }

    #[test]
    fn budget_bounds_the_perturbation_count() {
        for budget in [1u32, 2, 5] {
            let mut p = Fuzzed::new(FifoPolicy::default(), 0xDEAD_BEEF, budget);
            for round in 0..50 {
                p.enqueue_new(t(round % 7));
                p.enqueue_woken(t((round + 1) % 7), WakeInfo::default());
                p.pop();
            }
            while p.pop().is_some() {}
            assert!(p.perturbations() <= u64::from(budget));
        }
    }

    #[test]
    fn kind_and_residency_delegate_to_the_inner_policy() {
        let p = Fuzzed::new(FifoPolicy::default(), 1, 4);
        assert_eq!(p.kind(), SchedulingPolicy::Fifo);
        assert!(!p.uses_residency());
        let boxed = fuzzed_policy(SchedulingPolicy::Aging, 1, 4);
        assert_eq!(boxed.kind(), SchedulingPolicy::Aging);
        assert!(boxed.uses_residency());
    }
}
