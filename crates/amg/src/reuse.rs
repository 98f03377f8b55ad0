//! Cross-setup reuse of AMG-setup SpGEMM structure.
//!
//! Repeated setups over operators whose **sparsity** is unchanged repeat
//! the same sequence of Galerkin products over unchanged structures.
//! [`AmgReuse`] keeps one [`ParSpgemmPlan`] per product in setup's
//! (collectively deterministic) call order; a matching structure replays
//! the numeric pass alone, a mismatch falls back to a fresh multiply and
//! re-records the plan at that position.
//!
//! The Picard driver does not use this store: its pressure operator is
//! bit-identical from one solve to the next (values included), so
//! `nalu_core::Simulation` keeps the whole hierarchy
//! ([`crate::AmgPrecond::reuse_or_setup`]) and every setup it still runs
//! is a first setup. The store remains for callers whose operator
//! values do change between setups.
//!
//! Correctness relies on two invariants:
//!
//! - **Collective agreement**: `ParSpgemmPlan::matches` allreduces the
//!   per-rank verdict, so every rank takes the replay-or-fresh branch
//!   together (the sparse exchanges inside both paths would otherwise
//!   deadlock). The cursor itself advances identically on all ranks
//!   because hierarchy setup makes the same product calls everywhere.
//! - **Bitwise fidelity**: replay reproduces the fresh hash
//!   accumulation order exactly (see `distmat::ops`), so a run with
//!   reuse is bit-identical to one without — `tests/determinism.rs`
//!   holds this across thread counts and transports.

use distmat::ops::{par_spgemm_planned, ParSpgemmPlan};
use distmat::ParCsr;
use parcomm::Rank;

/// A cursor-driven store of SpGEMM plans for one recurring AMG setup
/// (one equation/mesh pair). See the module docs.
#[derive(Clone, Debug, Default)]
pub struct AmgReuse {
    plans: Vec<ParSpgemmPlan>,
    cursor: usize,
}

impl AmgReuse {
    /// Fresh, empty store: the first setup through it plans everything.
    pub fn new() -> AmgReuse {
        AmgReuse::default()
    }

    /// Rewind to the first plan; call at the start of each setup.
    pub fn begin(&mut self) {
        self.cursor = 0;
    }

    /// C = A·B, replaying the recorded plan at the cursor when the
    /// structures still match (collective decision), else multiplying
    /// fresh and re-recording. Collective.
    pub fn spgemm(&mut self, rank: &Rank, a: &ParCsr, b: &ParCsr) -> ParCsr {
        if let Some(plan) = self.plans.get(self.cursor) {
            if plan.matches(rank, a, b) {
                let c = plan.execute(rank, a, b);
                self.cursor += 1;
                return c;
            }
        }
        let (plan, c) = par_spgemm_planned(rank, a, b);
        if self.cursor < self.plans.len() {
            self.plans[self.cursor] = plan;
        } else {
            self.plans.push(plan);
        }
        self.cursor += 1;
        c
    }

    /// Drop plans past the cursor (a shallower hierarchy than last
    /// time); call at the end of a successful setup.
    pub fn finish(&mut self) {
        self.plans.truncate(self.cursor);
    }

    /// Recorded plans (observability/tests).
    pub fn n_plans(&self) -> usize {
        self.plans.len()
    }

    /// Plans consumed (hit or re-recorded) since [`Self::begin`].
    pub fn cursor(&self) -> usize {
        self.cursor
    }
}
