//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a list of [`FaultSpec`]s parsed from a plan
//! string and handed to the solver as `SolverConfig::faults`. Each spec
//! names a [`FaultKind`], a context
//! substring matched against the rank's current phase label, and the
//! occurrence window in which it fires.
//!
//! The rank owns its injector, beside its phase label and its telemetry
//! recorder: [`Rank::arm_faults`] arms a plan, solver hooks call
//! [`Rank::fault`] at well-defined points, and the injector counts
//! matching hook invocations per spec. The counters are per rank, so
//! whether a fault fires is a pure function of the solve sequence.
//!
//! With no plan armed, [`Rank::fault`] is one field read returning
//! `false`; an armed plan matches against the rank's phase label in
//! place, so no hook builds a context string (`kill-rank` formats its
//! `rank<r>` once per step).
//!
//! # Grammar
//!
//! ```text
//! plan  = spec (';' spec)*
//! spec  = kind '@' ctx [ ':' at [ 'x' count ] ]
//! kind  = 'assembly-nan' | 'halo-nan' | 'coarsen-stall' | 'socket-drop'
//!       | 'kill-rank'
//! ctx   = substring matched against the phase label (e.g. "continuity");
//!         kill-rank contexts are matched exactly (ctx == "rank<r>")
//! at    = 1-based index of the first matching occurrence to corrupt (default 1)
//! count = number of consecutive occurrences to corrupt (default 1)
//! ```
//!
//! Example: `assembly-nan@continuity:1` corrupts the first continuity
//! assembly; `halo-nan@momentum:2x3` flips halo payloads to NaN on the
//! 2nd, 3rd and 4th momentum halo exchanges; `kill-rank@rank1:3` kills
//! the rank-1 worker process at the top of its 3rd timestep (the hook
//! context is `rank<r>`, evaluated once per step).
//!
//! Occurrences are counted per matching hook invocation, so a broad
//! context can hit more sites than expected: `assembly-nan@continuity`
//! also counts AMG setup's transposes `R = Pᵀ` (`par_transpose`, phase
//! `continuity/precond setup`): they assemble no IJ matrix but host the
//! same hooks, once each before any send, so a value corrupted there
//! lands in R's first stored diag value. In that phase PMIS's exchanges
//! and its sums back to the owners, interpolation's id pulls and the
//! transposes host `socket-drop` too, and a drop at any of them reaches
//! the recovery ladder as a typed error (SpGEMM's row exchange hosts no
//! hook). Pin the context when targeting the fine system — e.g.
//! `assembly-nan@continuity/global` matches only the global assembly of
//! the continuity equation itself; that hook (and `socket-drop` there)
//! fires exactly once per solve attempt, before any message is sent.
//! An attempt that assembles the matrix fires it in the plan replay,
//! whether that also records its graph's plan (the first one) or not.
//! An attempt that **reuses** the operator cached with its graphs (every
//! Picard iteration after a mesh's first, while the graphs and `dt/ρ`
//! hold) assembles no matrix and fires both hooks at the same point
//! instead: `assembly-nan` then corrupts the right-hand side's first
//! owned value, which the finite scan rejects just the same. So
//! `assembly-nan@continuity/global:7` is the first pressure attempt of
//! step 4 at 2 Picard iterations per step on one mesh, either way.
//! Hooks inside AMG setup
//! (`coarsen-stall`, and anything matched through
//! `continuity/precond setup`) run only when a hierarchy is actually set
//! up: the Picard driver reuses the pressure hierarchy while the operator
//! is unchanged, so that is the first solve of each mesh plus one per
//! recovery eviction — not once per Picard iteration.
//!
//! `halo-nan` and `socket-drop` are hosted by halo *exchanges*:
//! `socket-drop` in `ParCsr::try_halo_begin`, before any send, `halo-nan`
//! in `HaloInFlight::try_finish`, after unpack — whether the two run back
//! to back (`try_halo_exchange`) or around the diag-block pass of an
//! overlapped SpMV/residual. Inside a solve that is one occurrence per
//! operator application: GMRES's residual and `A·z` products, and in a
//! preconditioner application the V-cycle's restriction residual, R, P
//! and every smoothing round **except a zero-guess round** — the first
//! round on a vector the preconditioner created as zeros takes `r = b`,
//! exchanges nothing, and so advances no counter (4 occurrences per
//! non-coarsest V-cycle level at one sweep, 1 per two-round SGS2
//! application). `halo-nan@continuity/solve:1` is GMRES's initial
//! residual. Seed later occurrences by probing (arm an occurrence far
//! out of reach and read [`Rank::fault_counters`]), not by arithmetic.

use std::fmt;

use crate::comm::Rank;

/// What kind of corruption a spec injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Corrupt an assembled COO/CSR coefficient to NaN at global assembly.
    AssemblyNan,
    /// Flip a halo-exchange payload entry to NaN after receive.
    HaloNan,
    /// Force AMG coarsening to stagnate (coarse grid stops shrinking).
    CoarsenStall,
    /// Abort a communication exchange as if the peer's socket dropped
    /// mid-solve. Fires *before* any message of the exchange is sent, so
    /// a retry after recovery re-runs a complete, clean exchange (no
    /// stale in-flight messages to mis-match); the counters are
    /// replicated per rank, so every rank aborts the same exchange.
    SocketDrop,
    /// Kill the worker *process* (simulated SIGKILL via `abort`) at the
    /// top of a timestep. The hook context is `rank<r>` and the
    /// occurrence counter advances once per step, so
    /// `kill-rank@rank1:3` deterministically kills rank 1 at step 3.
    /// Unlike the other kinds the context is matched *exactly*, never as
    /// a substring — `rank1` must not also count steps on ranks 10-19.
    /// Unlike the other kinds this fault is intentionally *not*
    /// collective — the point is one dead process, with the supervisor
    /// (`exawind-launch`) fencing and relaunching the cohort.
    KillRank,
}

impl FaultKind {
    /// The grammar keyword for this kind.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::AssemblyNan => "assembly-nan",
            FaultKind::HaloNan => "halo-nan",
            FaultKind::CoarsenStall => "coarsen-stall",
            FaultKind::SocketDrop => "socket-drop",
            FaultKind::KillRank => "kill-rank",
        }
    }

    fn parse(s: &str) -> Result<FaultKind, String> {
        match s {
            "assembly-nan" => Ok(FaultKind::AssemblyNan),
            "halo-nan" => Ok(FaultKind::HaloNan),
            "coarsen-stall" => Ok(FaultKind::CoarsenStall),
            "socket-drop" => Ok(FaultKind::SocketDrop),
            "kill-rank" => Ok(FaultKind::KillRank),
            other => Err(format!(
                "unknown fault kind {other:?} (expected assembly-nan, halo-nan, \
                 coarsen-stall, socket-drop, or kill-rank)"
            )),
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One injection rule: fire `kind` on matching-context occurrences
/// `at ..= at + count - 1` (1-based).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    pub kind: FaultKind,
    /// Substring matched against the rank's current phase label.
    pub ctx: String,
    /// 1-based index of the first matching occurrence that fires.
    pub at: u64,
    /// Number of consecutive matching occurrences that fire.
    pub count: u64,
}

impl FaultSpec {
    fn parse(s: &str) -> Result<FaultSpec, String> {
        let (kind_s, rest) = s
            .split_once('@')
            .ok_or_else(|| format!("fault spec {s:?} is missing '@ctx'"))?;
        let kind = FaultKind::parse(kind_s.trim())?;
        let (ctx, occ) = match rest.split_once(':') {
            Some((c, o)) => (c, Some(o)),
            None => (rest, None),
        };
        let ctx = ctx.trim();
        if ctx.is_empty() {
            return Err(format!("fault spec {s:?} has an empty context"));
        }
        let (at, count) = match occ {
            None => (1, 1),
            Some(o) => {
                let (at_s, count_s) = match o.split_once('x') {
                    Some((a, c)) => (a, Some(c)),
                    None => (o, None),
                };
                let at: u64 = at_s
                    .trim()
                    .parse()
                    .map_err(|_| format!("fault spec {s:?}: bad occurrence index {at_s:?}"))?;
                if at == 0 {
                    return Err(format!("fault spec {s:?}: occurrence index is 1-based"));
                }
                let count: u64 = match count_s {
                    None => 1,
                    Some(c) => c
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault spec {s:?}: bad count {c:?}"))?,
                };
                if count == 0 {
                    return Err(format!("fault spec {s:?}: count must be positive"));
                }
                (at, count)
            }
        };
        Ok(FaultSpec {
            kind,
            ctx: ctx.to_string(),
            at,
            count,
        })
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}:{}", self.kind, self.ctx, self.at)?;
        if self.count != 1 {
            write!(f, "x{}", self.count)?;
        }
        Ok(())
    }
}

/// A parsed, immutable fault plan. No-op until [armed](Rank::arm_faults).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FaultPlan {
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Parse a `;`-separated plan string (see module grammar).
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut specs = Vec::new();
        for part in s.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            specs.push(FaultSpec::parse(part)?);
        }
        Ok(FaultPlan { specs })
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.specs.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// One spec of an armed plan with its occurrence counters, which start
/// at zero when the plan is armed.
pub(crate) struct Rule {
    spec: FaultSpec,
    /// Matching hook invocations seen so far.
    hits: u64,
    /// Times this rule actually fired.
    fired: u64,
}

impl Rule {
    /// Count one `kind` hook under context `ctx`; true when it fires.
    fn hit(&mut self, kind: FaultKind, ctx: &str) -> bool {
        // kill-rank contexts name exactly one rank (`rank<r>`), so they
        // compare for equality: a substring match would let `rank1` also
        // advance on ranks 10-19 and kill the wrong processes. Every
        // other kind keeps substring semantics so a spec can target a
        // whole phase family.
        let matched = if self.spec.kind == FaultKind::KillRank {
            ctx == self.spec.ctx
        } else {
            ctx.contains(&self.spec.ctx)
        };
        if self.spec.kind != kind || !matched {
            return false;
        }
        self.hits += 1;
        let fires = self.hits >= self.spec.at && self.hits < self.spec.at + self.spec.count;
        self.fired += u64::from(fires);
        fires
    }
}

impl Rank {
    /// Arm `plan` on this rank with fresh occurrence counters, replacing
    /// any plan armed before; `None` disarms. Plans are replicated per
    /// rank, so the counters advance identically on every rank and
    /// injected faults stay collectively consistent.
    pub fn arm_faults(&self, plan: Option<FaultPlan>) {
        *self.faults.borrow_mut() = plan.map(|plan| {
            plan.specs.into_iter().map(|spec| Rule { spec, hits: 0, fired: 0 }).collect()
        });
    }

    /// Fault hook: should a fault of `kind` fire at this point?
    ///
    /// With no plan armed this is one field read. A spec matches when
    /// its kind equals `kind` and its context is a substring of the
    /// rank's phase label — for `kill-rank`, equal to `rank<r>`; every
    /// match advances that spec's occurrence counter, and the hook fires
    /// when the counter lands in the spec's `at..at+count` window.
    pub fn fault(&self, kind: FaultKind) -> bool {
        let mut faults = self.faults.borrow_mut();
        let Some(rules) = faults.as_mut() else {
            return false;
        };
        // Every matching rule counts the hook, so no short circuit.
        let mut fire = |ctx: &str| rules.iter_mut().fold(false, |hit, r| r.hit(kind, ctx) | hit);
        if kind == FaultKind::KillRank {
            fire(&format!("rank{}", self.rank()))
        } else {
            self.with_recorder(|rec| fire(rec.phase_name()))
        }
    }

    /// Snapshot the per-rule `(hits, fired)` occurrence counters of the
    /// armed plan, in spec order. Empty when no plan is armed.
    /// Checkpointed so a restarted run's occurrence windows continue
    /// exactly where the interrupted run left off — a
    /// `halo-nan@momentum:7` spec that had seen 5 momentum exchanges
    /// before the checkpoint still fires on the 7th overall, not the 7th
    /// post-restart.
    pub fn fault_counters(&self) -> Vec<(u64, u64)> {
        let faults = self.faults.borrow();
        faults.iter().flatten().map(|r| (r.hits, r.fired)).collect()
    }

    /// Restore occurrence counters captured by [`Rank::fault_counters`]
    /// into the armed plan. Errors when the snapshot's rule count does
    /// not match the armed plan (the restart must run under the same
    /// fault plan that was checkpointed); restoring an empty snapshot
    /// into an unarmed rank is a no-op.
    pub fn restore_fault_counters(&self, snapshot: &[(u64, u64)]) -> Result<(), String> {
        match self.faults.borrow_mut().as_mut() {
            None if snapshot.is_empty() => Ok(()),
            None => Err(format!(
                "checkpoint carries {} fault-counter entries but no fault plan is armed",
                snapshot.len()
            )),
            Some(rules) => {
                if rules.len() != snapshot.len() {
                    return Err(format!(
                        "checkpoint carries {} fault-counter entries but the armed plan \
                         has {} specs",
                        snapshot.len(),
                        rules.len()
                    ));
                }
                for (rule, &(hits, fired)) in rules.iter_mut().zip(snapshot) {
                    rule.hits = hits;
                    rule.fired = fired;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Comm;

    #[test]
    fn parses_full_grammar() {
        let plan =
            FaultPlan::parse("assembly-nan@continuity:1; halo-nan@momentum:2x3;coarsen-stall@p")
                .unwrap();
        assert_eq!(
            plan.specs,
            vec![
                FaultSpec {
                    kind: FaultKind::AssemblyNan,
                    ctx: "continuity".into(),
                    at: 1,
                    count: 1
                },
                FaultSpec {
                    kind: FaultKind::HaloNan,
                    ctx: "momentum".into(),
                    at: 2,
                    count: 3
                },
                FaultSpec {
                    kind: FaultKind::CoarsenStall,
                    ctx: "p".into(),
                    at: 1,
                    count: 1
                },
            ]
        );
        // Round-trips through Display.
        assert_eq!(
            FaultPlan::parse(&plan.to_string()).unwrap(),
            plan
        );
        let drop_plan = FaultPlan::parse("socket-drop@continuity/global:2").unwrap();
        assert_eq!(
            drop_plan.specs,
            vec![FaultSpec {
                kind: FaultKind::SocketDrop,
                ctx: "continuity/global".into(),
                at: 2,
                count: 1
            }]
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "assembly-nan",          // no ctx
            "bad-kind@x:1",          // unknown kind
            "halo-nan@:1",           // empty ctx
            "halo-nan@x:0",          // 0 is not a valid 1-based index
            "halo-nan@x:1x0",        // zero count
            "halo-nan@x:notanumber", // bad index
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Run one `kind` hook on `rank` under the phase label `ctx`.
    fn fire(rank: &Rank, kind: FaultKind, ctx: &str) -> bool {
        rank.with_phase(ctx, || rank.fault(kind))
    }

    #[test]
    fn unarmed_hook_never_fires() {
        Comm::run(1, |rank| {
            for kind in [FaultKind::AssemblyNan, FaultKind::KillRank] {
                assert!(!fire(rank, kind, "continuity/global"));
            }
        });
    }

    #[test]
    fn occurrence_windows_and_context_matching() {
        Comm::run(1, |rank| {
            rank.arm_faults(Some(FaultPlan::parse("halo-nan@continuity:2x2").unwrap()));
            // Non-matching context never advances the counter.
            assert!(!fire(rank, FaultKind::HaloNan, "momentum/halo"));
            assert!(!fire(rank, FaultKind::HaloNan, "continuity/halo")); // hit 1
            assert!(fire(rank, FaultKind::HaloNan, "continuity/halo")); // hit 2 → fires
            assert!(fire(rank, FaultKind::HaloNan, "continuity/halo")); // hit 3 → fires
            assert!(!fire(rank, FaultKind::HaloNan, "continuity/halo")); // hit 4 → window over
            // Kind mismatch never fires.
            assert!(!fire(rank, FaultKind::AssemblyNan, "continuity/halo"));
            assert_eq!(rank.fault_counters(), vec![(4, 2)]);
        });
    }

    #[test]
    fn kill_rank_parses_and_fires_on_step_window() {
        let plan = FaultPlan::parse("kill-rank@rank1:3").unwrap();
        assert_eq!(
            plan.specs,
            vec![FaultSpec {
                kind: FaultKind::KillRank,
                ctx: "rank1".into(),
                at: 3,
                count: 1
            }]
        );
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        let fired = Comm::run(2, |rank| {
            rank.arm_faults(Some(plan.clone()));
            // The context is the rank, not the phase label.
            (1..=3).map(|_| fire(rank, FaultKind::KillRank, "rank1")).collect::<Vec<_>>()
        });
        // Another rank's step hook never advances this rule; rank 1
        // dies at step 3.
        assert_eq!(fired, vec![vec![false; 3], vec![false, false, true]]);
    }

    #[test]
    fn kill_rank_ctx_matches_exactly_not_as_substring() {
        // In an 11+-rank cohort, ranks 10-19 contain "rank1" as a
        // substring; their step hooks must neither fire nor count.
        let plan = FaultPlan::parse("kill-rank@rank1:2").unwrap();
        let out = Comm::run(12, |rank| {
            rank.arm_faults(Some(plan.clone()));
            let fired = [rank.fault(FaultKind::KillRank), rank.fault(FaultKind::KillRank)];
            (fired, rank.fault_counters())
        });
        for (r, (fired, counters)) in out.into_iter().enumerate() {
            if r == 1 {
                assert_eq!((fired, counters), ([false, true], vec![(2, 1)]));
            } else {
                assert_eq!((fired, counters), ([false, false], vec![(0, 0)]), "rank {r}");
            }
        }
    }

    #[test]
    fn counters_snapshot_and_restore_resume_windows() {
        Comm::run(1, |rank| {
            let plan = FaultPlan::parse("halo-nan@continuity:3").unwrap();
            rank.arm_faults(Some(plan.clone()));
            assert!(!fire(rank, FaultKind::HaloNan, "continuity/halo"));
            assert!(!fire(rank, FaultKind::HaloNan, "continuity/halo"));
            let snapshot = rank.fault_counters();
            assert_eq!(snapshot, vec![(2, 0)]);
            // A fresh arm (the restarted process) resumes mid-window.
            rank.arm_faults(Some(plan));
            rank.restore_fault_counters(&snapshot).unwrap();
            assert!(fire(rank, FaultKind::HaloNan, "continuity/halo")); // hit 3 → fires
            assert_eq!(rank.fault_counters(), vec![(3, 1)]);
            // Mismatched plan shape is a typed error, not a silent skip.
            assert!(rank.restore_fault_counters(&[(1, 0), (2, 0)]).is_err());
        });
    }

    #[test]
    fn counters_unarmed_is_empty_and_restores_trivially() {
        Comm::run(1, |rank| {
            assert!(rank.fault_counters().is_empty());
            rank.restore_fault_counters(&[]).unwrap();
            assert!(rank.restore_fault_counters(&[(1, 0)]).is_err());
        });
    }

    #[test]
    fn empty_plan_is_armed_but_never_fires() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        Comm::run(1, |rank| {
            rank.arm_faults(Some(plan.clone()));
            let err = rank.restore_fault_counters(&[(1, 0)]).unwrap_err();
            assert!(err.contains("has 0 specs"), "{err}");
            assert!(!fire(rank, FaultKind::AssemblyNan, "x"));
        });
    }
}
