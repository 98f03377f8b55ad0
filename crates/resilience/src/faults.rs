//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a list of [`FaultSpec`]s parsed from a plan
//! string and handed to the solver as `SolverConfig::faults`. Each spec
//! names a [`FaultKind`], a context
//! substring matched against the rank's current phase label, and the
//! occurrence window in which it fires.
//!
//! The plan is installed as a thread-local *injector* on each rank
//! thread (mirroring the telemetry dispatcher): solver hooks call
//! [`fire`] at well-defined points, and the injector counts matching
//! hook invocations per spec. Because each simulated rank is one OS
//! thread, the counters are per-rank and never touched by rayon
//! workers — so whether a fault fires is a pure function of the solve
//! sequence, bitwise reproducible across thread counts.
//!
//! With no injector installed, [`fire`] is a single thread-local read
//! returning `false`; the context closure is never invoked, so the
//! clean-run path does not even build the phase-label string.
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
//! also counts the pattern-union assemblies inside AMG setup (phase
//! `continuity/precond setup`), where a corrupted value is structurally
//! harmless. Pin the context when targeting the fine system — e.g.
//! `assembly-nan@continuity/global` matches only the global assembly of
//! the continuity equation itself; that hook fires exactly once per
//! matrix assembly, before any message is sent, whether the assembly
//! also records its graph's plan (the first one) or only replays it.
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
//! out of reach and read [`counters`]), not by arithmetic.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

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

/// A parsed, immutable fault plan. No-op until [installed](FaultPlan::install).
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

    /// Install this plan as the thread-local injector for the current
    /// (rank) thread; restored when the guard drops. Per-spec occurrence
    /// counters start at zero on every install.
    pub fn install(&self) -> FaultGuard {
        let inj = Rc::new(RefCell::new(Injector {
            rules: self
                .specs
                .iter()
                .map(|s| Rule {
                    spec: s.clone(),
                    hits: 0,
                    fired: 0,
                })
                .collect(),
        }));
        let prev = CURRENT.with(|c| c.replace(Some(inj)));
        FaultGuard { prev: Some(prev) }
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

struct Rule {
    spec: FaultSpec,
    /// Matching hook invocations seen so far.
    hits: u64,
    /// Times this rule actually fired.
    fired: u64,
}

struct Injector {
    rules: Vec<Rule>,
}

/// Restores the previously installed injector on drop.
pub struct FaultGuard {
    prev: Option<Option<Rc<RefCell<Injector>>>>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| c.replace(prev));
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<RefCell<Injector>>>> = const { RefCell::new(None) };
}

/// True when a fault plan is installed on this thread.
pub fn armed() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Fault hook: should a fault of `kind` fire at this point?
///
/// `ctx` is evaluated lazily (typically `|| rank.phase_name()`) and only
/// when an injector is installed; with no plan armed this is one
/// thread-local read. A spec matches when its kind equals `kind` and its
/// context string is a substring of `ctx()` (equal to it, for
/// `kill-rank`); every match advances that spec's occurrence counter,
/// and the hook fires when the counter lands in the spec's
/// `at..at+count` window.
pub fn fire(kind: FaultKind, ctx: impl FnOnce() -> String) -> bool {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        let Some(inj) = borrow.as_ref() else {
            return false;
        };
        let inj = Rc::clone(inj);
        drop(borrow);
        let ctx = ctx();
        let mut inj = inj.borrow_mut();
        let mut hit = false;
        for rule in &mut inj.rules {
            // kill-rank contexts name exactly one rank (`rank<r>`), so
            // they compare for equality: a substring match would let
            // `rank1` also advance on ranks 10-19 and kill the wrong
            // processes. Every other kind keeps substring semantics so a
            // spec can target a whole phase family.
            let matched = if rule.spec.kind == FaultKind::KillRank {
                ctx == rule.spec.ctx
            } else {
                ctx.contains(&rule.spec.ctx)
            };
            if rule.spec.kind == kind && matched {
                rule.hits += 1;
                if rule.hits >= rule.spec.at && rule.hits < rule.spec.at + rule.spec.count {
                    rule.fired += 1;
                    hit = true;
                }
            }
        }
        hit
    })
}

/// Snapshot the per-rule `(hits, fired)` occurrence counters of the
/// injector installed on this thread, in spec order. Empty when no
/// injector is armed. Checkpointed so a restarted run's occurrence
/// windows continue exactly where the interrupted run left off — a
/// `halo-nan@momentum:7` spec that had seen 5 momentum exchanges before
/// the checkpoint still fires on the 7th overall, not the 7th
/// post-restart.
pub fn counters() -> Vec<(u64, u64)> {
    CURRENT.with(|c| {
        c.borrow().as_ref().map_or_else(Vec::new, |inj| {
            inj.borrow().rules.iter().map(|r| (r.hits, r.fired)).collect()
        })
    })
}

/// Restore occurrence counters captured by [`counters`] into the
/// injector installed on this thread. Errors when the snapshot's rule
/// count does not match the installed plan (the restart must run under
/// the same fault plan that was checkpointed); restoring an
/// empty snapshot into an unarmed thread is a no-op.
pub fn restore_counters(snapshot: &[(u64, u64)]) -> Result<(), String> {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        match borrow.as_ref() {
            None if snapshot.is_empty() => Ok(()),
            None => Err(format!(
                "checkpoint carries {} fault-counter entries but no fault plan is armed",
                snapshot.len()
            )),
            Some(inj) => {
                let mut inj = inj.borrow_mut();
                if inj.rules.len() != snapshot.len() {
                    return Err(format!(
                        "checkpoint carries {} fault-counter entries but the armed plan \
                         has {} specs",
                        snapshot.len(),
                        inj.rules.len()
                    ));
                }
                for (rule, &(hits, fired)) in inj.rules.iter_mut().zip(snapshot) {
                    rule.hits = hits;
                    rule.fired = fired;
                }
                Ok(())
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn unarmed_fire_is_false_and_lazy() {
        assert!(!armed());
        let fired = fire(FaultKind::AssemblyNan, || {
            panic!("ctx closure must not run when unarmed")
        });
        assert!(!fired);
    }

    #[test]
    fn occurrence_windows_and_context_matching() {
        let plan = FaultPlan::parse("halo-nan@continuity:2x2").unwrap();
        let _g = plan.install();
        // Non-matching context never advances the counter.
        assert!(!fire(FaultKind::HaloNan, || "momentum/halo".into()));
        assert!(!fire(FaultKind::HaloNan, || "continuity/halo".into())); // hit 1
        assert!(fire(FaultKind::HaloNan, || "continuity/halo".into())); // hit 2 → fires
        assert!(fire(FaultKind::HaloNan, || "continuity/halo".into())); // hit 3 → fires
        assert!(!fire(FaultKind::HaloNan, || "continuity/halo".into())); // hit 4 → window over
        // Kind mismatch never fires.
        assert!(!fire(FaultKind::AssemblyNan, || "continuity/halo".into()));
    }

    #[test]
    fn install_guard_restores_previous_injector() {
        let outer = FaultPlan::parse("coarsen-stall@amg:1").unwrap();
        let g1 = outer.install();
        assert!(fire(FaultKind::CoarsenStall, || "amg".into()));
        {
            let inner = FaultPlan::parse("coarsen-stall@amg:1").unwrap();
            let _g2 = inner.install();
            // Fresh counters: fires again under the inner plan.
            assert!(fire(FaultKind::CoarsenStall, || "amg".into()));
        }
        // Outer plan restored, its window already consumed.
        assert!(!fire(FaultKind::CoarsenStall, || "amg".into()));
        drop(g1);
        assert!(!armed());
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
        let _g = plan.install();
        // Another rank's step hook never advances this rule.
        assert!(!fire(FaultKind::KillRank, || "rank0".into()));
        assert!(!fire(FaultKind::KillRank, || "rank1".into())); // step 1
        assert!(!fire(FaultKind::KillRank, || "rank1".into())); // step 2
        assert!(fire(FaultKind::KillRank, || "rank1".into())); // step 3 → dies
    }

    #[test]
    fn kill_rank_ctx_matches_exactly_not_as_substring() {
        let plan = FaultPlan::parse("kill-rank@rank1:2").unwrap();
        let _g = plan.install();
        // In an 11+-rank cohort, ranks 10-19 contain "rank1" as a
        // substring; their step hooks must neither fire nor advance
        // rank 1's occurrence counter.
        assert!(!fire(FaultKind::KillRank, || "rank12".into()));
        assert!(!fire(FaultKind::KillRank, || "rank1".into())); // step 1
        assert!(!fire(FaultKind::KillRank, || "rank10".into()));
        assert!(fire(FaultKind::KillRank, || "rank1".into())); // step 2 → dies
        assert!(!fire(FaultKind::KillRank, || "rank19".into()));
    }

    #[test]
    fn counters_snapshot_and_restore_resume_windows() {
        let plan = FaultPlan::parse("halo-nan@continuity:3").unwrap();
        let snapshot = {
            let _g = plan.install();
            assert!(!fire(FaultKind::HaloNan, || "continuity/halo".into()));
            assert!(!fire(FaultKind::HaloNan, || "continuity/halo".into()));
            counters()
        };
        assert_eq!(snapshot, vec![(2, 0)]);
        // A fresh install (the restarted process) resumes mid-window.
        let _g = plan.install();
        restore_counters(&snapshot).unwrap();
        assert!(fire(FaultKind::HaloNan, || "continuity/halo".into())); // hit 3 → fires
        assert_eq!(counters(), vec![(3, 1)]);
        // Mismatched plan shape is a typed error, not a silent skip.
        assert!(restore_counters(&[(1, 0), (2, 0)]).is_err());
    }

    #[test]
    fn counters_unarmed_is_empty_and_restores_trivially() {
        assert!(counters().is_empty());
        restore_counters(&[]).unwrap();
        assert!(restore_counters(&[(1, 0)]).is_err());
    }

    #[test]
    fn empty_plan_is_armed_but_never_fires() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        let _g = plan.install();
        assert!(armed());
        assert!(!fire(FaultKind::AssemblyNan, || "x".into()));
    }
}
