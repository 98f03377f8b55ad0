#!/usr/bin/env bash
# Offline CI gate: everything runs against the in-repo shim crates, so no
# network access is needed. Run from the repository root.
set -euxo pipefail

cargo build --release --workspace
cargo test -q --workspace
# Once in the release profile too: `plan_replay_equals_fresh_assembly_bitwise`
# sums NaNs, and only the optimiser reorders those adds. The sparse and
# krylov kernel-shape and buffer-reuse proptests pick sizes that cross
# 4 096 and 16 384 (where `dense::dot` switches to chunked partials)
# only in release.
cargo test -q --release -p distmat -p sparse-kit -p krylov --test proptests
cargo clippy --workspace --all-targets -- -D warnings

# Configuration enters once: `src/env.rs` is the only Rust file (outside
# the frozen benchmark crate) that spells an EXAWIND_*/PARCOMM_* name,
# and no library crate or shim reads the environment for one — what is
# left is telemetry's GIT_COMMIT, which is not ours.
env_files=$(grep -rlE '"(EXAWIND|PARCOMM)_' --include='*.rs' crates src examples tests \
  | grep -v '^crates/e2e-bench/' || true)
[ "$env_files" = "src/env.rs" ] \
  || { echo "env gate: variable names spelled outside src/env.rs: $env_files" >&2; exit 1; }
env_reads=$(grep -rn 'env::var' --include='*.rs' crates/*/src shims \
  | grep -v '^crates/e2e-bench/' | grep -vE '"GIT_COMMIT"' || true)
[ -z "$env_reads" ] \
  || { echo "env gate: a library crate reads the environment: $env_reads" >&2; exit 1; }

# Ranks are the only threads: no manifest, lock entry or Rust file names
# rayon (outside the frozen benchmark crate, which still sets the
# now-unread RAYON_NUM_THREADS), so an intra-rank thread pool cannot
# come back unnoticed.
rayon_sites=$( { grep -rni 'rayon' --include='*.rs' --include='Cargo.toml' \
  crates src tests examples shims | grep -v '^crates/e2e-bench/'; \
  grep -ni 'rayon' Cargo.toml Cargo.lock; } || true)
[ -z "$rayon_sites" ] \
  || { echo "thread gate: rayon is back: $rayon_sites" >&2; exit 1; }

# One measuring convention: kernel comparisons are harness binaries whose
# counts `results/<bin>.txt` pins (the loop at the end), so no manifest
# names the criterion shim or declares a `cargo bench` target.
bench_sites=$(grep -nE 'criterion|^\[\[bench\]\]|^\[profile\.bench\]' Cargo.toml \
  $(find crates shims -name Cargo.toml | sort) || true)
[ -z "$bench_sites" ] \
  || { echo "bench gate: a cargo bench target or the criterion shim is back: $bench_sites" >&2; exit 1; }

# One wait loop: every spin or yield in parcomm is inside
# `Rank::wait_next` (comm.rs), so a second, private poll-then-park loop
# (the socket backend had one) cannot come back unnoticed.
wait_sites=$(grep -rnE 'yield_now|spin_loop' crates/parcomm/src || true)
in_wait_next=$(sed -n '/fn wait_next(/,/^    }$/p' crates/parcomm/src/comm.rs \
  | grep -cE 'yield_now|spin_loop' || true)
[ "$in_wait_next" -gt 0 ] && [ "$(grep -c . <<<"$wait_sites")" -eq "$in_wait_next" ] \
  || { echo "wait gate: spin/yield outside Rank::wait_next: $wait_sites" >&2; exit 1; }

# Each socket rank reads its own streams: the rank threads of
# `run_threads` are the one thread-spawn site in socket.rs, so reader
# threads cannot come back unnoticed, and the only `unsafe` under
# crates/ is the socket backend's poll(2) call.
spawn_sites=$(grep -nE 'spawn\(|thread::Builder' crates/parcomm/src/socket.rs || true)
[ "$(grep -c . <<<"$spawn_sites")" -eq 1 ] && grep -q 'scope\.spawn(' <<<"$spawn_sites" \
  || { echo "socket gate: a thread spawned in socket.rs besides the rank threads: $spawn_sites" >&2; exit 1; }
unsafe_sites=$(grep -rnw 'unsafe' --include='*.rs' crates || true)
[ "$(grep -c . <<<"$unsafe_sites")" -eq 1 ] \
  && grep -q '^crates/parcomm/src/socket\.rs:[0-9]*: *unsafe { poll(' <<<"$unsafe_sites" \
  || { echo "unsafe gate: unsafe code besides the poll(2) call: $unsafe_sites" >&2; exit 1; }

# One neighbour exchange: outside tests, `distmat` receives in two
# places — `CommPkg::finish`, the second half of the one split-phase
# exchange that the matrix halo, AMG setup's point exchanges and the
# assembly-plan replays all call, and Algorithm 1's count-driven first
# exchange in `IjMatrix::try_assemble`, which has no plan. Both the
# fallible `try_recv(` and the panicking `recv(` count, so a
# hand-written planned exchange (a replay's or a plan build's key
# exchange) cannot come back unnoticed.
recv_call='\b(try_)?recv\('
recv_sites=$(for f in crates/distmat/src/*.rs; do
  sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE "$recv_call" | sed "s|^|$f:|"
done || true)
in_finish=$(sed -n '/    pub fn finish</,/^    }$/p' crates/distmat/src/halo.rs | grep -cE "$recv_call" || true)
in_alg1=$(sed -n '/    pub fn try_assemble(mut self, rank: &Rank)/,/^    }$/p' crates/distmat/src/ij.rs \
  | grep -cE "$recv_call" || true)
[ "$in_finish" -eq 1 ] && [ "$in_alg1" -eq 1 ] && [ "$(grep -c . <<<"$recv_sites")" -eq 2 ] \
  || { echo "exchange gate: a receive outside CommPkg::finish and IjMatrix::try_assemble: $recv_sites" >&2; exit 1; }

# One-hop collectives: `allreduce` and `allgather` send each rank's
# contribution straight to every peer and fold it in rank order on every
# rank, and `barrier` is the same hop with an empty payload, so no rank
# plays a root for any of them. Outside tests, collectives.rs tests a
# rank for equality in one place only, `broadcast`'s
# `self.rank() == root`; any other `==` line there (`rank() == 0`,
# `me == 0`, a named root) fails the gate.
relay_sites=$(sed '/#\[cfg(test)\]/,$d' crates/parcomm/src/collectives.rs \
  | grep -n '==' | grep -v 'if self\.rank() == root {$' || true)
[ -z "$relay_sites" ] \
  || { echo "collective gate: a root branch in collectives.rs: $relay_sites" >&2; exit 1; }

# One synchronisation path: `Rank::barrier` (collectives.rs) is the only
# barrier. Outside tests no parcomm file names a `Barrier` (a std one, a
# frame kind) and `fn barrier` is defined once, so a transport-level
# barrier cannot come back in either backend unnoticed.
barrier_sites=$(for f in crates/parcomm/src/*.rs; do
  sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'Barrier|fn barrier' | sed "s|^|$f:|"
done || true)
[ "$(grep -c . <<<"$barrier_sites")" -eq 1 ] \
  && grep -q '^crates/parcomm/src/collectives\.rs:[0-9]*: *pub fn barrier(&self) {$' <<<"$barrier_sites" \
  || { echo "barrier gate: a barrier besides Rank::barrier in parcomm: $barrier_sites" >&2; exit 1; }

# One host, one clock: every rank runs on this host, so the telemetry
# epochs' wall-clock anchors align the per-rank timelines (one
# allgather, no probe handshake) and a launched worker finds its peers
# at their sockets under the rendezvous prefix alone. Outside tests no
# parcomm file names the handshake's `CLOCK_PROBES`, a `Hostfile`
# wire-up or a name lookup (`to_socket_addrs`), and `src/` names no
# `HOSTFILE` variable or `--hostfile` flag, so the multi-host pieces
# cannot come back unnoticed.
multihost_sites=$( { for f in crates/parcomm/src/*.rs; do
  sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'CLOCK_PROBES|Hostfile|to_socket_addrs' | sed "s|^|$f:|"
done; grep -rnE 'HOSTFILE|--hostfile' src; } || true)
[ -z "$multihost_sites" ] \
  || { echo "one-host gate: a multi-host clock or wire-up piece is back: $multihost_sites" >&2; exit 1; }

# One progress channel, one socket family: a launched worker reports to
# exawind-launch through its progress record file alone
# (`exawind::env::Progress`), and every rank runs on this host, so the
# socket transport is the one user of a socket and it speaks
# Unix-domain streams only. Outside tests no file under crates/ or src/
# names the heartbeat channel (`Heartbeat`, `MonitorServer`,
# `MonitorClient`), a `crash-` breadcrumb, `TcpListener`, `TcpStream`
# or `std::net`, and `UnixListener`/`UnixStream` appear only in the
# socket transport, so a second channel or a TCP path cannot come back
# unnoticed.
channel_sites=$(for f in $(find crates src -name '*.rs' | sort); do
  sed '/#\[cfg(test)\]/,$d' "$f" \
    | grep -nE 'Heartbeat|MonitorServer|MonitorClient|crash-|TcpListener|TcpStream|std::net' \
    | sed "s|^|$f:|"
done || true)
unix_sites=$(for f in $(find crates src -name '*.rs' | grep -vx 'crates/parcomm/src/socket.rs' | sort); do
  sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'UnixListener|UnixStream' | sed "s|^|$f:|"
done || true)
[ -z "$channel_sites$unix_sites" ] \
  || { echo "progress gate: a second channel or socket family is back: $channel_sites $unix_sites" >&2; exit 1; }

# Panic ratchet (ROADMAP 6(a)): above its `#[cfg(test)]` line the socket
# transport holds at most 12 `unwrap(`/`expect(`/`panic!(` sites. Lower
# the number when a site goes; never raise it.
socket_panics=$(sed '/#\[cfg(test)\]/,$d' crates/parcomm/src/socket.rs \
  | grep -oE 'unwrap\(|expect\(|panic!\(' | wc -l)
[ "$socket_panics" -le 12 ] \
  || { echo "panic ratchet: socket.rs has $socket_panics unwrap/expect/panic sites (at most 12)" >&2; exit 1; }
# The other parsers of foreign bytes — JSONL telemetry lines, checkpoint
# files, the launcher's reading of a checkpoint manifest and the harness
# binaries' command lines (a bad argument is exit 2, named) — hold none.
for f in crates/telemetry/src/json.rs crates/resilience/src/checkpoint.rs src/bin/exawind-launch.rs \
  crates/bench/src/args.rs; do
  panics=$(sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'unwrap\(|expect\(|panic!\(' || true)
  [ -z "$panics" ] \
    || { echo "panic ratchet: unwrap/expect/panic in $f: $panics" >&2; exit 1; }
done

# One SpMV path: every solver operator is CSR. No Rust file (outside the
# frozen benchmark crate, whose probe still times the standalone
# `SellCs` kernel) names the SELL-C-σ mirror of a ParCSR diag block, its
# layout, its refresh or price, a policy install, a second policy value
# or the variable that selected it (the thread-local gate below keeps
# `sparse_kit::policy` free of a thread-local), so the second storage
# cannot come back unnoticed.
spmv_sites=$(grep -rnwE --include='*.rs' \
  'diag_sell|SellLayout|builds_sellcs|refresh_diag_sell|sellcs_spmv|policy::install|policy::current|KernelPolicy::Csr|KernelPolicy::Sellcs|EXAWIND_KERNELS' \
  crates src tests examples | grep -v '^crates/e2e-bench/' || true)
[ -z "$spmv_sites" ] \
  || { echo "spmv gate: a second SpMV storage path is back: $spmv_sites" >&2; exit 1; }

# No thread-local state: the rank owns its recorders. Its phase label,
# perf ledger, telemetry recorder and armed fault plan are `Rank`
# fields, reached through the `&Rank` every layer takes. Outside the
# frozen benchmark crate no Rust file under crates/, src/ or examples/
# declares a `thread_local!` above its `#[cfg(test)]` line, and nothing
# under crates/, src/, tests/ or examples/ names the old install guards,
# the thread-local readers or the install calls, so a dispatcher set by
# a higher layer cannot come back unnoticed.
tls_sites=$(for f in $(find crates src examples -name '*.rs' -not -path 'crates/e2e-bench/*' | sort); do
  sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'thread_local!' | sed "s|^|$f:|"
done || true)
install_sites=$(grep -rnE \
  'InstallGuard|FaultGuard|\btelemetry::current\b|FaultPlan::install|faults::fire' \
  crates src tests examples | grep -v '^crates/e2e-bench/' || true)
[ -z "$tls_sites$install_sites" ] \
  || { echo "thread-local gate: per-rank state outside Rank: $tls_sites $install_sites" >&2; exit 1; }

# A Picard iteration refills values only: the driver moves each
# assembled operator into the smoother that owns it (no
# `Sgs2::with_sweeps` copy) and keys the pressure hierarchy on its graph
# and dt/ρ (no per-solve operator comparison), so neither call may come
# back into the solver crate.
refill_sites=$(grep -rnE 'Sgs2::with_sweeps|reuse_or_setup' crates/core/src || true)
[ -z "$refill_sites" ] \
  || { echo "refill gate: an operator copy or comparison in the Picard driver: $refill_sites" >&2; exit 1; }

# One schema version: no telemetry source file describes, or branches
# on, a stream older than the one it writes.
old_schema=$(grep -rnE 'pre-v[0-9]' crates/telemetry/src || true)
[ -z "$old_schema" ] \
  || { echo "schema gate: read-compat wording or code for an old stream: $old_schema" >&2; exit 1; }

# The telemetry schema is written once: `events!` / `rows!` in event.rs
# declare every field, and the codec is generated from them, so no
# hand-written `("key", Json::…)` encoder pair or per-key `*_field("key")`
# decoder call may come back.
codec_keys=$(grep -nE '\("[a-z_]+", *Json::|_field\("' crates/telemetry/src/event.rs || true)
[ -z "$codec_keys" ] \
  || { echo "schema gate: a JSON key spelled outside its field declaration: $codec_keys" >&2; exit 1; }

# One pass reads a stream's timeline: outside `Timeline::from_events`
# (trace.rs), no non-test telemetry code matches a `run`, `comm_edge` or
# `collective` event in a match arm or a `let` pattern — the report, the
# trace, the critical path and `validate_stream` read the extraction.
# Constructors (`run_info`, `Event::examples`, the `events!` macro) only
# build the variants.
timeline_reads=$(for f in crates/telemetry/src/*.rs; do
  sed -e '/#\[cfg(test)\]/,$d' -e '/^macro_rules! events {/,/^}$/d' \
    -e "/fn from_events(events: &'a \[Event\]) -> Timeline/,/^    }$/d" "$f" \
    | grep -Pzo '\blet\s+Event::(Run|CommEdge|Collective)\b|Event::(Run|CommEdge|Collective)\s*(\{[^{}]*\})?\s*(=>|\bif\b|\|)' \
    | tr '\0' '\n' | sed "s|^|$f: |"
done || true)
[ -z "$timeline_reads" ] \
  || { echo "timeline gate: an event the timeline owns is read outside it: $timeline_reads" >&2; exit 1; }

# Telemetry end-to-end: a quickstart run must emit a JSONL event stream
# that `exawind-perf validate` accepts (exit 0 ⇔ schema-valid, non-empty).
tel_out=$(mktemp /tmp/exawind_telemetry.XXXXXX.jsonl)
fault_out=$(mktemp /tmp/exawind_faulted.XXXXXX.jsonl)
trap 'rm -f "$tel_out" "$fault_out"' EXIT
EXAWIND_TELEMETRY="$tel_out" cargo run --release --example quickstart
cargo run --release -p exawind-bench --bin exawind-perf -- validate "$tel_out"
grep -q '"type": *"kernel_perf"' "$tel_out" \
  || { echo "telemetry smoke: no kernel_perf event in $tel_out" >&2; exit 1; }
# Assembly plans are recorded once per graph and replayed afterwards: a
# regression to per-iteration Algorithm 1 shows as a count (2 plans per
# graph set — the transport graph's, shared by momentum and the scalar,
# and the continuity graph's — summed over ranks), not as a timing.
reuse=$(cargo run --release -p exawind-bench --bin exawind-perf -- report "$tel_out" \
  | grep '^reuse (summed over ranks)')
read -r graphs_rebuilt plans_built plans_replayed < <(sed -E \
  's/.*graphs rebuilt ([0-9]+) .*plans built ([0-9]+) \/ replayed ([0-9]+).*/\1 \2 \3/' <<<"$reuse")
[ "$plans_replayed" -gt 0 ] && [ "$plans_built" -eq $((2 * graphs_rebuilt)) ] \
  || { echo "telemetry smoke: assembly plans not reused: $reuse" >&2; exit 1; }
# Every preconditioner application starts from a zero vector it created
# itself, so its first smoothing round skips the exchange and the
# residual pass: a regression to the general path shows as a zero count,
# not as a timing. The quickstart's uniform flow converges in 0 GMRES
# iterations and never applies a preconditioner, so this is read from
# the (3 s) turbine example.
turb_out=$(mktemp /tmp/exawind_turbine.XXXXXX.jsonl)
trap 'rm -f "$tel_out" "$fault_out" "$turb_out"' EXIT
cargo run --release --example turbine_overset -- --telemetry "$turb_out" > /dev/null
cargo run --release -p exawind-bench --bin exawind-perf -- validate "$turb_out"
zero_guess_rounds=$(cargo run --release -p exawind-bench --bin exawind-perf -- report "$turb_out" \
  | sed -nE 's/^reuse \(summed over ranks\).*zero-guess smoothing rounds ([0-9]+).*/\1/p')
[ "${zero_guess_rounds:-0}" -gt 0 ] \
  || { echo "telemetry smoke: no zero-guess smoothing round in the turbine run" >&2; exit 1; }

# Fault-injection smoke: a NaN injected into the first continuity
# assembly must be caught by the recovery ladder (exit 0, not a panic),
# logged as a schema-valid `recovery` event, and still converge.
EXAWIND_FAULTS="assembly-nan@continuity/global:1" \
  EXAWIND_TELEMETRY="$fault_out" cargo run --release --example quickstart
cargo run --release -p exawind-bench --bin exawind-perf -- validate "$fault_out"
grep -q '"type": *"recovery"' "$fault_out" \
  || { echo "fault-injection smoke: no recovery event in $fault_out" >&2; exit 1; }

# Multi-process transport smoke: exawind-launch spawns two real worker
# processes that wire up over Unix-domain sockets; rank 0's telemetry stream
# must validate and carry the completed-run event tagged with the socket
# transport, plus per-peer comm_edge traffic. Every rank must have
# written a progress record the launcher read, and the merged per-rank streams
# must validate (edge symmetry, collective participation) and render the
# comm-matrix report. (Cross-transport bitwise identity is pinned by
# tests/transport.rs; this proves the launcher path works end to end.)
mp_dir=$(mktemp -d /tmp/exawind_mp.XXXXXX)
trap 'rm -f "$tel_out" "$fault_out" "$turb_out"; rm -rf "$mp_dir"' EXIT
cargo build --release --bin exawind-launch --bin exawind-worker
./target/release/exawind-launch -n 2 -- \
  ./target/release/exawind-worker --out "$mp_dir/fields" --telemetry "$mp_dir/tel" \
  | tee "$mp_dir/launch.log"
grep -qF '2 rank(s) completed; 2/2 rank(s) reported progress' "$mp_dir/launch.log" \
  || { echo "transport smoke: not every rank reported progress to the launcher" >&2; exit 1; }
cargo run --release -p exawind-bench --bin exawind-perf -- validate "$mp_dir/tel.rank0.jsonl"
grep -q '"type":"run"' "$mp_dir/tel.rank0.jsonl" \
  || { echo "transport smoke: no run event in $mp_dir/tel.rank0.jsonl" >&2; exit 1; }
grep -q '"transport":"socket"' "$mp_dir/tel.rank0.jsonl" \
  || { echo "transport smoke: run event not tagged with socket transport" >&2; exit 1; }
grep -q '"type":"comm_edge"' "$mp_dir/tel.rank0.jsonl" \
  || { echo "transport smoke: no comm_edge event in $mp_dir/tel.rank0.jsonl" >&2; exit 1; }
test -s "$mp_dir/fields.rank0.bits" && test -s "$mp_dir/fields.rank1.bits" \
  || { echo "transport smoke: missing per-rank field artifacts" >&2; exit 1; }
cat "$mp_dir/tel.rank0.jsonl" "$mp_dir/tel.rank1.jsonl" > "$mp_dir/merged.jsonl"
cargo run --release -p exawind-bench --bin exawind-perf -- validate "$mp_dir/merged.jsonl"
cargo run --release -p exawind-bench --bin exawind-perf -- report "$mp_dir/merged.jsonl" \
  | tee "$mp_dir/report.txt"
grep -q 'communication matrix' "$mp_dir/report.txt" \
  || { echo "transport smoke: comm-matrix report section missing" >&2; exit 1; }

# Timeline-trace smoke: the per-rank streams of the socket run merge
# into a structurally valid Chrome trace-event / Perfetto JSON
# (exawind-perf trace exits non-zero when the structural validator
# finds unbalanced events or non-monotone tracks), and every step wrote
# a solver-health row that a clean run must NOT escalate to a verdict
# (the report replays the detector over the rows).
cargo run --release -p exawind-bench --bin exawind-perf -- \
  trace --out "$mp_dir/trace.json" "$mp_dir/tel.rank0.jsonl" "$mp_dir/tel.rank1.jsonl"
grep -q '"traceEvents"' "$mp_dir/trace.json" \
  || { echo "trace smoke: no traceEvents array in $mp_dir/trace.json" >&2; exit 1; }
grep -q '"type":"step_health"' "$mp_dir/tel.rank0.jsonl" \
  || { echo "trace smoke: no step_health event in $mp_dir/tel.rank0.jsonl" >&2; exit 1; }
grep -q '^no degradation verdicts$' "$mp_dir/report.txt" \
  || { echo "trace smoke: clean run produced a degradation verdict" >&2; exit 1; }

# Health-detector smoke: corrupt the first pressure assembly of step 4
# (occurrence 7 = 2 Picard iterations/step × 3 clean warmup steps + 1;
# the global-assembly hooks run once per pressure attempt, on the
# right-hand side when the operator is reused, the AMG-setup hooks do
# not — the hierarchy is set up once and reused) — the recovery ladder
# rebuilds and the detector, replayed by the report over rank 0's
# stream, must find a recovery-storm degradation after its clean
# baseline.
EXAWIND_FAULTS="assembly-nan@continuity/global:7" \
  ./target/release/exawind-launch -n 2 -- \
  ./target/release/exawind-worker --mesh big --steps 5 \
  --telemetry "$mp_dir/health-tel"
cargo run --release -p exawind-bench --bin exawind-perf -- validate "$mp_dir/health-tel.rank0.jsonl"
cargo run --release -p exawind-bench --bin exawind-perf -- report "$mp_dir/health-tel.rank0.jsonl" \
  > "$mp_dir/health-report.txt"
grep -q 'recovery-storm' "$mp_dir/health-report.txt" \
  || { echo "health smoke: no recovery-storm verdict in seeded degradation run" >&2; exit 1; }

# Stall-detection smoke: hang rank 1 (for 60 s) after its first
# progress record; the launcher must notice the step count not moving
# well before the hang ends, name the stalled rank, and exit 3 — long
# before the 90 s backstop.
if EXAWIND_STALL_RANK=1 timeout 90 \
  ./target/release/exawind-launch -n 2 --stall-timeout 3 -- \
  ./target/release/exawind-worker --out "$mp_dir/stall" --telemetry "$mp_dir/stall-tel" \
  2> "$mp_dir/stall.log"; then
  echo "stall smoke: launcher did not fail on a hung rank" >&2
  exit 1
fi
grep -q 'stalled at step' "$mp_dir/stall.log" \
  || { echo "stall smoke: no stalled-rank diagnosis in launcher output" >&2; exit 1; }

# Checkpoint/restart smoke: rank 1 is killed at the top of step 3 of a
# supervised 5-step run checkpointing every 2 steps. The launcher must
# fence the survivor, relaunch the cohort from generation 2 (the newest
# complete one), and the resumed run must finish with field bits
# identical to a never-killed run. The resumed rank-0 telemetry stream
# must validate and carry both restore and checkpoint events.
./target/release/exawind-launch -n 2 -- \
  ./target/release/exawind-worker --steps 5 --out "$mp_dir/clean"
EXAWIND_FAULTS="kill-rank@rank1:3" \
  ./target/release/exawind-launch -n 2 --checkpoint-every 2 \
  --checkpoint-dir "$mp_dir/ckpt" --max-restarts 2 -- \
  ./target/release/exawind-worker --steps 5 --out "$mp_dir/killed" \
  --telemetry "$mp_dir/ckpt-tel" 2> "$mp_dir/ckpt.log"
grep -q 'relaunching cohort from checkpoint generation 2' "$mp_dir/ckpt.log" \
  || { echo "checkpoint smoke: launcher did not relaunch from generation 2" >&2; exit 1; }
cmp "$mp_dir/killed.rank0.bits" "$mp_dir/clean.rank0.bits" \
  || { echo "checkpoint smoke: rank 0 fields differ after restart" >&2; exit 1; }
cmp "$mp_dir/killed.rank1.bits" "$mp_dir/clean.rank1.bits" \
  || { echo "checkpoint smoke: rank 1 fields differ after restart" >&2; exit 1; }
cargo run --release -p exawind-bench --bin exawind-perf -- validate "$mp_dir/ckpt-tel.rank0.jsonl"
grep -q '"type":"restore"' "$mp_dir/ckpt-tel.rank0.jsonl" \
  || { echo "checkpoint smoke: no restore event in resumed rank-0 stream" >&2; exit 1; }
grep -q '"type":"checkpoint"' "$mp_dir/ckpt-tel.rank0.jsonl" \
  || { echo "checkpoint smoke: no checkpoint event in resumed rank-0 stream" >&2; exit 1; }

# Every committed number regenerates: each harness binary in
# crates/bench/src/bin (all but the `exawind-perf` stream tool) prints
# exact or modeled numbers only on stdout — host seconds go to stderr,
# the `.err` side file — and that stdout must equal `results/<bin>.txt`
# byte for byte. A binary without a committed, reproducible output fails
# here. Every modeled number is a `sparse_kit::cost` price run through
# the `machine` model, so a re-pricing shows as a diff (commit the
# regenerated `results/*.txt` with it); `tune_solver` drives three AMG
# configurations through the full solver on 8 ranks, so identical
# iteration and message totals also prove the V-cycle did not change.
model_out=$(mktemp /tmp/exawind_model.XXXXXX.txt)
trap 'rm -f "$tel_out" "$fault_out" "$turb_out" "$model_out"; rm -rf "$mp_dir"' EXIT
for src in crates/bench/src/bin/*.rs; do
  bin=$(basename "$src" .rs)
  [ "$bin" = exawind-perf ] && continue
  cargo run --release -p exawind-bench --bin "$bin" > "$model_out"
  cmp "$model_out" "results/$bin.txt" \
    || { echo "results smoke: results/$bin.txt differs from a fresh run" >&2; exit 1; }
done
