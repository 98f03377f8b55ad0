//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build container cannot reach crates.io, so this shim provides the
//! subset of criterion's API used by `crates/bench`: `Criterion`,
//! `benchmark_group` + `sample_size` + `bench_with_input`/`bench_function` +
//! `finish`, `BenchmarkId`, `Bencher::iter`, and the
//! `criterion_group!`/`criterion_main!` macros.
//!
//! Measurement model: each `Bencher::iter` call runs the closure once as
//! warmup, then `sample_size` timed invocations. Mean / median / min are
//! printed to stdout. If the `CRITERION_JSON` environment variable is set,
//! one JSON line per benchmark is appended to that file so harness scripts
//! can collect machine-readable results. The lines carry `"type":"bench"`
//! but the file is not a telemetry stream: `telemetry` has no `bench`
//! event, so `read_jsonl` / `exawind-perf validate` reject it.

use std::fmt;
use std::io::Write;
use std::time::Instant;

pub use std::hint::black_box;

#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl fmt::Display) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: 20,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one("", name, 20, &mut f);
        self
    }

    /// Accepted for compatibility; CLI filtering is not implemented.
    pub fn configure_from_args(self) -> Self {
        self
    }
}

pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&self.name, &id.0, self.sample_size, &mut |b: &mut Bencher| {
            f(b, input)
        });
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self {
        let id: BenchmarkId = id.into();
        run_one(&self.name, &id.0, self.sample_size, &mut f);
        self
    }

    pub fn finish(self) {}
}

#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

pub struct Bencher {
    sample_size: usize,
    samples_ns: Vec<u128>,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(&f()); // warmup (also forces lazy setup)
        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            let out = f();
            black_box(&out);
            self.samples_ns.push(t0.elapsed().as_nanos());
        }
    }
}

fn run_one(group: &str, id: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        sample_size,
        samples_ns: Vec::with_capacity(sample_size),
    };
    f(&mut b);
    let full = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    if b.samples_ns.is_empty() {
        println!("{full:<56} (no samples: Bencher::iter never called)");
        return;
    }
    let mut sorted = b.samples_ns.clone();
    sorted.sort_unstable();
    let min = sorted[0];
    let median = sorted[sorted.len() / 2];
    let mean = sorted.iter().sum::<u128>() / sorted.len() as u128;
    println!(
        "{full:<56} mean {:>12}  median {:>12}  min {:>12}  ({} samples)",
        fmt_ns(mean),
        fmt_ns(median),
        fmt_ns(min),
        sorted.len()
    );
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if !path.is_empty() {
            // One self-describing JSON object per bench: `threads` (a
            // bench runs on one thread) and `git_commit` say what the
            // numbers were measured on. Not a telemetry event (see the
            // module docs).
            let mut line = format!(
                "{{\"type\":\"bench\",\"bench\":\"{full}\",\"mean_ns\":{mean},\"median_ns\":{median},\"min_ns\":{min},\"samples\":{},\"threads\":1",
                sorted.len()
            );
            if let Some(commit) = git_commit() {
                line.push_str(&format!(",\"git_commit\":\"{commit}\""));
            }
            line.push_str("}\n");
            let _ = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut fh| fh.write_all(line.as_bytes()));
        }
    }
}

/// Current git commit, resolved offline (no `git` subprocess): the
/// `GIT_COMMIT` env var, else `.git/HEAD` walking one symbolic ref.
fn git_commit() -> Option<String> {
    if let Ok(c) = std::env::var("GIT_COMMIT") {
        if !c.is_empty() {
            return Some(c);
        }
    }
    // Bench executables run with cwd = the package dir, so walk up to
    // whatever ancestor holds the `.git` directory.
    let mut dir = std::env::current_dir().ok()?;
    let git = loop {
        let cand = dir.join(".git");
        if cand.is_dir() {
            break cand;
        }
        if !dir.pop() {
            return None;
        }
    };
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(refname) = head.strip_prefix("ref: ") {
        if let Ok(direct) = std::fs::read_to_string(git.join(refname)) {
            return Some(direct.trim().to_string());
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        for line in packed.lines() {
            if let Some(hash) = line.strip_suffix(refname) {
                return Some(hash.trim().to_string());
            }
        }
        None
    } else if head.len() >= 7 {
        Some(head.to_string())
    } else {
        None
    }
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_selftest");
        group.sample_size(3);
        let n = 1000u64;
        let mut ran = 0u32;
        group.bench_with_input(BenchmarkId::new("sum", n), &n, |b, &n| {
            b.iter(|| (0..n).sum::<u64>());
            ran += 1;
        });
        group.finish();
        assert_eq!(ran, 1);
    }

    #[test]
    fn bench_function_on_criterion() {
        let mut c = Criterion::default();
        c.bench_function("plain", |b| b.iter(|| black_box(2 + 2)));
    }

    #[test]
    fn json_lines_carry_type_threads_and_commit_fields() {
        let path = std::env::temp_dir().join(format!("criterion_shim_{}.jsonl", std::process::id()));
        std::env::set_var("CRITERION_JSON", &path);
        let mut c = Criterion::default();
        c.bench_function("jsonfields", |b| b.iter(|| black_box(1 + 1)));
        std::env::remove_var("CRITERION_JSON");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let line = text
            .lines()
            .find(|l| l.contains("\"bench\":\"jsonfields\""))
            .expect("bench line written");
        assert!(line.starts_with("{\"type\":\"bench\""), "{line}");
        assert!(line.contains("\"threads\":"), "{line}");
        assert!(line.contains("\"samples\":20"), "{line}");
    }
}
