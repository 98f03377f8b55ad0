//! The benchmark's own in-memory spans.
//!
//! One span per call the benchmark makes into a layer: `episode →
//! {generate, comm_start, sim_new, step[k]}` and `probe → <layer>.<call>`.
//! Spans are kept in memory and written as JSONL when the run ends; a
//! disabled recorder still measures (callers need the seconds) but keeps
//! nothing, so the untraced run pays only the two clock reads it needs
//! anyway.

use std::time::Instant;

use telemetry::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Seconds since the recorder's epoch.
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub episode: usize,
    /// Rank thread that recorded it; `None` for the driving thread.
    pub rank: Option<usize>,
}

pub struct Spans {
    epoch: Instant,
    enabled: bool,
    rank: Option<usize>,
    pub episode: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            rank: None,
            episode: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder for a rank thread, sharing this one's epoch; merge it
    /// back with [`Spans::adopt`].
    pub fn for_rank(&self, rank: usize) -> Spans {
        Spans {
            rank: Some(rank),
            open: Vec::new(),
            spans: Vec::new(),
            ..*self
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_s = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
            episode: self.episode,
            rank: self.rank,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span (must be `id`); returns its seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end_s = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        let span = &mut self.spans[id];
        span.end_s = end_s;
        let secs = end_s - span.start_s;
        if !self.enabled {
            self.spans.truncate(id);
        }
        secs
    }

    /// Run `f` inside a span named `name`; returns its result and seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.open(name);
        let out = f();
        (out, self.close(id))
    }

    /// Record a span whose bounds were measured elsewhere (seconds since
    /// the epoch), under the innermost open span.
    pub fn record(&mut self, name: &str, start_s: f64, end_s: f64) {
        if self.enabled {
            let id = self.open(name);
            self.open.pop();
            self.spans[id].start_s = start_s;
            self.spans[id].end_s = end_s;
        }
    }

    /// Seconds since the epoch of `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }

    /// Merge a rank recorder's spans under the innermost open span.
    pub fn adopt(&mut self, child: Spans) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for mut s in child.spans {
            s.parent = s.parent.map(|p| p + base).or(parent);
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part its children
    /// (of the same thread) cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id) && c.rank == s.rank)
            .map(|c| c.end_s - c.start_s)
            .sum();
        (s.end_s - s.start_s) - children
    }

    pub fn to_jsonl(&self) -> String {
        let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Int(v as i128));
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Int(id as i128)),
                    ("name", Json::Str(s.name.clone())),
                    ("start_s", Json::Float(s.start_s)),
                    ("end_s", Json::Float(s.end_s)),
                    ("parent", opt(s.parent)),
                    ("episode", Json::Int(s.episode as i128)),
                    ("rank", opt(s.rank)),
                ])
                .to_string()
                    + "\n"
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut s = Spans::new(true);
        let ep = s.open("episode");
        s.record("generate", 1.0, 3.0);
        let mut r = s.for_rank(1);
        r.record("sim_new", 3.0, 4.0);
        s.adopt(r);
        s.close(ep);
        let spans = s.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[2].parent, spans[2].rank), (Some(0), Some(1)));
        // Only same-thread children count against the parent.
        let dur = spans[0].end_s - spans[0].start_s;
        assert!((s.self_time(0) - (dur - 2.0)).abs() < 1e-12);
        assert_eq!(s.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn disabled_recorder_measures_but_keeps_nothing() {
        let mut s = Spans::new(false);
        let ((), secs) = s.time("x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert!(s.spans().is_empty());
    }
}
