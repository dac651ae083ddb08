//! Harness-side spans around every call into a layer.
//!
//! A span is a name, a start, an end, the span that caused it and the op it
//! belongs to.  Spans stay in memory while the traced pass runs and are
//! written as JSON lines when it ends.  A layer's **self time** is its
//! span minus the part its children cover.  The service's own stage events
//! (`traces_jsonl`) are joined under the client span of the same request by
//! admission order.

use crate::json::Json;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// What the traced pass of one workload hands back.
pub struct Traced {
    /// The per-layer values the pass can derive, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub ops_per_s: f64,
    /// Ops per second of the same fixed-count pass run untraced, when asked
    /// for: the other side of `obs.trace_overhead_frac`.
    pub untraced_ops_per_s: Option<f64>,
    pub tracer: Tracer,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log; `None`-like when disabled, so the untraced pass
/// runs the same code and pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `call` inside a span named `name` for op `op`, as a child of
    /// the innermost open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u32,
        call: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return call(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            op,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let start = Instant::now();
        let out = call(self);
        let end = Instant::now();
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.start_ns = (start - self.origin).as_nanos() as u64;
        span.end_ns = (end - self.origin).as_nanos() as u64;
        out
    }

    /// Joins one of the service's request traces under the client span
    /// `parent`: each stage becomes a child span placed at its offset from
    /// the trace origin, which is the request's enqueue instant inside the
    /// client call.
    pub fn join_stages(&mut self, parent: u32, trace: &Json) {
        let Some(stages) = trace.get("stages").and_then(Json::as_obj) else {
            return;
        };
        let (base, op) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.op)
        };
        for (stage, timing) in stages {
            let (Some(start), Some(dur)) = (timing.num("start_ns"), timing.num("dur_ns")) else {
                continue;
            };
            self.spans.push(Span {
                name: Cow::Owned(format!("serve.stage.{stage}")),
                op,
                parent: Some(parent),
                start_ns: base + start as u64,
                end_ns: base + start as u64 + dur as u64,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ids of the spans called `name`, in start order.
    pub fn ids_named(&self, name: &str) -> Vec<u32> {
        (0..self.spans.len() as u32)
            .filter(|&i| self.spans[i as usize].name == name)
            .collect()
    }

    /// Durations in ns of the spans called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time in ns of every span called `name`: its duration minus the
    /// durations of its direct children (children of one span never
    /// overlap here — the harness is one thread and the service's stages
    /// tile the request).
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c) as f64)
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.to_string())),
                ("op", Json::Num(f64::from(s.op))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("op", 3, |t| {
            t.span("layer.a", 3, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("layer.b", 3, |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let own = t.self_times_ns("op")[0];
        let children = t.durations_ns("layer.a")[0] + t.durations_ns("layer.b")[0];
        assert_eq!(own + children, spans[0].dur_ns() as f64);
        assert!(children >= 3.0e6);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_runs_the_call() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", 0, |_| 41 + 1), 42);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn service_stages_join_under_the_client_span() {
        let mut t = Tracer::new(true);
        t.span("serve.request", 9, |_| {});
        let trace = Json::parse(
            r#"{"trace":0,"total_ns":30,"stages":{"queue_wait":{"start_ns":0,"dur_ns":10},"score":{"start_ns":10,"dur_ns":20}}}"#,
        )
        .unwrap();
        t.join_stages(0, &trace);
        assert_eq!(t.spans().len(), 3);
        let score = &t.spans()[t.ids_named("serve.stage.score")[0] as usize];
        assert_eq!((score.parent, score.op, score.dur_ns()), (Some(0), 9, 20));
        assert_eq!(score.start_ns, t.spans()[0].start_ns + 10);
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let mut t = Tracer::new(true);
        t.span("a", 0, |t| t.span("b", 0, |_| {}));
        let path = crate::out_dir().join("trace-unit-test.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("name"), Some(&Json::Str("b".to_string())));
        assert_eq!(lines[1].num("parent"), Some(0.0));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
    }
}
