//! Outside-in spans: the benchmark times its own calls into each crate's
//! public functions. Spans stay in memory and are written once, at the end
//! of a run, as Chrome trace-event JSON.

use mct_serve::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.what`, e.g. `tbf.reach`; the layer is the part before the dot.
    pub name: String,
    /// Row (or query) the span belongs to; spans of one row share it.
    pub row: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for `row`.
    pub fn span<T>(&mut self, name: &str, row: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let ix = self.spans.len();
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_owned(),
            row: row.to_owned(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(ix);
        let out = f(self);
        self.open.pop();
        self.spans[ix].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Each layer's self time in ms over the spans since `mark`: a span's
    /// duration minus the part its child spans cover.
    pub fn self_ms_by_layer(&self, mark: usize) -> BTreeMap<String, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans[mark..] {
            if let Some(p) = s.parent {
                child_ms[p] += s.dur_ms();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(mark) {
            *out.entry(s.layer().to_owned()).or_insert(0.0) += s.dur_ms() - child_ms[i];
        }
        out
    }

    /// The whole trace as Chrome trace-event JSON (complete `X` events).
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("cat".into(), Json::Str(s.layer().to_owned())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Float(s.start_us)),
                    ("dur".into(), Json::Float(s.end_us - s.start_us)),
                    ("pid".into(), Json::Int(1)),
                    ("tid".into(), Json::Int(1)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::Int(i as i64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                            ),
                            ("row".into(), Json::Str(s.row.clone())),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
    }
}
