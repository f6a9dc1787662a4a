//! Spans around the harness's calls into each crate.
//!
//! Spans are recorded from the benchmark's own files, at the public calls
//! into the layers; they are kept in memory and written out after the last
//! rep. A span's self time is its duration minus the part its children cover.
//! With the tracer off (`bench`) a span is a plain call.

use crate::metrics::{int, obj, text};
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub rep: usize,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub rep: usize,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`. `f` gets the tracer back so it
    /// can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Self time in seconds summed per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut self_ns: Vec<i128> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i128)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= (s.end_ns - s.start_ns) as i128;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            *by_name.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        by_name
    }

    /// The spans as JSON, for `--trace-out`.
    pub fn to_value(&self) -> Value {
        Value::Seq(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj([
                        ("id", int(id as u64)),
                        ("name", text(s.name)),
                        ("start_ns", int(s.start_ns)),
                        ("end_ns", int(s.end_ns)),
                        ("parent", s.parent.map_or(Value::Null, |p| int(p as u64))),
                        ("rep", int(s.rep as u64)),
                    ])
                })
                .collect(),
        )
    }
}
