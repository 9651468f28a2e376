//! Spans and per-operation counters, kept in memory and written out
//! once at the end of a replay.
//!
//! Output format (one record per line, tab-separated):
//!
//! ```text
//! S  <req> <name> <start_ns> <end_ns> <parent>   a span (parent -1 = top level)
//! C  <req> <name> <value>                        a counter or measured value
//! H  <req> <fnv64 hex>                           hash of the operation's reply
//! ```
//!
//! `req` is the operation's position in the replayed stream; set-up
//! repetitions use negative ids (`-1`, `-2`, …).

use std::fmt::Write as _;
use std::time::Instant;

use standoff_xquery::plan::{Plan, PlanExpr};
use standoff_xquery::profile::op_kind;
use standoff_xquery::PlanProfile;

struct Span {
    name: &'static str,
    req: i64,
    start_ns: u64,
    end_ns: u64,
    parent: i64,
}

/// A span recorder. With `on == false` every call is a no-op, which is
/// how the replays measure the recorder's own overhead.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

const OFF: usize = usize::MAX;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, req: i64) -> usize {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len();
        let parent = self.stack.last().map_or(-1, |&p| p as i64);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            req,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        if id == OFF {
            return;
        }
        self.spans[id].end_ns = self.now();
        self.stack.pop();
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: i64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }
}

/// Everything a replay writes: spans plus counter and hash records.
#[derive(Default)]
pub struct Report {
    lines: String,
}

impl Report {
    pub fn value(&mut self, req: i64, name: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.lines, "C\t{req}\t{name}\t{value}");
    }

    pub fn hash(&mut self, req: i64, reply: &str) {
        let _ = writeln!(self.lines, "H\t{req}\t{:016x}", fnv64(reply.as_bytes()));
    }

    /// Per-operator self times (inclusive time minus the executed
    /// children's) summed by operator class, plus the StandOff join
    /// counters of one profiled execution.
    pub fn profile(&mut self, req: i64, plan: &Plan, profile: &PlanProfile) {
        let mut self_ns = [0u64; 5];
        let (mut merge_reads, mut delta_cand_rows) = (0u64, 0u64);
        plan.visit_exprs(&mut |expr: &PlanExpr| {
            let Some(m) = profile.get(expr) else { return };
            let mut children = 0u64;
            expr.for_each_child(|c| children += profile.get(c).map_or(0, |cm| cm.wall_ns));
            self_ns[op_class(expr)] += m.wall_ns.saturating_sub(children);
            if let Some(j) = &m.join {
                merge_reads += j.merge_reads;
                delta_cand_rows += j.delta_cand_rows;
            }
        });
        for (k, class) in OP_CLASSES.iter().enumerate() {
            self.value(req, &format!("op.{class}.self_ns"), self_ns[k]);
        }
        self.value(req, "join.merge_reads", merge_reads);
        self.value(req, "join.delta_cand_rows", delta_cand_rows);
    }

    pub fn join_stats(&mut self, req: i64, s: &standoff_xquery::JoinStats) {
        self.value(req, "join.candidate_scans", s.candidate_scans);
        self.value(req, "join.candidate_node_view", s.candidate_node_view);
        self.value(req, "join.candidate_repr_dense", s.candidate_repr_dense);
        self.value(req, "join.candidate_repr_sparse", s.candidate_repr_sparse);
        self.value(req, "join.candidate_dense_blocks", s.candidate_dense_blocks);
        self.value(req, "join.morsels_dispatched", s.morsels_dispatched);
    }

    /// Write the spans of `tracer` and every record to `path`.
    pub fn write(mut self, tracer: &Tracer, path: &str) -> Result<(), String> {
        for s in &tracer.spans {
            let _ = writeln!(
                self.lines,
                "S\t{}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns, s.parent
            );
        }
        std::fs::write(path, self.lines).map_err(|e| format!("{path}: {e}"))
    }
}

const OP_CLASSES: [&str; 5] = ["join", "step", "predicate", "construct", "other"];

/// Index into [`OP_CLASSES`], by the operator's stable kind label.
/// A UDF call's self time includes its function body, whose operators
/// are profiled as their own roots as well.
fn op_class(expr: &PlanExpr) -> usize {
    match op_kind(expr) {
        "standoff-step" | "standoff-join" => 0,
        "tree-step" | "path" | "root" => 1,
        "filter" | "compare" | "and" | "or" | "quantified" => 2,
        "construct" => 3,
        _ => 4,
    }
}

/// FNV-1a over the reply bytes; `run.py` computes the same hash over
/// the replies it received to prove the replay saw the same answers.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
