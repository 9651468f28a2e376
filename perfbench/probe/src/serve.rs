//! `serve-replay`: the request path of `standoff-xq serve`, in-process.
//!
//! Set-up mirrors what the server does before it answers: open the
//! snapshot, materialize its layers, mount them, and wrap the engine in
//! a governed executor with a 256-entry plan cache. Each recorded query
//! then runs three times:
//!
//! 1. `Executor::run_governed_with` + `QueryResult::as_xml` — the
//!    server's own calls (`xquery.governed`, `xml.serialize`);
//! 2. decomposed: `SharedEngine::compile` (`xquery.compile`) and
//!    `Session::execute_plan` (`xquery.execute`);
//! 3. once more with per-operator profiling, for operator self times
//!    and the join counters (not timed as a span).
//!
//! Finally a prefix of the stream runs through the governed path once
//! with the recorder off and once with it on, to measure the recorder's
//! own overhead.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use standoff_core::Budget;
use standoff_store::Snapshot;
use standoff_xquery::exec::DEFAULT_CACHE_CAPACITY;
use standoff_xquery::{Engine, Executor, Governance, QueryCache, SharedEngine};

use crate::trace::{Report, Tracer};
use crate::{read_frames, Args};

/// Set-up repetitions whose medians the per-layer set-up metrics report.
const SETUP_REPS: usize = 5;
/// Queries in the overhead measurement (a prefix of the stream).
const OVERHEAD_OPS: usize = 200;

/// Open, materialize and mount `path` the way `serve` does,
/// [`SETUP_REPS`] times; returns the last engine.
pub fn setup(path: &Path, t: &mut Tracer) -> Result<SharedEngine, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let mut shared = None;
    for rep in 0..SETUP_REPS {
        let req = -1 - rep as i64;
        let snapshot = t
            .span("store.open", req, || Snapshot::open(path))
            .map_err(|e| fail(&e))?;
        let set = t
            .span("store.materialize", req, || snapshot.to_layer_set())
            .map_err(|e| fail(&e))?;
        let mut engine = Engine::new();
        t.span("xquery.mount", req, || engine.mount_store(set))
            .map_err(|e| fail(&e))?;
        shared = Some(engine.into_shared());
    }
    shared.ok_or_else(|| "no set-up repetitions".to_string())
}

pub fn run(args: &Args) -> Result<(), String> {
    let snap = args.get("--snap")?;
    let ops = read_frames(args.get("--ops")?)?;
    let out = args.get("--out")?;
    let mut t = Tracer::new(true);
    let mut report = Report::default();

    let shared = setup(Path::new(snap), &mut t)?;
    let exec = Executor::governed_with_cache(
        shared.clone(),
        1,
        Governance::default(),
        Arc::new(QueryCache::new(DEFAULT_CACHE_CAPACITY)),
    );

    for (i, text) in ops.iter().enumerate() {
        let req = i as i64;
        let result = t
            .span("xquery.governed", req, || {
                exec.run_governed_with(text, Some(Budget::cancel_token()))
            })
            .map_err(|e| format!("op {i}: {e}"))?;
        let xml = t.span("xml.serialize", req, || result.as_xml());
        report.value(req, "xml.reply_bytes", xml.len());
        report.hash(req, &xml);
    }

    for (i, text) in ops.iter().enumerate() {
        let req = i as i64;
        let plan = t
            .span("xquery.compile", req, || shared.compile(text))
            .map_err(|e| format!("op {i}: {e}"))?;
        let mut session = shared.session();
        t.span("xquery.execute", req, || session.execute_plan(&plan))
            .map_err(|e| format!("op {i}: {e}"))?;
        let mut session = shared.session();
        session.set_profile(true);
        session
            .execute_plan(&plan)
            .map_err(|e| format!("op {i}: {e}"))?;
        report.profile(req, &plan, &session.take_last_profile().unwrap_or_default());
        report.join_stats(req, &session.take_join_stats());
    }
    let counters = exec.metrics_snapshot().counters;
    report.value(
        -1,
        "executor.sheds",
        counters.get("executor.sheds").copied().unwrap_or(0),
    );
    report.value(-1, "executor.attempts", ops.len());

    // Recorder overhead: the governed path over a prefix of the stream,
    // each query once with the recorder off and once with it on, in
    // alternating order.
    let prefix = &ops[..ops.len().min(OVERHEAD_OPS)];
    let (mut off, mut on) = (Tracer::new(false), Tracer::new(true));
    let (mut off_ns, mut on_ns) = (0u64, 0u64);
    for (i, text) in prefix.iter().enumerate() {
        for traced in [i % 2 == 0, i % 2 != 0] {
            let tt = if traced { &mut on } else { &mut off };
            let started = Instant::now();
            let result = tt
                .span("xquery.governed", i as i64, || {
                    exec.run_governed_with(text, Some(Budget::cancel_token()))
                })
                .map_err(|e| format!("op {i}: {e}"))?;
            let xml = tt.span("xml.serialize", i as i64, || result.as_xml());
            std::hint::black_box(xml.len());
            let ns = started.elapsed().as_nanos() as u64;
            *(if traced { &mut on_ns } else { &mut off_ns }) += ns;
        }
    }
    report.value(-1, "trace.on_ns", on_ns);
    report.value(-1, "trace.off_ns", off_ns);
    report.value(-1, "trace.ops", prefix.len());
    report.write(&t, out)
}
