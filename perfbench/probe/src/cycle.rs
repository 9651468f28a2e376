//! `cycle-replay`: the `annotate-cycle` CLI operations, in-process.
//!
//! Every recorded `standoff-xq` invocation is replayed as the same
//! sequence of public library calls the CLI makes, on a private copy
//! of the store, with a span around each call. `run.py` subtracts the
//! spans of an operation from the process wall time it measured for
//! the same operation; the rest is the CLI's own cost (spawn, argument
//! parsing, output).
//!
//! Operation payloads (first line tab-separated, paths relative to
//! `--dir`, the body after the first newline):
//!
//! ```text
//! query    SNAP DELTA|-            \n query text
//! annotate SNAP DELTA journal|checkpoint \n ops text
//! compact  SNAP DELTA OUT          \n
//! ```

use std::path::{Path, PathBuf};
use std::time::Instant;

use standoff_store::{
    atomic_write, checkpoint_marker, checkpointed_seq, compact, ops_to_text, parse_ops,
    save_snapshot, wal_path, DeltaSet, DeltaWal, LayerSet, Snapshot,
};
use standoff_xquery::Engine;

use crate::trace::{Report, Tracer};
use crate::{read_frames, Args};

/// Reads in the overhead measurement.
const OVERHEAD_READS: usize = 20;

pub fn run(args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(args.get("--dir")?);
    let ops = read_frames(args.get("--ops")?)?;
    let out = args.get("--out")?;
    let mut t = Tracer::new(true);
    let mut report = Report::default();

    crate::serve::setup(&dir.join(args.get("--snap")?), &mut t)?;

    // The first reads, kept for the overhead measurement below.
    let mut reads: Vec<(PathBuf, Option<PathBuf>, &str)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let req = i as i64;
        let (head, body) = op.split_once('\n').unwrap_or((op, ""));
        let f: Vec<&str> = head.split('\t').collect();
        let at = |k: usize| -> Result<PathBuf, String> {
            f.get(k)
                .map(|p| dir.join(p))
                .ok_or_else(|| format!("op {i}: short header {head:?}"))
        };
        let result = match f[0] {
            "query" => {
                let delta = (f.get(2) != Some(&"-")).then(|| at(2)).transpose()?;
                let snap = at(1)?;
                let result = query(
                    &mut t,
                    &mut report,
                    req,
                    &snap,
                    delta.as_deref(),
                    body,
                    true,
                );
                if reads.len() < OVERHEAD_READS {
                    reads.push((snap, delta, body));
                }
                result
            }
            "annotate" => annotate(
                &mut t,
                req,
                &at(1)?,
                &at(2)?,
                f.get(3) == Some(&"journal"),
                body,
            ),
            "compact" => compact_op(&mut t, req, &at(1)?, &at(2)?, &at(3)?),
            other => Err(format!("unknown op kind {other:?}")),
        };
        result.map_err(|e| format!("op {i} ({}): {e}", f[0]))?;
    }

    // Recorder overhead: the first reads again (against the files as
    // the replay left them), each once with the recorder off and once
    // with it on, in alternating order.
    let (mut off, mut on) = (Tracer::new(false), Tracer::new(true));
    let (mut off_ns, mut on_ns) = (0u64, 0u64);
    let mut scratch = Report::default();
    for (k, (snap, delta, text)) in reads.iter().enumerate() {
        for traced in [k % 2 == 0, k % 2 != 0] {
            let tt = if traced { &mut on } else { &mut off };
            let started = Instant::now();
            query(
                tt,
                &mut scratch,
                k as i64,
                snap,
                delta.as_deref(),
                text,
                false,
            )?;
            let ns = started.elapsed().as_nanos() as u64;
            *(if traced { &mut on_ns } else { &mut off_ns }) += ns;
        }
    }
    report.value(-1, "trace.on_ns", on_ns);
    report.value(-1, "trace.off_ns", off_ns);
    report.value(-1, "trace.ops", reads.len());
    report.write(&t, out)
}

fn open(t: &mut Tracer, req: i64, snap: &Path) -> Result<LayerSet, String> {
    let snapshot = t
        .span("store.open", req, || Snapshot::open(snap))
        .map_err(|e| e.to_string())?;
    t.span("store.materialize", req, || snapshot.to_layer_set())
        .map_err(|e| e.to_string())
}

/// The read-only sidecar replay every `--delta` reader runs: checkpoint
/// text first, then the journal records above its mark.
fn replay_delta(sidecar: &Path, set: &LayerSet) -> Result<DeltaSet, String> {
    let mut delta = DeltaSet::new();
    let wal_file = wal_path(sidecar);
    let have_wal = wal_file.exists();
    let mut checkpointed = 0;
    match std::fs::read_to_string(sidecar) {
        Ok(text) => {
            checkpointed = checkpointed_seq(&text);
            let ops = parse_ops(&text).map_err(|e| e.to_string())?;
            delta.apply_all(ops, set).map_err(|e| e.to_string())?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && have_wal => {}
        Err(e) => return Err(format!("{}: {e}", sidecar.display())),
    }
    if have_wal {
        let scan = DeltaWal::scan(&wal_file).map_err(|e| e.to_string())?;
        for record in scan.records.iter().filter(|r| r.seq > checkpointed) {
            let ops = parse_ops(&record.ops).map_err(|e| e.to_string())?;
            delta.apply_all(ops, set).map_err(|e| e.to_string())?;
        }
    }
    Ok(delta)
}

fn query(
    t: &mut Tracer,
    report: &mut Report,
    req: i64,
    snap: &Path,
    sidecar: Option<&Path>,
    text: &str,
    profile: bool,
) -> Result<(), String> {
    let set = open(t, req, snap)?;
    let mut engine = Engine::new();
    match sidecar {
        Some(sidecar) => {
            let delta = t.span("store.delta_replay", req, || replay_delta(sidecar, &set))?;
            t.span("xquery.mount_overlay", req, || {
                engine.mount_overlay(set, &delta)
            })
        }
        None => t.span("xquery.mount", req, || engine.mount_store(set)),
    }
    .map_err(|e| e.to_string())?;
    let shared = engine.into_shared();
    let plan = t
        .span("xquery.compile", req, || shared.compile(text))
        .map_err(|e| e.to_string())?;
    let mut session = shared.session();
    let result = t
        .span("xquery.execute", req, || session.execute_plan(&plan))
        .map_err(|e| e.to_string())?;
    let xml = t.span("xml.serialize", req, || result.as_xml());
    report.value(req, "xml.reply_bytes", xml.len());
    report.hash(req, &xml);
    if !profile {
        return Ok(());
    }
    let mut session = shared.session();
    session.set_profile(true);
    session.execute_plan(&plan).map_err(|e| e.to_string())?;
    report.profile(req, &plan, &session.take_last_profile().unwrap_or_default());
    report.join_stats(req, &session.take_join_stats());
    Ok(())
}

fn annotate(
    t: &mut Tracer,
    req: i64,
    snap: &Path,
    sidecar: &Path,
    journal: bool,
    text: &str,
) -> Result<(), String> {
    let set = open(t, req, snap)?;
    let wal_file = wal_path(sidecar);
    let id = t.enter("store.delta_replay", req);
    let mut delta = DeltaSet::new();
    let mut checkpointed = 0;
    if sidecar.exists() {
        let text = std::fs::read_to_string(sidecar).map_err(|e| e.to_string())?;
        checkpointed = checkpointed_seq(&text);
        let ops = parse_ops(&text).map_err(|e| e.to_string())?;
        delta.apply_all(ops, &set).map_err(|e| e.to_string())?;
    }
    let (mut wal, replayed) = DeltaWal::open(&wal_file).map_err(|e| e.to_string())?;
    wal.ensure_seq_above(checkpointed);
    for record in replayed.iter().filter(|r| r.seq > checkpointed) {
        let ops = parse_ops(&record.ops).map_err(|e| e.to_string())?;
        delta.apply_all(ops, &set).map_err(|e| e.to_string())?;
    }
    t.exit(id);
    let ops = parse_ops(text).map_err(|e| e.to_string())?;
    let applied = t
        .span("store.delta_apply", req, || {
            delta.apply_all(ops.iter().cloned(), &set)
        })
        .map_err(|e| e.to_string())?;
    let mut engine = Engine::new();
    t.span("xquery.mount_overlay", req, || {
        engine.mount_overlay(set, &delta)
    })
    .map_err(|e| e.to_string())?;
    if journal {
        if applied > 0 {
            t.span("store.wal_append", req, || wal.append(&ops_to_text(&ops)))
                .map_err(|e| e.to_string())?;
        }
    } else {
        t.span("store.checkpoint", req, || -> Result<(), String> {
            let mut text = checkpoint_marker(wal.last_seq());
            text.push_str(&ops_to_text(&delta.to_ops()));
            atomic_write(sidecar, text.as_bytes()).map_err(|e| e.to_string())?;
            wal.truncate().map_err(|e| e.to_string())
        })?;
    }
    Ok(())
}

fn compact_op(
    t: &mut Tracer,
    req: i64,
    snap: &Path,
    sidecar: &Path,
    out: &Path,
) -> Result<(), String> {
    let set = open(t, req, snap)?;
    let delta = t.span("store.delta_replay", req, || replay_delta(sidecar, &set))?;
    let folded = t
        .span("store.compact", req, || compact(&set, &delta))
        .map_err(|e| e.to_string())?;
    t.span("store.save", req, || save_snapshot(&folded, out))
        .map_err(|e| e.to_string())
}
