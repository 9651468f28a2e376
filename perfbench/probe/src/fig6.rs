//! `fig6`: the paper's Figure 6 ladder — StandOff XMark Q1/Q2/Q6/Q7
//! under the candidate-sequence UDF (Figure 3), the basic merge join
//! (§4.4) and the loop-lifted merge join (§4.5), at three document
//! sizes in the paper's ×5/×2 ratios.
//!
//! Workloads, query texts and strategies come from `standoff-bench`
//! (the repository's own Figure 6 harness); this module adds only the
//! measurement: a cell runs until it has five timings and 0.2 s of work
//! (at most 50 runs), or a single run exceeds 0.5 s, and its median is
//! reported. A run past the cutoff (enforced with a query deadline) is
//! DNF, and the variant is DNF at every larger size too.
//!
//! Output lines: `F <query> <variant> <size> <std_bytes> <median_ns|DNF>`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use standoff_bench::{figure6_variants, prepare_workload, Figure6Variant, SO_URI};
use standoff_xmark::queries::XmarkQuery;
use standoff_xquery::{Engine, Governance, QueryError};

use crate::Args;

const SIZES: [(&str, f64); 3] = [("small", 0.01), ("mid", 0.05), ("large", 0.1)];

pub fn run(args: &Args) -> Result<(), String> {
    let cutoff = Duration::from_millis(args.num("--cutoff-ms")?);
    let out = args.get("--out")?;

    let mut ladder: Vec<_> = SIZES
        .iter()
        .map(|&(label, scale)| (label, prepare_workload(scale)))
        .collect();
    let mut lines = String::new();
    for q in XmarkQuery::ALL {
        for variant in figure6_variants(false) {
            let text = variant.query_text(q, SO_URI);
            let mut dnf = false;
            for (label, w) in ladder.iter_mut() {
                w.engine.set_strategy(variant.strategy());
                let cell = if dnf {
                    None
                } else {
                    measure(&mut w.engine, &text, cutoff)?
                };
                dnf = cell.is_none();
                let value = cell.map_or("DNF".to_string(), |ns| ns.to_string());
                let _ = writeln!(
                    lines,
                    "F\t{q}\t{}\t{label}\t{}\t{value}",
                    short_label(variant),
                    w.standard_bytes
                );
            }
        }
    }
    std::fs::write(out, lines).map_err(|e| format!("{out}: {e}"))
}

fn short_label(variant: Figure6Variant) -> &'static str {
    match variant {
        Figure6Variant::UdfNoCandidates => "udf",
        Figure6Variant::UdfWithCandidates => "udf-cand",
        Figure6Variant::BasicMergeJoin => "basic",
        Figure6Variant::LoopLifted => "loop-lifted",
    }
}

/// Median wall time of one cell in ns, `None` past the cutoff.
fn measure(engine: &mut Engine, text: &str, cutoff: Duration) -> Result<Option<u64>, String> {
    let governance = Governance {
        deadline: Some(cutoff),
        ..Governance::default()
    };
    let mut times = Vec::new();
    let started = Instant::now();
    let outcome = loop {
        engine.set_budget(governance.fresh_budget());
        let t0 = Instant::now();
        let result = engine.run_and_discard(text);
        let dt = t0.elapsed();
        match result {
            Err(QueryError::Timeout) => break None,
            Err(e) => return Err(format!("{e}\n{text}")),
            Ok(_) if dt > cutoff => break None,
            Ok(_) => times.push(dt.as_nanos() as u64),
        }
        let enough = times.len() >= 5 && started.elapsed() > Duration::from_millis(200);
        if enough || times.len() >= 50 || dt > Duration::from_millis(500) {
            times.sort_unstable();
            break Some(times[times.len() / 2]);
        }
    };
    engine.set_budget(None);
    Ok(outcome)
}
