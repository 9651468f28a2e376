//! `perfbench-probe` — the in-process half of the perfbench harness.
//!
//! `run.py` drives the built `standoff-xq` binary over its real
//! surfaces (TCP protocol, CLI) for the timed runs. This program does
//! the parts that need the library:
//!
//! ```text
//! perfbench-probe xmark --scale S --seed N --out DIR
//! perfbench-probe serve-replay --snap FILE --ops FILE --out FILE
//! perfbench-probe cycle-replay --dir DIR --snap FILE --ops FILE --out FILE
//! perfbench-probe fig6 --cutoff-ms MS --out FILE
//! ```
//!
//! `xmark` writes the standard XMark document (`std.xml`) and its
//! StandOff twin (`so.xml`). The two replays re-run a recorded
//! operation stream in-process with spans around the calls into each
//! module's public functions and write the spans plus per-operation
//! counters as a TSV file (see [`trace::Report`]). `fig6` measures the
//! paper's Figure 6 ladder.
//!
//! Operation streams are files of `<len>\n<payload>` frames, the same
//! framing the serve protocol uses for requests.

mod cycle;
mod fig6;
mod serve;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use standoff_xmark::{generate, standoffify, XmarkConfig};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("xmark") => cmd_xmark(&Args(&argv[1..])),
        Some("serve-replay") => serve::run(&Args(&argv[1..])),
        Some("cycle-replay") => cycle::run(&Args(&argv[1..])),
        Some("fig6") => fig6::run(&Args(&argv[1..])),
        _ => Err("usage: perfbench-probe xmark|serve-replay|cycle-replay|fig6 [FLAGS]".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` lookup over a subcommand's arguments.
pub struct Args<'a>(&'a [String]);

impl Args<'_> {
    pub fn get(&self, flag: &str) -> Result<&str, String> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|k| self.0.get(k + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    }

    pub fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        let v = self.get(flag)?;
        v.parse().map_err(|_| format!("bad {flag} '{v}'"))
    }
}

/// Split a file of `<len>\n<payload>` frames into payloads.
pub fn read_frames(path: &str) -> Result<Vec<String>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let nl = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| format!("{path}: torn frame header at byte {pos}"))?;
        let len: usize = std::str::from_utf8(&bytes[pos..pos + nl])
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| format!("{path}: bad frame header at byte {pos}"))?;
        let start = pos + nl + 1;
        let body = bytes
            .get(start..start + len)
            .ok_or_else(|| format!("{path}: truncated frame at byte {pos}"))?;
        out.push(String::from_utf8(body.to_vec()).map_err(|_| format!("{path}: non-UTF-8"))?);
        pos = start + len;
    }
    Ok(out)
}

fn cmd_xmark(args: &Args) -> Result<(), String> {
    let scale: f64 = args.num("--scale")?;
    let seed: u64 = args.num("--seed")?;
    let out = Path::new(args.get("--out")?);
    let doc = generate(&XmarkConfig { scale, seed });
    let so = standoffify(&doc, seed);
    let write = |name: &str, d: &standoff_xml::Document| -> Result<usize, String> {
        let xml = standoff_xml::serialize_document(d, Default::default());
        let path = out.join(name);
        std::fs::write(&path, &xml).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(xml.len())
    };
    let std_bytes = write("std.xml", &doc)?;
    let so_bytes = write("so.xml", &so.doc)?;
    let persons = doc.elements_named("person").len();
    println!("{{\"std_bytes\": {std_bytes}, \"so_bytes\": {so_bytes}, \"persons\": {persons}}}");
    Ok(())
}
