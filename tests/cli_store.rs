//! `standoff-xq` CLI integration: the `index` → `inspect` → `query
//! --store` workflow (acceptance: `standoff-xq index <xml> -o <snap>`
//! then `standoff-xq query --store <snap>` works end-to-end).

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_standoff-xq"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("standoff-xq-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn index_then_query_store() {
    let dir = tmp_dir("basic");
    let base = write(
        &dir,
        "corpus.xml",
        r#"<video>
             <shot id="Intro" start="0" end="8"/>
             <shot id="Interview" start="8" end="64"/>
             <shot id="Outro" start="64" end="94"/>
           </video>"#,
    );
    let snap = dir.join("corpus.snap").to_string_lossy().into_owned();

    let out = bin()
        .args(["index", &base, "-o", &snap, "--uri", "corpus"])
        .output()
        .unwrap();
    assert_success(&out, "index");

    let out = bin()
        .args([
            "query",
            "--store",
            &snap,
            "--query",
            r#"doc("corpus")//shot[@start = 8]/@id"#,
        ])
        .output()
        .unwrap();
    assert_success(&out, "query --store");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        r#"id="Interview""#
    );
}

#[test]
fn index_with_layers_cross_layer_query_and_inspect() {
    let dir = tmp_dir("layers");
    let base = write(&dir, "base.xml", "<text>Alice met Bob</text>");
    let tokens = write(
        &dir,
        "tokens.xml",
        r#"<tokens>
             <w word="Alice" start="0" end="4"/>
             <w word="met" start="6" end="8"/>
             <w word="Bob" start="10" end="12"/>
           </tokens>"#,
    );
    let entities = write(
        &dir,
        "entities.xml",
        r#"<entities><person start="0" end="4"/><person start="10" end="12"/></entities>"#,
    );
    let snap = dir.join("corpus.snap").to_string_lossy().into_owned();

    let out = bin()
        .args([
            "index",
            &base,
            "-o",
            &snap,
            "--uri",
            "corpus",
            "--layer",
            &format!("tokens={tokens}"),
            "--layer",
            &format!("entities={entities}"),
        ])
        .output()
        .unwrap();
    assert_success(&out, "index --layer");

    // Cross-layer StandOff query straight off the snapshot.
    let out = bin()
        .args([
            "query",
            "--store",
            &snap,
            "--query",
            r#"doc("corpus#entities")//person/select-narrow::w/@word"#,
        ])
        .output()
        .unwrap();
    assert_success(&out, "cross-layer query");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        r#"word="Alice" word="Bob""#
    );

    // Inspect reports the layers.
    let out = bin().args(["inspect", &snap]).output().unwrap();
    assert_success(&out, "inspect");
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    for needle in ["uri:     corpus", "layers:  3", "tokens", "entities"] {
        assert!(
            report.contains(needle),
            "inspect output missing {needle:?}:\n{report}"
        );
    }
}

/// Regression: a checkpoint used to write a layer's inserts before its
/// retracts, so a re-tag (retract an annotation, insert it back with a
/// new attribute) vanished when the sidecar was replayed — an
/// acknowledged update lost at the next checkpointing `annotate`.
#[test]
fn retag_survives_checkpoint() {
    let (dir, snap) = obs_snapshot("retag");
    let sidecar = dir.join("corpus.delta").to_string_lossy().into_owned();
    let annotate = |args: &[&str]| {
        let out = bin()
            .args(["annotate", "--store", &snap, "--delta", &sidecar])
            .args(args)
            .output()
            .unwrap();
        assert_success(&out, &format!("annotate {args:?}"));
    };
    let retag = "retract tokens w 0 4\ninsert tokens w 0 4 pos=NNP\n";
    annotate(&["--journal", &write(&dir, "retag.ops", retag)]);
    // Checkpoint: folds the journal into the sidecar.
    annotate(&[&write(&dir, "more.ops", "insert tokens w 6 8 pos=VBD\n")]);

    let count = |query: &str| {
        let out = bin()
            .args(["query", "--store", &snap, "--delta", &sidecar, "-q", query])
            .output()
            .unwrap();
        assert_success(&out, query);
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    };
    assert_eq!(count(r#"count(doc("corpus#tokens")//w[@pos])"#), "2");
    assert_eq!(count(r#"count(doc("corpus#tokens")//w)"#), "4");
}

/// `verify --delta --json` over a sidecar that went through the whole
/// recovery protocol: two journaled batches (one retracts), a
/// checkpoint that landed while its journal truncation did not (the
/// pre-checkpoint journal is restored after it), one more journaled
/// batch sequenced above the mark, and a torn final append.
#[test]
fn verify_json_reports_checkpoint_window_and_torn_tail() {
    let (dir, snap) = obs_snapshot("verify-delta");
    let sidecar = dir.join("corpus.delta").to_string_lossy().into_owned();
    let wal = format!("{sidecar}.wal");
    let _ = std::fs::remove_file(&sidecar);
    let _ = std::fs::remove_file(&wal);
    let annotate = |args: &[&str]| {
        let out = bin()
            .args(["annotate", "--store", &snap, "--delta", &sidecar])
            .args(args)
            .output()
            .unwrap();
        assert_success(&out, &format!("annotate {args:?}"));
    };
    let b1 = write(&dir, "b1.ops", "insert tokens ner 0 4 class=PER\n");
    let b2 = write(
        &dir,
        "b2.ops",
        "retract tokens w 6 8\ninsert tokens ner 10 12 class=PER\n",
    );
    annotate(&["--journal", &b1]);
    annotate(&["--journal", &b2]);
    let journal = std::fs::read(&wal).unwrap();
    annotate(&[&write(
        &dir,
        "b3.ops",
        "insert tokens ner 0 12 class=EVENT\n",
    )]);
    std::fs::write(&wal, &journal).unwrap();
    annotate(&[
        "--journal",
        &write(&dir, "b4.ops", "retract tokens w 0 4\n"),
    ]);
    let len = std::fs::metadata(&wal).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len - 5)
        .unwrap();

    let out = bin()
        .args(["verify", &snap, "--delta", &sidecar, "--json"])
        .output()
        .unwrap();
    assert_success(&out, "verify --delta --json");
    let sections = standoff::store::Snapshot::open(&snap)
        .unwrap()
        .verify()
        .unwrap()
        .sections_checked;
    let expected = format!(
        "{{\"snapshot\":\"{snap}\",\"version\":4,\"checksummed\":true,\"layers\":2,\
         \"sections_checked\":{sections},\"deltas\":[{{\"path\":\"{sidecar}\",\"ops\":4,\
         \"checkpoint_seq\":2,\"wal_records\":0,\"wal_skipped\":2,\"wal_torn_tail\":true}}],\
         \"notes\":[\"{wal}: torn tail after 2 committed record(s) — an append died \
         mid-write; the batch was never committed and the next writer truncates it\"],\
         \"findings\":[],\"status\":\"clean\"}}"
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), expected);

    let query = |q: &str| {
        let out = bin()
            .args(["query", "--store", &snap, "--delta", &sidecar, "-q", q])
            .output()
            .unwrap();
        assert_success(&out, q);
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    };
    assert_eq!(
        query(r#"for $w in doc("corpus#tokens")//w return string($w/@word)"#),
        "Alice Bob"
    );
    assert_eq!(
        query(r#"for $n in doc("corpus#tokens")//ner return string($n/@class)"#),
        "PER PER EVENT"
    );
}

/// Build the two-layer snapshot once for the observability smoke tests.
fn obs_snapshot(tag: &str) -> (PathBuf, String) {
    let dir = tmp_dir(tag);
    let base = write(&dir, "base.xml", "<text>Alice met Bob</text>");
    let tokens = write(
        &dir,
        "tokens.xml",
        r#"<tokens>
             <w word="Alice" start="0" end="4"/>
             <w word="met" start="6" end="8"/>
             <w word="Bob" start="10" end="12"/>
           </tokens>"#,
    );
    let snap = dir.join("corpus.snap").to_string_lossy().into_owned();
    let out = bin()
        .args([
            "index",
            &base,
            "-o",
            &snap,
            "--uri",
            "corpus",
            "--layer",
            &format!("tokens={tokens}"),
        ])
        .output()
        .unwrap();
    assert_success(&out, "index");
    (dir, snap)
}

#[test]
fn query_profile_json_and_analyze() {
    let (_dir, snap) = obs_snapshot("profile");
    let query = r#"doc("corpus#tokens")//w[@word = "Bob"]"#;

    // --profile renders the annotated tree on stderr, result on stdout.
    let out = bin()
        .args(["query", "--store", &snap, "--profile", "--query", query])
        .output()
        .unwrap();
    assert_success(&out, "query --profile");
    assert!(String::from_utf8_lossy(&out.stdout).contains(r#"word="Bob""#));
    let profile = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        profile.contains("-- actual #"),
        "no operator annotations:\n{profile}"
    );

    // --profile-json emits one JSON object on stderr.
    let out = bin()
        .args([
            "query",
            "--store",
            &snap,
            "--profile-json",
            "--query",
            query,
        ])
        .output()
        .unwrap();
    assert_success(&out, "query --profile-json");
    let json = String::from_utf8_lossy(&out.stderr).into_owned();
    for needle in [
        "\"operators\"",
        "\"passes\"",
        "\"wall_ns\"",
        "\"rows\"",
        "\"kind\"",
    ] {
        assert!(json.contains(needle), "missing {needle}:\n{json}");
    }

    // explain --analyze executes and annotates each operator.
    let out = bin()
        .args(["explain", "--store", &snap, "--analyze", "--query", query])
        .output()
        .unwrap();
    assert_success(&out, "explain --analyze");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("-- actual #"), "{text}");
    assert!(text.contains("result: 1 item(s)"), "{text}");
}

#[test]
fn stats_dumps_metrics_registry() {
    let (dir, snap) = obs_snapshot("stats");
    let queries = write(
        &dir,
        "queries.xq",
        "count(doc(\"corpus#tokens\")//w)\ndoc(\"corpus#tokens\")//w[@word = \"met\"]\n",
    );
    let out = bin()
        .args(["stats", "--store", &snap, &queries])
        .output()
        .unwrap();
    assert_success(&out, "stats");
    let json = String::from_utf8_lossy(&out.stdout).into_owned();
    for needle in [
        "\"counters\"",
        "\"histograms\"",
        "\"query.executions\": 2",
        "\"executor.batches\": 1",
        "\"plan_cache.misses\"",
        "\"engine.mounts\": 1",
        "\"store.snapshots_opened\": 1",
        "\"query.exec_ns\"",
    ] {
        assert!(
            json.contains(needle),
            "stats output missing {needle}:\n{json}"
        );
    }
}

#[test]
fn inspect_sections_prints_per_section_sizes() {
    let (_dir, snap) = obs_snapshot("sections");
    let out = bin()
        .args(["inspect", &snap, "--sections"])
        .output()
        .unwrap();
    assert_success(&out, "inspect --sections");
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    for needle in ["layer.header", "doc.kind", "doc.name", "byte(s)"] {
        assert!(
            report.contains(needle),
            "inspect --sections missing {needle}:\n{report}"
        );
    }
    // Without the flag the section lines stay hidden.
    let out = bin().args(["inspect", &snap]).output().unwrap();
    assert_success(&out, "inspect");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("doc.kind"));
}

/// `inspect` on the committed v1 fixture: the file is decoded when
/// opened, so node and annotation counts print instead of `?`.
#[test]
fn inspect_v1_fixture_prints_counts() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/corpus_v1.snap");
    let out = bin().args(["inspect", fixture]).output().unwrap();
    assert_success(&out, "inspect v1 fixture");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!(
            "snapshot {fixture}\n\
             \x20 format:  v1\n\
             \x20 uri:     corpus\n\
             \x20 layers:  3\n\
             \x20 payload: 1146 byte(s)\n\
             \x20 - base              195 byte(s)        3 node(s)        0 annotation(s)\n\
             \x20 - tokens            540 byte(s)        5 node(s)        3 annotation(s)\n\
             \x20 - entities          397 byte(s)        4 node(s)        2 annotation(s)\n"
        )
    );
}

#[test]
fn legacy_flag_form_still_works() {
    let dir = tmp_dir("legacy");
    let sample = write(
        &dir,
        "sample.xml",
        r#"<sample>
             <shot id="Intro" start="0" end="8"/>
             <music artist="U2" start="0" end="31"/>
           </sample>"#,
    );
    let out = bin()
        .args([
            "--load",
            &format!("sample.xml={sample}"),
            "--query",
            r#"doc("sample.xml")//music/select-wide::shot/@id"#,
        ])
        .output()
        .unwrap();
    assert_success(&out, "legacy query");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), r#"id="Intro""#);
}

#[test]
fn bad_snapshot_and_bad_args_fail_cleanly() {
    let dir = tmp_dir("errors");
    let junk = write(&dir, "junk.snap", "not a snapshot");
    let out = bin()
        .args(["query", "--store", &junk, "--query", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad magic"));

    let out = bin().args(["index", "--frobnicate"]).output().unwrap();
    assert!(!out.status.success());

    let out = bin().args(["query"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no query"));
}
