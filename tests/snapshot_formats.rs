//! Snapshot-format integration: a v4 round trip must be *observably
//! identical* to a direct mount for the query engine, and the committed
//! v1 and v3 fixtures — the compatibility contract for the formats that
//! are no longer written — must never silently rot, nor may a damaged
//! copy of either panic the reader.

use standoff::core::StandoffConfig;
use standoff::store::{write_snapshot, LayerSet, Snapshot};
use standoff::xmark::queries::XmarkQuery;
use standoff::xmark::{generate, standoffify, XmarkConfig};
use standoff::xquery::Engine;

const SO_URI: &str = "xmark-standoff.xml";

/// An XMark StandOff corpus as a two-layer set: the standoffified
/// document as base plus a re-parsed shadow copy as a sibling layer
/// (exercises the multi-layer sections of both formats).
fn xmark_set(scale: f64) -> LayerSet {
    let so = standoffify(&generate(&XmarkConfig::with_scale(scale)), 7);
    let shadow_xml = standoff::xml::serialize_document(&so.doc, Default::default());
    let shadow = standoff::xml::parse_document(&shadow_xml).unwrap();
    let mut set = LayerSet::build(SO_URI, so.doc, StandoffConfig::default()).unwrap();
    set.add_layer("shadow", shadow, StandoffConfig::default())
        .unwrap();
    set
}

fn queries() -> Vec<String> {
    let mut qs: Vec<String> = [
        XmarkQuery::Q1,
        XmarkQuery::Q2,
        XmarkQuery::Q6,
        XmarkQuery::Q7,
    ]
    .iter()
    .map(|q| q.standoff(SO_URI))
    .collect();
    qs.push(format!(
        r#"count(doc("{SO_URI}")//open_auction/select-narrow::reserve)"#
    ));
    qs.push(format!(
        r#"count(doc("{SO_URI}")//open_auction/select-wide::node())"#
    ));
    // Cross-layer: narrow base annotations by the shadow layer.
    qs.push(format!(
        r#"count(doc("{SO_URI}#shadow")//item/select-narrow::name)"#
    ));
    qs
}

fn answers(engine: &mut Engine) -> Vec<String> {
    queries()
        .iter()
        .map(|q| engine.run(q).unwrap().as_xml())
        .collect()
}

/// The acceptance gate: byte-identical XMark query results across a
/// direct in-memory mount and a v4 round trip.
#[test]
fn v4_round_trip_answers_queries_byte_identically() {
    let set = xmark_set(0.002);
    let mut bytes = Vec::new();
    write_snapshot(&set, &mut bytes).unwrap();

    let mut direct = Engine::new();
    direct.mount_store(set).unwrap();
    let expected = answers(&mut direct);
    assert!(expected.iter().any(|a| !a.is_empty()));

    let snapshot = Snapshot::from_bytes(bytes).unwrap();
    let mut engine = Engine::new();
    engine.mount_snapshot(&snapshot).unwrap();
    assert_eq!(answers(&mut engine), expected, "v4 mount diverges");
}

// ---- committed fixtures ----

/// The sources both committed fixtures were built from: the layer set
/// `standoff-xq index base.xml --uri corpus --layer tokens=tokens.xml
/// --layer entities=entities.xml` builds (default StandOff config, no
/// document URIs), i.e. [`fixture_set`].
///
/// * `corpus_v1.snap` (1206 bytes): that set in the version-1 streaming
///   format, written by the CLI's former v1 output flag.
/// * `corpus_v3.snap` (2960 bytes): the same set in the unchecksummed
///   version-3 columnar format, written by the former v3 library writer
///   as of commit 2c763e2 (the last commit that had it).
///
/// Both writers are gone; these files are the compatibility contract
/// for the formats only the reader still speaks.
const FIXTURE_BASE: &str = "<text>Alice met Bob</text>";
const FIXTURE_TOKENS: &str = r#"<tokens><w word="Alice" start="0" end="4"/><w word="met" start="6" end="8"/><w word="Bob" start="10" end="12"/></tokens>"#;
const FIXTURE_ENTITIES: &str =
    r#"<entities><person start="0" end="4"/><person start="10" end="12"/></entities>"#;

/// Each committed fixture with the format version it must exercise.
const FIXTURES: [(&str, u32); 2] = [("corpus_v1.snap", 1), ("corpus_v3.snap", 3)];

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture_set() -> LayerSet {
    let mut set = LayerSet::build(
        "corpus",
        standoff::xml::parse_document(FIXTURE_BASE).unwrap(),
        StandoffConfig::default(),
    )
    .unwrap();
    for (name, xml) in [("tokens", FIXTURE_TOKENS), ("entities", FIXTURE_ENTITIES)] {
        set.add_layer(
            name,
            standoff::xml::parse_document(xml).unwrap(),
            StandoffConfig::default(),
        )
        .unwrap();
    }
    set
}

fn fixture_queries() -> [&'static str; 4] {
    [
        r#"doc("corpus#entities")//person/select-narrow::w/@word"#,
        r#"count(doc("corpus#tokens")//w)"#,
        r#"doc("corpus#tokens")//w[@word = "met"]/select-wide::person"#,
        r#"string(doc("corpus"))"#,
    ]
}

/// Each committed file must keep loading through its version's reader
/// and answering queries byte-identically to a freshly built corpus —
/// this is the test that keeps the v1 and v3 readers from rotting.
#[test]
fn committed_v1_fixture_loads_and_answers_queries() {
    let mut fresh = Engine::new();
    fresh.mount_store(fixture_set()).unwrap();
    for (name, version) in FIXTURES {
        let snapshot = Snapshot::open(fixture_path(name)).unwrap();
        assert_eq!(snapshot.version(), version, "{name}: wrong format version");
        assert!(!snapshot.checksummed(), "{name} predates checksums");
        assert_eq!(
            snapshot.layer_names().collect::<Vec<_>>(),
            ["base", "tokens", "entities"]
        );

        let mut mounted = Engine::new();
        mounted.mount_snapshot(&snapshot).unwrap();
        for q in fixture_queries() {
            let got = mounted.run(q).unwrap().as_xml();
            let want = fresh.run(q).unwrap().as_xml();
            assert_eq!(got, want, "{name} diverges on {q}");
        }
        // Pin one answer outright so a coordinated regression in both
        // paths cannot slip through.
        assert_eq!(
            mounted.run(fixture_queries()[0]).unwrap().as_xml(),
            r#"word="Alice" word="Bob""#
        );
    }
}

/// Re-encoding each committed fixture in the current format and
/// mounting it must answer the same queries identically (the migration
/// story; the writer emits v4, checksummed).
#[test]
fn committed_v1_fixture_upgrades_to_current_format_losslessly() {
    for (name, _) in FIXTURES {
        let old_snapshot = Snapshot::open(fixture_path(name)).unwrap();
        let mut current = Vec::new();
        write_snapshot(&old_snapshot.to_layer_set().unwrap(), &mut current).unwrap();

        let mut old = Engine::new();
        old.mount_snapshot(&old_snapshot).unwrap();
        let upgraded_snapshot = Snapshot::from_bytes(current).unwrap();
        assert_eq!(upgraded_snapshot.version(), 4);
        assert!(upgraded_snapshot.checksummed());
        let mut upgraded = Engine::new();
        upgraded.mount_snapshot(&upgraded_snapshot).unwrap();

        for q in fixture_queries() {
            assert_eq!(
                old.run(q).unwrap().as_xml(),
                upgraded.run(q).unwrap().as_xml(),
                "{name}: upgrade to v4 diverges on {q}"
            );
        }
    }
}

/// Truncating each committed fixture at *every* byte offset must
/// produce a clean error — never a panic, never a silently short
/// corpus. (Both formats predate checksums, so detection is structural:
/// length prefixes, section bounds, decode validation.)
#[test]
fn committed_v1_fixture_truncation_at_every_byte_errors_cleanly() {
    for (name, _) in FIXTURES {
        let full = std::fs::read(fixture_path(name)).unwrap();
        for cut in 0..full.len() {
            let result = std::panic::catch_unwind(|| Snapshot::from_bytes(full[..cut].to_vec()));
            let mounted = result
                .unwrap_or_else(|_| panic!("{name}: truncation at {cut} panicked the reader"));
            // A prefix is never a valid snapshot: either the mount fails,
            // or (headers intact, payload cut) the lazy layer access does.
            let ok = match mounted {
                Err(_) => true,
                Ok(snapshot) => std::panic::catch_unwind(|| snapshot.to_layer_set())
                    .unwrap_or_else(|_| {
                        panic!("{name}: truncation at {cut} panicked materialization")
                    })
                    .is_err(),
            };
            assert!(ok, "{name}: truncation at {cut} was silently accepted");
        }
    }
}
