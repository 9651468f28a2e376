//! The versioned binary snapshot format: one writer, one reader.
//!
//! A snapshot persists a whole [`LayerSet`] — every layer's shredded
//! document, element-name table and prebuilt region index. It is
//! written in exactly one format, SOSN v4, by [`write_snapshot`] (to any
//! `Write`) or [`save_snapshot`] (atomic file replace), and read through
//! exactly one entry point, [`Snapshot::open`](crate::Snapshot::open) /
//! [`Snapshot::from_bytes`](crate::Snapshot::from_bytes), which
//! dispatches on the version field; the result's `info()`, `verify()`
//! and `to_layer_set()` cover inspection, integrity checking and eager
//! loading. Three on-disk versions stay readable:
//!
//! * **Version 4** (current): the columnar, offset-indexed layout of
//!   [`crate::mount`] plus a trailing checksum section — a CRC32 per
//!   section payload, verified lazily at layer materialization. Files
//!   are *mounted* — one shared buffer, zero-copy column views, lazily
//!   materialized layers — rather than decoded.
//! * **Version 3**: the same columnar layout without checksums.
//! * **Version 1** (legacy): streaming length-prefixed sections,
//!   decoded eagerly when opened. Layout:
//!
//! ```text
//! magic "SOSN" | u32 version | u32 section-count
//! section-count × section:  u32 tag | u64 byte-length | payload
//!
//! tag 1 META:   string store-uri | u32 layer-count
//! tag 2 LAYER:  string layer-name
//!               | config: string position-type, string start-name,
//!                 string end-name, u8 has-region (+ string region-name),
//!                 u8 lenient
//!               | document     ("SOXD", standoff_xml::write_document)
//!               | region index ("SORX", RegionIndex::write_into)
//! ```
//!
//! Strings are u32-length-prefixed UTF-8. Sections are length-prefixed so
//! readers skip tags they do not know. The first LAYER section is the
//! base layer. No external serde dependencies.
//!
//! Only v4 is written; the committed `tests/fixtures/corpus_v1.snap` and
//! `corpus_v3.snap` are the compatibility contract for the older
//! versions.

use std::io::{self, Read, Write};
use std::path::Path;

use standoff_core::{RegionIndex, StandoffConfig};
use standoff_xml::wire::{read_string, read_u32, read_u64, read_u8, write_string};

use crate::error::StoreError;
use crate::layer::{Layer, LayerSet};

pub(crate) const MAGIC: &[u8; 4] = b"SOSN";
/// The legacy streaming format.
pub(crate) const VERSION_LEGACY: u32 = 1;
/// The columnar mounted format. (2 is skipped: snapshot generations
/// align with the embedded document codec's, whose current version is 2.)
pub(crate) const VERSION_V3: u32 = 3;
/// The columnar format plus per-section CRC32 checksums.
pub(crate) const VERSION_V4: u32 = 4;

const SECTION_META: u32 = 1;
const SECTION_LAYER: u32 = 2;

// ---- primitives ----

/// Structural damage, as `InvalidData`; surfaced as [`StoreError::Io`],
/// whose display adds the `snapshot:` prefix.
pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

pub(crate) fn write_config<W: Write>(w: &mut W, config: &StandoffConfig) -> io::Result<()> {
    write_string(w, &config.position_type)?;
    write_string(w, &config.start_name)?;
    write_string(w, &config.end_name)?;
    match &config.region_name {
        Some(name) => {
            w.write_all(&[1])?;
            write_string(w, name)?;
        }
        None => w.write_all(&[0])?,
    }
    w.write_all(&[config.lenient as u8])
}

pub(crate) fn read_config<R: Read>(r: &mut R) -> io::Result<StandoffConfig> {
    let position_type = read_string(r)?;
    let start_name = read_string(r)?;
    let end_name = read_string(r)?;
    let region_name = match read_u8(r)? {
        0 => None,
        1 => Some(read_string(r)?),
        _ => return Err(bad("bad region-name flag")),
    };
    let lenient = match read_u8(r)? {
        0 => false,
        1 => true,
        _ => return Err(bad("bad lenient flag")),
    };
    let config = StandoffConfig {
        position_type,
        start_name,
        end_name,
        region_name,
        lenient,
    };
    config
        .validate()
        .map_err(|e| bad(&format!("bad layer config: {e}")))?;
    Ok(config)
}

// ---- write ----

/// Serialize a layer set into `w` in the current (v4, columnar +
/// checksummed) format.
pub fn write_snapshot<W: Write>(set: &LayerSet, w: &mut W) -> io::Result<()> {
    crate::mount::write_columnar(set, w)
}

/// Serialize a layer set to a file (current format), atomically: the
/// bytes are written to a temp file in the same directory, fsynced,
/// renamed over `path`, and the directory is fsynced. A crash at any
/// point leaves either the previous file or the complete new one.
pub fn save_snapshot(set: &LayerSet, path: impl AsRef<Path>) -> Result<(), StoreError> {
    crate::atomic::atomic_replace(path.as_ref(), |w| write_snapshot(set, w))?;
    Ok(())
}

// ---- legacy streaming decode ----

/// Validate the legacy header and return the declared section count.
fn open_sections<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a standoff snapshot (bad magic)"));
    }
    if read_u32(r)? != VERSION_LEGACY {
        return Err(bad("unsupported snapshot version"));
    }
    read_u32(r)
}

/// Stream the sections of a legacy snapshot. `visit` receives each
/// section's tag, declared payload length, and a reader limited to that
/// payload — it may consume any prefix (trailing payload bytes are
/// drained, which is what skips unknown tags and future in-section
/// extensions). Nothing is buffered: a hostile section length costs I/O,
/// not memory.
fn for_each_section<R: Read>(
    r: &mut R,
    mut visit: impl FnMut(u32, u64, &mut dyn Read) -> io::Result<()>,
) -> io::Result<()> {
    let count = open_sections(r)?;
    for _ in 0..count {
        let tag = read_u32(r)?;
        let len = read_u64(r)?;
        let mut section = r.take(len);
        visit(tag, len, &mut section)?;
        io::copy(&mut section, &mut io::sink())?;
        if section.limit() > 0 {
            return Err(bad("truncated section"));
        }
    }
    Ok(())
}

/// Decode a legacy (version 1) snapshot eagerly, gathering the on-disk
/// statistics in the same pass. The v3 path never comes through here.
pub(crate) fn read_snapshot_legacy_with_info<R: Read>(
    r: &mut R,
) -> io::Result<(LayerSet, SnapshotInfo)> {
    let mut meta: Option<(String, u32)> = None;
    let mut layers: Vec<Layer> = Vec::new();
    let mut infos: Vec<LayerInfo> = Vec::new();
    let mut payload_bytes = 0u64;
    for_each_section(r, |tag, len, mut p| {
        payload_bytes += len;
        match tag {
            SECTION_META => {
                if meta.is_some() {
                    return Err(bad("duplicate META section"));
                }
                let uri = read_string(&mut p)?;
                let count = read_u32(&mut p)?;
                meta = Some((uri, count));
            }
            SECTION_LAYER => {
                let name = read_string(&mut p)?;
                let config = read_config(&mut p)?;
                let doc = standoff_xml::read_document(&mut p)?;
                let index = RegionIndex::read_from(&mut p)?;
                // The index must describe this document: every annotated
                // node is an element of it. The query optimizer's
                // post-filter elision *relies* on join outputs being
                // elements, so a snapshot index annotating any other
                // node kind must fail here — mounted indexes are used
                // as-is, never rebuilt, and nothing downstream re-checks.
                // (Region validity was checked by `read_from`;
                // config/area agreement is the writer's contract.)
                if let Some(&last) = index.annotated_nodes().last() {
                    if last as usize >= doc.node_count() {
                        return Err(bad("region index references nodes beyond the document"));
                    }
                }
                if index
                    .annotated_nodes()
                    .iter()
                    .any(|&pre| doc.kind(pre) != standoff_xml::NodeKind::Element)
                {
                    return Err(bad("region index annotates a non-element node"));
                }
                let layer = Layer::from_parts(name, config, doc, index)
                    .map_err(|e| bad(&format!("bad layer: {e}")))?;
                infos.push(LayerInfo {
                    name: layer.name().to_string(),
                    bytes: len,
                    nodes: layer.doc().node_count() as u64,
                    annotations: layer.annotation_count() as u64,
                    sections: Vec::new(),
                });
                layers.push(layer);
            }
            _ => {} // unknown section: skip (forward compatibility)
        }
        Ok(())
    })?;
    let (uri, declared) = meta.ok_or_else(|| bad("missing META section"))?;
    if declared as usize != layers.len() {
        return Err(bad("layer count disagrees with META"));
    }
    if layers
        .first()
        .is_some_and(|l| l.name() != crate::layer::BASE_LAYER)
    {
        // LayerSet semantics hinge on layers[0] being the base; a
        // reordered (hand-edited) snapshot must not silently swap what
        // the bare store URI resolves to.
        return Err(bad("first layer section is not the base layer"));
    }
    let info = SnapshotInfo {
        version: VERSION_LEGACY,
        uri: uri.clone(),
        layers: infos,
        payload_bytes,
    };
    let set =
        LayerSet::from_layers(&uri, layers).map_err(|e| bad(&format!("bad layer set: {e}")))?;
    Ok((set, info))
}

// ---- info ----

/// One on-disk section of a layer: tag, human name, payload size.
/// Available for v3/v4 snapshots only (legacy files store one opaque
/// section per layer); listed in ascending tag order.
#[derive(Clone, Debug)]
pub struct SectionInfo {
    /// The section-table tag (see the `SEC_*` constants in `mount`).
    pub tag: u32,
    /// Stable human-readable name of the tag (`"doc.kind"`, …).
    pub name: &'static str,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// Summary of one layer inside a snapshot.
#[derive(Clone, Debug)]
pub struct LayerInfo {
    pub name: String,
    /// On-disk payload size of the layer's section(s) in bytes.
    pub bytes: u64,
    /// Node count (v3/v4 layer headers carry it; legacy files are
    /// decoded when opened, so it is counted).
    pub nodes: u64,
    /// Annotation count (same sources as `nodes`).
    pub annotations: u64,
    /// Per-section byte breakdown (v3/v4; empty for legacy files).
    pub sections: Vec<SectionInfo>,
}

/// Summary of a snapshot file, as
/// [`Snapshot::info`](crate::Snapshot::info) reports it: for v3/v4 files
/// it comes from the section table and layer headers alone (payloads
/// untouched).
#[derive(Clone, Debug)]
pub struct SnapshotInfo {
    /// On-disk format version (1 = legacy, 3 = columnar,
    /// 4 = columnar + checksums).
    pub version: u32,
    pub uri: String,
    pub layers: Vec<LayerInfo>,
    /// Total payload bytes across all sections.
    pub payload_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mount::Snapshot;
    use standoff_core::Area;
    use standoff_xml::parse_document;
    use standoff_xml::wire::{write_u32, write_u64};

    fn sample_set() -> LayerSet {
        let base =
            parse_document(r#"<doc><seg start="0" end="19"/><seg start="20" end="39"/></doc>"#)
                .unwrap();
        let tokens = parse_document(
            r#"<toks><w start="0" end="4"/><w start="5" end="9"/><w start="21" end="27"/></toks>"#,
        )
        .unwrap();
        let mut set = LayerSet::build("corpus.xml", base, StandoffConfig::default()).unwrap();
        set.add_layer("tokens", tokens, StandoffConfig::default())
            .unwrap();
        set
    }

    /// A version-1 encoder assembled from the component codecs, so the
    /// legacy reader's hostile-input checks can forge v1 files. Nothing
    /// outside these tests writes v1.
    fn encode_v1(set: &LayerSet) -> Vec<u8> {
        fn section(w: &mut Vec<u8>, tag: u32, payload: &[u8]) {
            write_u32(w, tag).unwrap();
            write_u64(w, payload.len() as u64).unwrap();
            w.extend_from_slice(payload);
        }
        let mut w = MAGIC.to_vec();
        write_u32(&mut w, VERSION_LEGACY).unwrap();
        write_u32(&mut w, 1 + set.len() as u32).unwrap();
        let mut meta = Vec::new();
        write_string(&mut meta, set.uri()).unwrap();
        write_u32(&mut meta, set.len() as u32).unwrap();
        section(&mut w, SECTION_META, &meta);
        for layer in set.layers() {
            let mut body = Vec::new();
            write_string(&mut body, layer.name()).unwrap();
            write_config(&mut body, layer.config()).unwrap();
            standoff_xml::write_document(layer.doc(), &mut body).unwrap();
            layer.index().write_into(&mut body).unwrap();
            section(&mut w, SECTION_LAYER, &body);
        }
        w
    }

    fn load(bytes: &[u8]) -> Result<LayerSet, StoreError> {
        Snapshot::from_bytes(bytes.to_vec())?.to_layer_set()
    }

    fn assert_same_layers(a: &LayerSet, b: &LayerSet) {
        assert_eq!(a.uri(), b.uri());
        assert_eq!(a.len(), b.len());
        for (la, lb) in a.layers().iter().zip(b.layers()) {
            assert_eq!(la.name(), lb.name());
            assert_eq!(la.index().entries(), lb.index().entries());
            assert_eq!(
                standoff_xml::serialize_document(la.doc(), Default::default()),
                standoff_xml::serialize_document(lb.doc(), Default::default())
            );
        }
    }

    #[test]
    fn legacy_decode_preserves_everything() {
        let set = sample_set();
        let loaded = load(&encode_v1(&set)).unwrap();
        assert_eq!(loaded.layer("tokens").unwrap().annotation_count(), 3);
        assert_same_layers(&set, &loaded);
    }

    #[test]
    fn v4_round_trip_preserves_everything() {
        let set = sample_set();
        let mut buf = Vec::new();
        write_snapshot(&set, &mut buf).unwrap();
        let loaded = load(&buf).unwrap();
        assert_eq!(loaded.layer("tokens").unwrap().annotation_count(), 3);
        assert_same_layers(&set, &loaded);
        // Re-serialization is byte-idempotent.
        let mut buf2 = Vec::new();
        write_snapshot(&loaded, &mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    /// The post-filter elision in the query optimizer assumes every
    /// node a mounted region index annotates is an element; a snapshot
    /// whose index points at any other node kind must be rejected at
    /// load time (mounted indexes are never rebuilt or re-filtered) —
    /// in both readers.
    #[test]
    fn snapshot_index_annotating_non_element_rejected() {
        let doc = parse_document(r#"<doc><w start="0" end="4"/>hello</doc>"#).unwrap();
        // pre 3 is the text node "hello" — a forged annotation target.
        assert_eq!(doc.kind(3), standoff_xml::NodeKind::Text);
        let forged = RegionIndex::from_areas(&[(3, Area::single(0, 4).unwrap())]);
        let layer = Layer::from_parts(
            crate::layer::BASE_LAYER.to_string(),
            StandoffConfig::default(),
            doc,
            forged,
        )
        .unwrap();
        let set = LayerSet::from_layers("u", vec![layer]).unwrap();
        let mut v4 = Vec::new();
        write_snapshot(&set, &mut v4).unwrap();
        for buf in [encode_v1(&set), v4] {
            let err = load(&buf).unwrap_err();
            assert!(
                err.to_string().contains("non-element"),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn info_reports_counts_for_every_version() {
        let set = sample_set();
        let mut v4 = Vec::new();
        write_snapshot(&set, &mut v4).unwrap();
        for (buf, version) in [(encode_v1(&set), VERSION_LEGACY), (v4, VERSION_V4)] {
            let info = Snapshot::from_bytes(buf).unwrap().info();
            assert_eq!(info.version, version);
            assert_eq!(info.uri, "corpus.xml");
            assert_eq!(
                info.layers
                    .iter()
                    .map(|l| l.name.as_str())
                    .collect::<Vec<_>>(),
                ["base", "tokens"]
            );
            assert!(info.payload_bytes > 0);
            assert_eq!(info.layers[1].annotations, 3);
            assert_eq!(info.layers[0].nodes, set.base().doc().node_count() as u64);
        }
    }

    #[test]
    fn legacy_unknown_sections_are_skipped() {
        // Append an unknown section and bump the section count.
        let mut extended = encode_v1(&sample_set());
        write_u32(&mut extended, 0xBEEF).unwrap();
        write_u64(&mut extended, 3).unwrap();
        extended.extend_from_slice(b"xyz");
        let count = u32::from_le_bytes(extended[8..12].try_into().unwrap());
        extended[8..12].copy_from_slice(&(count + 1).to_le_bytes());
        let loaded = load(&extended).unwrap();
        assert_eq!(loaded.len(), 2);
    }

    #[test]
    fn legacy_reordered_layers_rejected() {
        // Hand-reorder the two LAYER sections so the base is no longer
        // first: the load must fail rather than silently swap what the
        // bare store URI resolves to.
        let buf = encode_v1(&sample_set());
        // Parse section boundaries: header is 12 bytes, then
        // (tag u32 | len u64 | payload) triples.
        let mut sections: Vec<(usize, usize)> = Vec::new(); // (offset, total size)
        let mut k = 12;
        while k < buf.len() {
            let len = u64::from_le_bytes(buf[k + 4..k + 12].try_into().unwrap()) as usize;
            sections.push((k, 12 + len));
            k += 12 + len;
        }
        assert_eq!(sections.len(), 3, "META + 2 layers");
        let (m_off, m_len) = sections[0];
        let (a_off, a_len) = sections[1];
        let (b_off, b_len) = sections[2];
        let mut swapped = buf[..12].to_vec();
        swapped.extend_from_slice(&buf[m_off..m_off + m_len]);
        swapped.extend_from_slice(&buf[b_off..b_off + b_len]);
        swapped.extend_from_slice(&buf[a_off..a_off + a_len]);
        let err = load(&swapped).unwrap_err();
        assert!(err.to_string().contains("base layer"), "{err}");
    }

    #[test]
    fn hostile_section_length_fails_without_allocating() {
        // A section header claiming an absurd payload must fail with a
        // clean truncation error, not a giant allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION_LEGACY.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // one section
        buf.extend_from_slice(&SECTION_META.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // hostile length
        buf.extend_from_slice(b"tiny");
        assert!(Snapshot::from_bytes(buf).is_err());
    }

    #[test]
    fn corruption_is_rejected_cleanly() {
        let set = sample_set();
        let mut v4 = Vec::new();
        write_snapshot(&set, &mut v4).unwrap();
        for buf in [encode_v1(&set), v4] {
            // Bad magic.
            let mut bad_magic = buf.clone();
            bad_magic[0] = b'X';
            assert!(load(&bad_magic).is_err());
            // Bad version.
            let mut bad_version = buf.clone();
            bad_version[4..8].copy_from_slice(&99u32.to_le_bytes());
            assert!(load(&bad_version).is_err());
            // Every truncation fails, never panics.
            for cut in 0..buf.len() {
                assert!(load(&buf[..cut]).is_err(), "truncation at {cut} must fail");
            }
        }
    }
}
