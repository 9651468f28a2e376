//! Binary persistence for shredded documents.
//!
//! Annotation databases are bulk-loaded once and queried many times
//! (paper §2); re-parsing multi-megabyte XML on every open is wasted
//! work. This codec dumps the shredded columns directly in a compact
//! little-endian format — loading is a column read with no parsing,
//! typically an order of magnitude faster than `parse_document`.
//!
//! Format (version 2):
//!
//! ```text
//! magic "SOXD" | u32 version
//! opt-string uri
//! u32 name-count | name-count × string          (QNames in NameId order)
//! u32 node-count | per node: u8 kind, u32 size, u16 level, u32 parent,
//!                            u32 name, string value
//! u32 attr-count | per attr: u32 owner, u32 name, string value
//! (node-count+1) × u32 attr_first CSR offsets
//! u32 indexed-name-count | per name: u32 name-id, u32 pre-count,
//!                                    pre-count × u32 pre   (v2 only)
//! ```
//!
//! Strings are u32-length-prefixed UTF-8. No external dependencies.
//!
//! Version 2 appends the element-name index (paper §4.3's candidate-
//! sequence source), so loading restores it by column read instead of
//! rescanning the kind/name columns; version-1 files still load, with
//! the index rebuilt by a counting scan. Loading validates everything
//! (via [`Document::from_storage`]) — a corrupted file fails cleanly
//! instead of corrupting query results.
//!
//! This streamed, per-field codec is a component of the legacy SOSN v1
//! snapshot layout, which `standoff-store` still reads (its LAYER
//! sections embed one encoded document each); nothing writes it as a
//! file of its own. Current SOSN v4 snapshots persist the same columns
//! as aligned sections that are mounted zero-copy instead of decoded.
//! The round-trip and hostile-input tests here are the v1 reader's
//! document-decoding harness.

use std::io::{self, Read, Write};

use crate::column::StrArena;
use crate::doc::{Document, DocumentParts, ElemIndex, KindCol};
use crate::name::{NameId, NameTable};
use crate::node::NodeKind;

const MAGIC: &[u8; 4] = b"SOXD";
const VERSION: u32 = 2;
const MIN_VERSION: u32 = 1;

use crate::wire::{
    bad_data, capacity_hint, read_string, read_u16, read_u32, read_u8, write_string, write_u16,
    write_u32,
};

// ---- document codec ----

/// Serialize a document into the binary format.
pub fn write_document<W: Write>(doc: &Document, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    match doc.uri() {
        Some(uri) => {
            w.write_all(&[1])?;
            write_string(w, uri)?;
        }
        None => w.write_all(&[0])?,
    }
    // Name table in id order.
    let names = doc.names();
    write_u32(w, names.len() as u32)?;
    for k in 0..names.len() as u32 {
        write_string(w, &names.lexical(NameId(k)))?;
    }
    // Node columns.
    let n = doc.node_count() as u32;
    write_u32(w, n)?;
    for pre in 0..n {
        w.write_all(&[doc.kind(pre) as u8])?;
        write_u32(w, doc.size(pre))?;
        write_u16(w, doc.level(pre))?;
        write_u32(w, doc.parent(pre))?;
        write_u32(w, doc.name_id(pre).0)?;
        write_string(w, doc.value(pre))?;
    }
    // Attribute table.
    let a = doc.attr_count() as u32;
    write_u32(w, a)?;
    for idx in 0..a {
        write_u32(w, doc.attr_owner(idx))?;
        write_u32(w, doc.attr_name_id(idx).0)?;
        write_string(w, doc.attr_value(idx))?;
    }
    // CSR offsets.
    for pre in 0..n {
        write_u32(w, doc.attr_range(pre).start)?;
    }
    write_u32(w, a)?;
    // Element-name index (v2): the CSR is already in ascending name-id
    // order with document-ordered buckets.
    let index = doc.elem_index();
    write_u32(w, index.name_count() as u32)?;
    for k in 0..index.name_count() {
        let (id, pres) = index.bucket(k);
        write_u32(w, id)?;
        write_u32(w, pres.len() as u32)?;
        for &pre in pres {
            write_u32(w, pre)?;
        }
    }
    Ok(())
}

/// Deserialize a document from the binary format. Structural invariants
/// are re-validated on load — a corrupted file fails cleanly instead of
/// corrupting query results.
pub fn read_document<R: Read>(r: &mut R) -> io::Result<Document> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad_data("not a standoff document file (bad magic)"));
    }
    let version = read_u32(r)?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(bad_data("unsupported format version"));
    }
    let uri = if read_u8(r)? == 1 {
        Some(read_string(r)?)
    } else {
        None
    };
    let name_count = read_u32(r)? as usize;
    let mut names = NameTable::new();
    for k in 0..name_count {
        let lexical = read_string(r)?;
        let id = names.intern(&lexical);
        if id.0 as usize != k {
            return Err(bad_data("duplicate name in name table"));
        }
    }
    let n = read_u32(r)? as usize;
    if n == 0 {
        return Err(bad_data("document has no nodes"));
    }
    let cap = capacity_hint(n);
    let mut kind = Vec::with_capacity(cap);
    let mut size = Vec::with_capacity(cap);
    let mut level = Vec::with_capacity(cap);
    let mut parent = Vec::with_capacity(cap);
    let mut name = Vec::with_capacity(cap);
    let mut value_heap: Vec<u8> = Vec::new();
    let mut value_offsets: Vec<u32> = Vec::with_capacity(capacity_hint(n + 1));
    value_offsets.push(0);
    for _ in 0..n {
        kind.push(match read_u8(r)? {
            0 => NodeKind::Document,
            1 => NodeKind::Element,
            2 => NodeKind::Text,
            3 => NodeKind::Comment,
            4 => NodeKind::Pi,
            _ => return Err(bad_data("invalid node kind")),
        });
        size.push(read_u32(r)?);
        level.push(read_u16(r)?);
        parent.push(read_u32(r)?);
        let name_id = read_u32(r)?;
        if name_id != NameId::NONE.0 && name_id as usize >= name_count {
            return Err(bad_data("name id out of range"));
        }
        // Elements must carry a real name: the v1 path feeds these ids
        // straight into `ElemIndex::build`'s counting arrays, which
        // index by name id and (deliberately) do not re-check.
        if name_id == NameId::NONE.0 && *kind.last().unwrap() == NodeKind::Element {
            return Err(bad_data("element node without a name"));
        }
        name.push(name_id);
        value_heap.extend_from_slice(read_string(r)?.as_bytes());
        value_offsets.push(value_heap.len() as u32);
    }
    let a = read_u32(r)? as usize;
    let acap = capacity_hint(a);
    let mut attr_owner = Vec::with_capacity(acap);
    let mut attr_name = Vec::with_capacity(acap);
    let mut attr_heap: Vec<u8> = Vec::new();
    let mut attr_offsets: Vec<u32> = Vec::with_capacity(capacity_hint(a + 1));
    attr_offsets.push(0);
    for _ in 0..a {
        let owner = read_u32(r)?;
        if owner as usize >= n {
            return Err(bad_data("attribute owner out of range"));
        }
        attr_owner.push(owner);
        let name_id = read_u32(r)?;
        if name_id as usize >= name_count {
            return Err(bad_data("attribute name out of range"));
        }
        attr_name.push(name_id);
        attr_heap.extend_from_slice(read_string(r)?.as_bytes());
        attr_offsets.push(attr_heap.len() as u32);
    }
    let mut attr_first = Vec::with_capacity(capacity_hint(n + 1));
    for _ in 0..=n {
        let off = read_u32(r)?;
        if off as usize > a {
            return Err(bad_data("attribute offset out of range"));
        }
        attr_first.push(off);
    }
    let kind = KindCol::from_kinds(kind);
    let elem = if version >= 2 {
        // Deserialize the element-name index CSR; `from_storage` below
        // re-validates it against the columns — cheaper than a
        // rescan-and-rebuild, still safe.
        let indexed_names = read_u32(r)? as usize;
        if indexed_names > name_count {
            return Err(bad_data("more indexed names than interned names"));
        }
        let mut elem_names = Vec::with_capacity(capacity_hint(indexed_names));
        let mut elem_offsets = Vec::with_capacity(capacity_hint(indexed_names + 1));
        elem_offsets.push(0u32);
        let mut elem_pres: Vec<u32> = Vec::new();
        for _ in 0..indexed_names {
            elem_names.push(read_u32(r)?);
            let count = read_u32(r)? as usize;
            for _ in 0..count {
                elem_pres.push(read_u32(r)?);
            }
            elem_offsets.push(elem_pres.len() as u32);
        }
        ElemIndex {
            names: elem_names.into(),
            offsets: elem_offsets.into(),
            pres: elem_pres.into(),
        }
    } else {
        // v1 files carry no index; rebuild with a counting scan (name
        // ids were range-checked above).
        ElemIndex::build(&kind, &name, name_count)
    };
    let values =
        StrArena::from_parts(value_heap, value_offsets).map_err(|e| bad_data(&e.to_string()))?;
    let attr_values =
        StrArena::from_parts(attr_heap, attr_offsets).map_err(|e| bad_data(&e.to_string()))?;
    Document::from_storage(DocumentParts {
        uri,
        names,
        kind,
        size: size.into(),
        level: level.into(),
        parent: parent.into(),
        name: name.into(),
        values,
        attr_first: attr_first.into(),
        attr_owner: attr_owner.into(),
        attr_name: attr_name.into(),
        attr_values,
        elem,
    })
    .map_err(|e| bad_data(&e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;
    use crate::serialize::serialize_document;

    fn round_trip(xml: &str) -> Document {
        let doc = parse_document(xml).unwrap();
        let mut buf = Vec::new();
        write_document(&doc, &mut buf).unwrap();
        read_document(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn document_round_trip_preserves_serialization() {
        let xml = r#"<sample><video><shot id="Intro" start="0" end="8"/>text</video><!--c--><?pi d?></sample>"#;
        let orig = parse_document(xml).unwrap();
        let loaded = round_trip(xml);
        assert_eq!(
            serialize_document(&orig, Default::default()),
            serialize_document(&loaded, Default::default())
        );
        assert_eq!(orig.node_count(), loaded.node_count());
        assert_eq!(orig.attr_count(), loaded.attr_count());
        assert_eq!(
            loaded.attribute(loaded.elements_named("shot")[0], "id"),
            Some("Intro")
        );
    }

    #[test]
    fn uri_survives() {
        let mut store = crate::store::Store::new();
        let id = store.load("file:a.xml", "<a><b/></a>").unwrap();
        let mut buf = Vec::new();
        write_document(store.doc(id), &mut buf).unwrap();
        let loaded = read_document(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.uri(), Some("file:a.xml"));
    }

    #[test]
    fn name_index_survives_round_trip() {
        let loaded = round_trip("<a><b/><c/><b x='1'>t</b><d><b/></d></a>");
        assert_eq!(loaded.elements_named("b").len(), 3);
        assert_eq!(loaded.elements_named("d").len(), 1);
        assert_eq!(loaded.elements_named("nope"), &[] as &[u32]);
        // Document order.
        let bs = loaded.elements_named("b");
        assert!(bs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn version1_files_still_load() {
        // A v1 file is a v2 file minus the trailing name-index section,
        // with the version field rewritten.
        let doc = parse_document("<a><b/><c/></a>").unwrap();
        let mut v2 = Vec::new();
        write_document(&doc, &mut v2).unwrap();
        // The index section of this doc: u32 count=3 + 3 × (id, count, pre).
        let index_bytes = 4 + 3 * (4 + 4 + 4);
        let mut v1 = v2[..v2.len() - index_bytes].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let loaded = read_document(&mut v1.as_slice()).unwrap();
        assert_eq!(loaded.elements_named("b").len(), 1);
        assert_eq!(loaded.node_count(), doc.node_count());
    }

    /// The element-name index must be strictly ascending per name: the
    /// query engine's candidate pushdown borrows these slices directly
    /// into `RegionIndex::candidates_for` (which requires sorted input)
    /// without any per-execution re-check, so an out-of-order snapshot
    /// index must be rejected *here*, at load time.
    #[test]
    fn out_of_order_name_index_rejected() {
        let doc = parse_document("<a><b/><x/><b/></a>").unwrap();
        let mut buf = Vec::new();
        write_document(&doc, &mut buf).unwrap();
        // The index section ends with the `b` bucket's two pres (the
        // codec writes buckets in name-id order; `b` interns after `a`
        // but its 2-entry bucket is written with pres last when it is
        // the final bucket — locate them generically instead).
        let b_pres = doc.elements_named("b");
        assert_eq!(b_pres.len(), 2);
        let (lo, hi) = (b_pres[0], b_pres[1]);
        // Find the adjacent little-endian u32 pair [lo, hi] in the
        // trailing index section and swap it.
        let needle: Vec<u8> = lo
            .to_le_bytes()
            .iter()
            .chain(hi.to_le_bytes().iter())
            .copied()
            .collect();
        let at = (0..=buf.len() - 8)
            .rev()
            .find(|&k| buf[k..k + 8] == needle[..])
            .expect("index pres present in the encoding");
        buf[at..at + 4].copy_from_slice(&hi.to_le_bytes());
        buf[at + 4..at + 8].copy_from_slice(&lo.to_le_bytes());
        let err = read_document(&mut buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("document order"),
            "unexpected error: {err}"
        );
    }

    /// Regression: a hostile v1 file declaring an *element* whose name
    /// id is `NameId::NONE` must fail cleanly — the v1 path rebuilds the
    /// element-name index with counting arrays indexed by name id, so
    /// an unguarded sentinel would panic instead of erroring.
    #[test]
    fn v1_element_with_none_name_rejected() {
        let doc = parse_document("<a/>").unwrap();
        let mut v2 = Vec::new();
        write_document(&doc, &mut v2).unwrap();
        // Strip the one-bucket index section, rewrite the version.
        let mut v1 = v2[..v2.len() - (4 + 12)].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        // Node records start after magic(4) version(4) uri-flag(1)
        // name-count(4) name "a"(4+1) node-count(4); the document node
        // record is 19 bytes, and the element's name field sits 11
        // bytes into its record.
        let name_at = 4 + 4 + 1 + 4 + 5 + 4 + 19 + 11;
        assert_eq!(
            &v1[name_at..name_at + 4],
            &0u32.to_le_bytes()[..],
            "offset sanity"
        );
        v1[name_at..name_at + 4].copy_from_slice(&NameId::NONE.0.to_le_bytes());
        let err = read_document(&mut v1.as_slice()).unwrap_err();
        assert!(err.to_string().contains("without a name"), "{err}");
    }

    #[test]
    fn tampered_name_index_rejected() {
        let doc = parse_document("<a><b/><c/></a>").unwrap();
        let mut buf = Vec::new();
        write_document(&doc, &mut buf).unwrap();
        // Point the last index entry's pre at a non-element row.
        let k = buf.len() - 4;
        buf[k..].copy_from_slice(&0u32.to_le_bytes());
        assert!(read_document(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn corrupted_magic_rejected() {
        let mut buf = Vec::new();
        write_document(&parse_document("<a/>").unwrap(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(read_document(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let mut buf = Vec::new();
        write_document(&parse_document("<a><b x='1'/></a>").unwrap(), &mut buf).unwrap();
        for cut in [4usize, 9, buf.len() / 2, buf.len() - 1] {
            assert!(
                read_document(&mut buf[..cut].to_vec().as_slice()).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn corrupted_structure_rejected_by_invariants() {
        let doc = parse_document("<a><b/><c/></a>").unwrap();
        let mut buf = Vec::new();
        write_document(&doc, &mut buf).unwrap();
        // Flip a size byte inside the node column region and expect either
        // a clean failure or a still-valid document — never a panic.
        for k in 0..buf.len() {
            let mut mutated = buf.clone();
            mutated[k] ^= 0xff;
            let _ = read_document(&mut mutated.as_slice());
        }
    }
}
