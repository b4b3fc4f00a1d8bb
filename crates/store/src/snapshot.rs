//! Compacted CSR snapshots.
//!
//! A snapshot is the fully materialized graph at a known `version()`,
//! stored as four CRC-protected frames:
//!
//! 1. JSON metadata ([`SnapshotMeta`]: format tag, dataset id, version,
//!    node/edge counts, weighted flag),
//! 2. edge endpoints as little-endian `u32` pairs in CSR order,
//! 3. edge weights as little-endian `f64` bits (empty when unweighted),
//! 4. node labels as JSON `[(index, label), ...]`.
//!
//! Because the endpoints are emitted in CSR order and the decoder rebuilds
//! through the same [`GraphBuilder`] path the engine uses, decode(encode(g))
//! reproduces the CSR arrays — including cached weight sums — bit-for-bit.
//!
//! The file leads with a single raw **format-version byte**
//! ([`SNAPSHOT_VERSION_BYTE`]) ahead of the frames, so an incompatible
//! future layout is detected before any frame parsing (and tools can
//! sniff the version without CRC work).

use crate::frame::{read_frame, write_frame, FrameRead};
use relgraph::builder::DuplicatePolicy;
use relgraph::{DirectedGraph, GraphBuilder, NodeId};
use serde::{Deserialize, Serialize};
use std::io::Cursor;

/// Current snapshot format tag.
pub const SNAPSHOT_FORMAT: u32 = 1;

/// Format-version byte leading every snapshot file, before the first
/// frame. Decoders reject files whose lead byte they do not recognize.
pub const SNAPSHOT_VERSION_BYTE: u8 = 1;

/// Snapshot metadata (frame 1 of the file).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotMeta {
    /// Format tag, [`SNAPSHOT_FORMAT`].
    pub format: u32,
    /// Dataset id the snapshot belongs to (directory names are sanitized,
    /// so the authoritative id lives inside the file).
    pub dataset: String,
    /// Graph `version()` at snapshot time.
    pub version: u64,
    /// Node count.
    pub nodes: u64,
    /// Edge count.
    pub edges: u64,
    /// Whether per-edge weights are stored.
    pub weighted: bool,
}

/// Errors encoding or decoding a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// I/O failure.
    Io(std::io::Error),
    /// Structural damage: torn/corrupt frame or inconsistent sections.
    Invalid(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::Invalid(m) => write!(f, "invalid snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Encodes `graph` at `version` into snapshot bytes. Fails when a section
/// outgrows a frame's `u32` length word.
pub fn encode_snapshot(
    dataset: &str,
    graph: &DirectedGraph,
    version: u64,
) -> Result<Vec<u8>, SnapshotError> {
    let meta = SnapshotMeta {
        format: SNAPSHOT_FORMAT,
        dataset: dataset.to_string(),
        version,
        nodes: graph.node_count() as u64,
        edges: graph.edge_count() as u64,
        weighted: graph.is_weighted(),
    };
    let mut out = vec![SNAPSHOT_VERSION_BYTE];
    let meta_json = serde_json::to_vec(&meta)
        .map_err(|e| SnapshotError::Invalid(format!("meta encode: {e}")))?;
    write_frame(&mut out, &meta_json)?;

    let mut endpoints = Vec::with_capacity(graph.edge_count() * 8);
    let mut weights = Vec::new();
    if graph.is_weighted() {
        weights.reserve(graph.edge_count() * 8);
        for (u, v, w) in graph.weighted_edges() {
            endpoints.extend_from_slice(&u.raw().to_le_bytes());
            endpoints.extend_from_slice(&v.raw().to_le_bytes());
            weights.extend_from_slice(&w.to_bits().to_le_bytes());
        }
    } else {
        for (u, v) in graph.edges() {
            endpoints.extend_from_slice(&u.raw().to_le_bytes());
            endpoints.extend_from_slice(&v.raw().to_le_bytes());
        }
    }
    write_frame(&mut out, &endpoints)?;
    write_frame(&mut out, &weights)?;

    let labels: Vec<(u32, String)> =
        graph.labels().iter().map(|(n, l)| (n.raw(), l.to_string())).collect();
    let labels_json = serde_json::to_vec(&labels)
        .map_err(|e| SnapshotError::Invalid(format!("labels encode: {e}")))?;
    write_frame(&mut out, &labels_json)?;
    Ok(out)
}

/// Decodes snapshot bytes back into metadata and a materialized graph.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(SnapshotMeta, DirectedGraph), SnapshotError> {
    let body = check_version_byte(bytes)?;
    let mut cur = Cursor::new(body);
    let mut pos = 0u64;
    let mut next = |what: &str| -> Result<Vec<u8>, SnapshotError> {
        match read_frame(&mut cur, pos)? {
            FrameRead::Frame(p) => {
                pos += crate::frame::frame_len(p.len());
                Ok(p)
            }
            other => Err(SnapshotError::Invalid(format!("{what} frame unreadable: {other:?}"))),
        }
    };

    let meta: SnapshotMeta = serde_json::from_slice(&next("meta")?)
        .map_err(|e| SnapshotError::Invalid(format!("meta decode: {e}")))?;
    if meta.format != SNAPSHOT_FORMAT {
        return Err(SnapshotError::Invalid(format!("unknown format {}", meta.format)));
    }
    let endpoints = next("endpoints")?;
    let weights = next("weights")?;
    let labels_json = next("labels")?;

    if endpoints.len() as u64 != meta.edges * 8 {
        return Err(SnapshotError::Invalid(format!(
            "endpoint section is {} bytes, expected {}",
            endpoints.len(),
            meta.edges * 8
        )));
    }
    if meta.weighted && weights.len() as u64 != meta.edges * 8 {
        return Err(SnapshotError::Invalid(format!(
            "weight section is {} bytes, expected {}",
            weights.len(),
            meta.edges * 8
        )));
    }

    let mut b = GraphBuilder::with_capacity(meta.nodes as usize, meta.edges as usize);
    b.duplicate_policy(DuplicatePolicy::KeepFirst);
    if meta.nodes > 0 {
        b.ensure_node((meta.nodes - 1) as u32);
    }
    let (pairs, _) = endpoints.as_chunks::<8>();
    let (weight_bits, _) = weights.as_chunks::<8>();
    for (i, &[u0, u1, u2, u3, v0, v1, v2, v3]) in pairs.iter().enumerate() {
        let u = u32::from_le_bytes([u0, u1, u2, u3]);
        let v = u32::from_le_bytes([v0, v1, v2, v3]);
        if meta.weighted {
            let w = f64::from_bits(u64::from_le_bytes(weight_bits[i]));
            b.add_weighted_edge(NodeId::new(u), NodeId::new(v), w);
        } else {
            b.add_edge_indices(u, v);
        }
    }
    let labels: Vec<(u32, String)> = serde_json::from_slice(&labels_json)
        .map_err(|e| SnapshotError::Invalid(format!("labels decode: {e}")))?;
    for (n, l) in labels {
        b.set_label(NodeId::new(n), l);
    }
    let graph =
        b.try_build().map_err(|e| SnapshotError::Invalid(format!("rebuild failed: {e}")))?;
    Ok((meta, graph))
}

/// Validates the lead format-version byte, returning the frame region.
pub(crate) fn check_version_byte(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    match bytes.first() {
        None => Err(SnapshotError::Invalid("empty snapshot file".into())),
        Some(&SNAPSHOT_VERSION_BYTE) => Ok(&bytes[1..]),
        Some(&v) => Err(SnapshotError::Invalid(format!(
            "unknown snapshot format version {v} (this build reads {SNAPSHOT_VERSION_BYTE})"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DirectedGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_labeled_node("alice");
        let c = b.add_labeled_node("carol");
        let d = b.add_node();
        b.add_weighted_edge(a, c, 2.5);
        b.add_weighted_edge(c, d, 0.125);
        b.add_weighted_edge(d, a, 7.0);
        b.add_weighted_edge(a, d, 1.0);
        b.build()
    }

    #[test]
    fn round_trips_weighted_labeled_graph() {
        let g = sample();
        let bytes = encode_snapshot("friends", &g, 42).unwrap();
        let (meta, back) = decode_snapshot(&bytes).unwrap();
        assert_eq!(meta.dataset, "friends");
        assert_eq!(meta.version, 42);
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        let orig: Vec<_> = g.weighted_edges().collect();
        let got: Vec<_> = back.weighted_edges().collect();
        assert_eq!(orig, got);
        for u in g.nodes() {
            assert_eq!(g.labels().get(u), back.labels().get(u));
            assert_eq!(g.out_weight_sum(u).to_bits(), back.out_weight_sum(u).to_bits());
            assert_eq!(g.in_weight_sum(u).to_bits(), back.in_weight_sum(u).to_bits());
        }
    }

    #[test]
    fn round_trips_unweighted_and_empty() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0)]);
        let bytes = encode_snapshot("ring", &g, 0).unwrap();
        let (_, back) = decode_snapshot(&bytes).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), back.edges().collect::<Vec<_>>());
        assert!(!back.is_weighted());

        let empty = GraphBuilder::new().build();
        let bytes = encode_snapshot("empty", &empty, 0).unwrap();
        let (meta, back) = decode_snapshot(&bytes).unwrap();
        assert_eq!(meta.nodes, 0);
        assert_eq!(back.node_count(), 0);
    }

    #[test]
    fn leads_with_version_byte_and_rejects_unknown_versions() {
        let g = sample();
        let bytes = encode_snapshot("friends", &g, 3).unwrap();
        assert_eq!(bytes[0], SNAPSHOT_VERSION_BYTE);
        // Round trip through the versioned layout.
        let (meta, back) = decode_snapshot(&bytes).unwrap();
        assert_eq!(meta.version, 3);
        assert_eq!(back.edge_count(), g.edge_count());
        // A future (or garbage) version byte is refused before frame
        // parsing, with the version in the message.
        let mut future = bytes.clone();
        future[0] = SNAPSHOT_VERSION_BYTE + 1;
        match decode_snapshot(&future) {
            Err(SnapshotError::Invalid(m)) => assert!(m.contains("format version"), "{m}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        // The empty file is invalid, not a panic.
        assert!(decode_snapshot(b"").is_err());
    }

    #[test]
    fn rejects_damaged_bytes() {
        let g = sample();
        let mut bytes = encode_snapshot("friends", &g, 1).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0x08;
        assert!(decode_snapshot(&bytes).is_err());
        assert!(decode_snapshot(&bytes[..n - 3]).is_err());
        assert!(decode_snapshot(b"junk").is_err());
    }
}
