//! The `Vertex` relation's record type and byte codec.
//!
//! A row of the `Vertex` relation (Table 1) is `(vid, halt, value, edges)`.
//! On disk and on the wire the vid is the 8-byte big-endian tuple key
//! prefix; the stored *value* under that key is the [`VertexData`] encoding:
//! `halt (1 byte) | value (V) | edge count (u32) | edges (dest u64 LE, E)*`.

use crate::api::VertexProgram;
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::writable::Writable;
use pregelix_common::Vid;

/// A directed edge with a user-defined value.
#[derive(Clone, Debug, PartialEq)]
pub struct Edge<E> {
    /// Destination vertex id.
    pub dest: Vid,
    /// User-defined edge value.
    pub value: E,
}

impl<E: Writable> Edge<E> {
    /// Construct an edge.
    pub fn new(dest: Vid, value: E) -> Edge<E> {
        Edge { dest, value }
    }
}

/// One vertex: the non-key fields of a `Vertex` relation row.
pub struct VertexData<P: VertexProgram> {
    /// Vertex id (also the relation key).
    pub vid: Vid,
    /// Liveness: `true` means the vertex has voted to halt.
    pub halt: bool,
    /// User-defined vertex value.
    pub value: P::VertexValue,
    /// Outgoing edges.
    pub edges: Vec<Edge<P::EdgeValue>>,
}

// Manual impls: deriving would wrongly require `P` itself (not just its
// associated types) to implement the traits.
impl<P: VertexProgram> Clone for VertexData<P>
where
    P::VertexValue: Clone,
    P::EdgeValue: Clone,
{
    fn clone(&self) -> Self {
        VertexData {
            vid: self.vid,
            halt: self.halt,
            value: self.value.clone(),
            edges: self.edges.clone(),
        }
    }
}

impl<P: VertexProgram> std::fmt::Debug for VertexData<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VertexData")
            .field("vid", &self.vid)
            .field("halt", &self.halt)
            .field("value", &self.value)
            .field("edges", &self.edges.len())
            .finish()
    }
}

impl<P: VertexProgram> PartialEq for VertexData<P> {
    fn eq(&self, other: &Self) -> bool {
        self.vid == other.vid
            && self.halt == other.halt
            && self.value == other.value
            && self.edges == other.edges
    }
}

impl<P: VertexProgram> VertexData<P> {
    /// A fresh, active vertex.
    pub fn new(vid: Vid, value: P::VertexValue, edges: Vec<Edge<P::EdgeValue>>) -> Self {
        VertexData {
            vid,
            halt: false,
            value,
            edges,
        }
    }

    /// The default vertex materialised for the left-outer case of the
    /// message join (a message addressed to a vid with no `Vertex` row,
    /// §3): active, default value, no edges.
    pub fn missing(vid: Vid) -> Self {
        VertexData {
            vid,
            halt: false,
            value: P::VertexValue::default(),
            edges: Vec::new(),
        }
    }

    /// Encode the non-key fields (the stored B-tree value).
    pub fn encode_value(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.edges.len() * 12);
        encode_head::<P>(self.halt, &self.value, &mut out);
        encode_edges(&self.edges, &mut out);
        out
    }

    /// Decode from a stored value plus its key.
    pub fn decode(vid: Vid, stored: &[u8]) -> Result<Self> {
        let mut edges = Vec::new();
        let (halt, value, _) = decode_into::<P>(stored, &mut edges)?;
        Ok(VertexData {
            vid,
            halt,
            value,
            edges,
        })
    }
}

/// Append a row's head, `halt | value`: the part of a stored row `compute`
/// rewrites when it leaves the edge list alone.
pub(crate) fn encode_head<P: VertexProgram>(halt: bool, value: &P::VertexValue, out: &mut Vec<u8>) {
    halt.write(out);
    value.write(out);
}

/// Append a row's tail, `edge count | edges`.
pub(crate) fn encode_edges<E: Writable>(edges: &[Edge<E>], out: &mut Vec<u8>) {
    (edges.len() as u32).write(out);
    for e in edges {
        e.dest.write(out);
        e.value.write(out);
    }
}

/// Whether a stored row's halt flag (its first byte) is set, without
/// decoding the rest.
pub(crate) fn is_halted(stored: &[u8]) -> bool {
    stored.first() == Some(&1)
}

/// Decode a stored row into `(halt, value)` and `edges` (cleared first, so
/// one buffer serves every row of a scan), also returning the byte length of
/// the row's head. The row must be exactly `halt | value | n | edges`: the
/// head-only write-back relies on that layout.
pub(crate) fn decode_into<P: VertexProgram>(
    stored: &[u8],
    edges: &mut Vec<Edge<P::EdgeValue>>,
) -> Result<(bool, P::VertexValue, usize)> {
    let mut rest = stored;
    let buf = &mut rest;
    let halt = bool::read(buf)?;
    let value = P::VertexValue::read(buf)?;
    let head_len = stored.len() - buf.len();
    let n = u32::read(buf)? as usize;
    edges.clear();
    edges.reserve(n.min(1 << 16));
    for _ in 0..n {
        let dest = Vid::read(buf)?;
        let value = P::EdgeValue::read(buf)?;
        edges.push(Edge { dest, value });
    }
    if !buf.is_empty() {
        return Err(PregelixError::corrupt(format!(
            "{} trailing bytes after a vertex row",
            buf.len()
        )));
    }
    Ok((halt, value, head_len))
}

/// Encode a list of messages as a `Msg` tuple payload. The uniform wire
/// format is a message *list*: with a user combiner the list stays at one
/// element; without one, the default combine "gathers all messages for a
/// given destination into a list" (§3, footnote 4).
pub fn encode_msg_list<M: Writable>(msgs: &[M]) -> Vec<u8> {
    let mut out = Vec::new();
    (msgs.len() as u32).write(&mut out);
    for m in msgs {
        m.write(&mut out);
    }
    out
}

/// Decode a `Msg` tuple payload.
pub fn decode_msg_list<M: Writable>(payload: &[u8]) -> Result<Vec<M>> {
    let mut msgs = Vec::new();
    decode_msg_list_into(payload, &mut msgs)?;
    Ok(msgs)
}

/// Decode a `Msg` tuple payload into `msgs` (cleared first), so a reader
/// walking a message run reuses one buffer for every row.
pub fn decode_msg_list_into<M: Writable>(mut payload: &[u8], msgs: &mut Vec<M>) -> Result<()> {
    let buf = &mut payload;
    let n = u32::read(buf)? as usize;
    msgs.clear();
    msgs.reserve(n.min(1 << 16));
    for _ in 0..n {
        msgs.push(M::read(buf)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::tests_support::NoopProgram;

    #[test]
    fn vertex_codec_roundtrip() {
        let v: VertexData<NoopProgram> = VertexData {
            vid: 42,
            halt: true,
            value: 2.5,
            edges: vec![Edge::new(1, 0.5), Edge::new(9, 1.5)],
        };
        let bytes = v.encode_value();
        let back = VertexData::<NoopProgram>::decode(42, &bytes).unwrap();
        assert_eq!(back, v);
        assert!(is_halted(&bytes));
    }

    #[test]
    fn missing_vertex_is_active_and_empty() {
        let v: VertexData<NoopProgram> = VertexData::missing(7);
        assert_eq!(v.vid, 7);
        assert!(!v.halt);
        assert_eq!(v.value, 0.0);
        assert!(v.edges.is_empty());
    }

    #[test]
    fn msg_list_codec_roundtrip() {
        let msgs = vec![1.0f64, 2.0, 3.0];
        let payload = encode_msg_list(&msgs);
        assert_eq!(decode_msg_list::<f64>(&payload).unwrap(), msgs);
        let empty: Vec<f64> = vec![];
        assert_eq!(
            decode_msg_list::<f64>(&encode_msg_list(&empty)).unwrap(),
            empty
        );
    }

    #[test]
    fn trailing_bytes_after_a_row_are_corruption() {
        let v: VertexData<NoopProgram> = VertexData::new(1, 1.0, vec![Edge::new(2, 3.0)]);
        let mut bytes = v.encode_value();
        bytes.push(0);
        let err = VertexData::<NoopProgram>::decode(1, &bytes).unwrap_err();
        assert!(matches!(err, PregelixError::Corrupt(_)), "{err}");
    }

    #[test]
    fn head_and_edges_compose_the_row_and_decode_into_reuses_the_buffer() {
        let v: VertexData<NoopProgram> =
            VertexData::new(1, 1.5, vec![Edge::new(2, 3.0), Edge::new(4, 5.0)]);
        let row = v.encode_value();
        let mut head = Vec::new();
        encode_head::<NoopProgram>(v.halt, &v.value, &mut head);
        assert_eq!(head, row[..head.len()]);
        let mut edges = vec![Edge::new(99, 9.0); 7];
        let (halt, value, head_len) = decode_into::<NoopProgram>(&row, &mut edges).unwrap();
        assert_eq!((halt, value, head_len), (false, 1.5, head.len()));
        assert!(!is_halted(&row));
        assert_eq!(edges, v.edges);
    }

    #[test]
    fn truncated_vertex_rejected() {
        let v: VertexData<NoopProgram> =
            VertexData::new(1, 1.0, vec![Edge::new(2, 3.0)]);
        let bytes = v.encode_value();
        assert!(VertexData::<NoopProgram>::decode(1, &bytes[..bytes.len() - 3]).is_err());
    }
}
