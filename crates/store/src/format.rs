//! The on-disk layout of an ALAE index file.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic  b"ALAEIDX\0"
//!      8     4  format version (u32 LE, currently 1)
//!     12     4  section count (u32 LE)
//!     16  32*N  section table: { id: u32, _pad: u32, offset: u64,
//!                                len: u64, checksum: u64 }  (all LE)
//!      …     …  section payloads, each starting at an 8-byte-aligned
//!               offset, zero-padded in between
//! ```
//!
//! Every payload is little-endian and covered by an FNV-1a 64 checksum
//! recorded in its table entry; readers verify all checksums before
//! trusting a byte.  Multi-byte integer sections are plain dense arrays
//! (`u16`/`u32`/`u64`), decoded into owned vectors as open reads them.
//! The two `u8` sections that dominate the file — the concatenated text
//! and the byte-layout BWT storage — are *not* decoded: the reader checks
//! them as it reads them and then hands out zero-copy views of the mapped
//! file.

/// File magic.
pub const MAGIC: [u8; 8] = *b"ALAEIDX\0";

/// Current format version.
pub const VERSION: u32 = 1;

/// Section payload alignment.
pub const ALIGN: usize = 8;

/// Size of the fixed header (magic + version + section count).
pub const HEADER_LEN: usize = 16;

/// Size of one section-table entry.
pub const TABLE_ENTRY_LEN: usize = 32;

/// Section identifiers.  Presence encodes shape: a file carries either
/// `OCC_BYTES` or `OCC_WORDS` (+ exception lists), mirroring the in-memory
/// storage enum.  Id 8 held the retired flat `u32` checkpoint rows and is
/// never reused.
pub mod section {
    /// Scalar metadata (see [`super::Meta`]).
    pub const META: u32 = 1;
    /// `u32` prefix offsets into [`NAMES_BLOB`] (record_count + 1 entries).
    pub const NAME_OFFSETS: u32 = 2;
    /// Concatenated UTF-8 record names.
    pub const NAMES_BLOB: u32 = 3;
    /// `u64` per-record start offsets in the text.
    pub const STARTS: u32 = 4;
    /// `u64` per-record lengths.
    pub const LENGTHS: u32 = 5;
    /// The concatenated code text (zero-copy on open).
    pub const TEXT: u32 = 6;
    /// `u64` cumulative character counts (`C` array).
    pub const C_ARRAY: u32 = 7;
    /// Two-level checkpoints: `u64` superblock absolutes.
    pub const CHK_SUPERS: u32 = 9;
    /// Two-level checkpoints: `u16` per-block deltas.
    pub const CHK_DELTAS: u32 = 10;
    /// Byte-layout BWT storage (zero-copy on open).
    pub const OCC_BYTES: u32 = 11;
    /// Bit-packed BWT storage words (`u64`).
    pub const OCC_WORDS: u32 = 12;
    /// Packed-storage exception positions (`u32`).
    pub const EXC_POS: u32 = 13;
    /// Packed-storage exception codes (`u8`).
    pub const EXC_CODE: u32 = 14;
    /// Sampled-row bit vector words (`u64`).
    pub const SAMPLED_WORDS: u32 = 15;
    /// Sampled suffix-array values (`u32`).
    pub const SAMPLES: u32 = 16;
}

/// Storage-kind tag stored in [`Meta`].  The builder writes packed DNA
/// storage for DNA and byte storage for protein; open accepts byte storage
/// for any code count.  Kind 2 named the retired nibble-packed words: it is
/// refused on open and never reused.
pub mod storage_kind {
    pub const BYTES: u64 = 0;
    pub const PACKED_DNA: u64 = 1;
}

/// Checkpoint-kind tag stored in [`Meta`].  Two-level rows are the only
/// kind; 0 (the retired flat `u32` rows) is rejected on open.
pub mod checkpoint_kind {
    pub const TWO_LEVEL: u64 = 1;
}

/// Alphabet tag stored in [`Meta`].
pub mod alphabet_tag {
    pub const DNA: u64 = 0;
    pub const PROTEIN: u64 = 1;
}

/// Decoded scalar metadata (the `META` section: eight `u64` values in this
/// field order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    pub alphabet: u64,
    pub code_count: u64,
    pub text_len: u64,
    pub record_count: u64,
    pub sample_rate: u64,
    pub sampled_bits: u64,
    pub storage_kind: u64,
    pub checkpoint_kind: u64,
}

impl Meta {
    /// Number of `u64` fields.
    pub const FIELDS: usize = 8;

    /// Serialize to the section payload.
    pub fn to_bytes(self) -> Vec<u8> {
        let fields = [
            self.alphabet,
            self.code_count,
            self.text_len,
            self.record_count,
            self.sample_rate,
            self.sampled_bits,
            self.storage_kind,
            self.checkpoint_kind,
        ];
        encode_u64s(&fields)
    }

    /// Parse from the section payload.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Self::from_fields(&decode(bytes)?)
    }

    /// Parse from the payload's decoded `u64` fields.
    pub fn from_fields(fields: &[u64]) -> Option<Self> {
        if fields.len() != Self::FIELDS {
            return None;
        }
        Some(Self {
            alphabet: fields[0],
            code_count: fields[1],
            text_len: fields[2],
            record_count: fields[3],
            sample_rate: fields[4],
            sampled_bits: fields[5],
            storage_kind: fields[6],
            checkpoint_kind: fields[7],
        })
    }
}

/// One parsed section-table entry.
#[derive(Debug, Clone, Copy)]
pub struct TableEntry {
    pub id: u32,
    pub offset: u64,
    pub len: u64,
    pub checksum: u64,
}

impl TableEntry {
    /// Serialize to the 32-byte table slot.
    pub fn to_bytes(self) -> [u8; TABLE_ENTRY_LEN] {
        let mut out = [0u8; TABLE_ENTRY_LEN];
        out[0..4].copy_from_slice(&self.id.to_le_bytes());
        // bytes 4..8 stay zero (padding)
        out[8..16].copy_from_slice(&self.offset.to_le_bytes());
        out[16..24].copy_from_slice(&self.len.to_le_bytes());
        out[24..32].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Parse one 32-byte table slot.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != TABLE_ENTRY_LEN {
            return None;
        }
        Some(Self {
            id: u32::from_le_bytes(bytes[0..4].try_into().ok()?),
            offset: u64::from_le_bytes(bytes[8..16].try_into().ok()?),
            len: u64::from_le_bytes(bytes[16..24].try_into().ok()?),
            checksum: u64::from_le_bytes(bytes[24..32].try_into().ok()?),
        })
    }
}

/// FNV-1a 64-bit checksum (dependency-free; not cryptographic — this guards
/// against truncation and bit rot, not tampering).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.update(bytes);
    hash.finish()
}

/// [`checksum`] fed in pieces: over any split of the same bytes it
/// finishes with the same value.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Hash the next piece.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(Self::PRIME);
        }
        self.0 = hash;
    }

    /// The checksum of everything hashed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Little-endian array codecs
// ---------------------------------------------------------------------------

pub fn encode_u16s(values: &[u16]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

pub fn encode_u32s(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

pub fn encode_u64s(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// `usize` arrays travel as `u64`.
pub fn encode_usizes(values: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for &v in values {
        out.extend_from_slice(&(v as u64).to_le_bytes());
    }
    out
}

/// A fixed-width little-endian integer that a section stores densely.
pub trait Word: Sized {
    /// Bytes per element.
    const WIDTH: usize;
    /// Decode one element from exactly `WIDTH` bytes.
    fn from_le(bytes: &[u8]) -> Self;
}

impl Word for u8 {
    const WIDTH: usize = 1;
    fn from_le(bytes: &[u8]) -> Self {
        bytes[0]
    }
}

impl Word for u16 {
    const WIDTH: usize = 2;
    fn from_le(bytes: &[u8]) -> Self {
        u16::from_le_bytes([bytes[0], bytes[1]])
    }
}

impl Word for u32 {
    const WIDTH: usize = 4;
    fn from_le(bytes: &[u8]) -> Self {
        u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
    }
}

impl Word for u64 {
    const WIDTH: usize = 8;
    fn from_le(bytes: &[u8]) -> Self {
        u64::from_le_bytes([
            bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
        ])
    }
}

/// Append the elements of `bytes`, a whole number of them, to `out`.
pub fn decode_into<W: Word>(bytes: &[u8], out: &mut Vec<W>) {
    out.extend(bytes.chunks_exact(W::WIDTH).map(W::from_le));
}

/// Decode a whole payload, refusing a ragged length.
pub fn decode<W: Word>(bytes: &[u8]) -> Option<Vec<W>> {
    if !bytes.len().is_multiple_of(W::WIDTH) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / W::WIDTH);
    decode_into(bytes, &mut out);
    Some(out)
}

/// `usize` arrays travel as `u64`: convert, refusing values that overflow.
pub fn to_usizes(values: Vec<u64>) -> Option<Vec<usize>> {
    values
        .into_iter()
        .map(|v| usize::try_from(v).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codecs_round_trip() {
        let u16s = vec![0u16, 1, 0xffff, 513];
        assert_eq!(decode::<u16>(&encode_u16s(&u16s)).unwrap(), u16s);
        let u32s = vec![0u32, 7, u32::MAX, 1 << 20];
        assert_eq!(decode::<u32>(&encode_u32s(&u32s)).unwrap(), u32s);
        let u64s = vec![0u64, u64::MAX, 42];
        assert_eq!(decode::<u64>(&encode_u64s(&u64s)).unwrap(), u64s);
        let sizes = vec![0usize, 9999, usize::MAX];
        let decoded = decode::<u64>(&encode_usizes(&sizes)).unwrap();
        assert_eq!(to_usizes(decoded).unwrap(), sizes);
        // Decoding piece by piece, split on element boundaries, fills the
        // same vector.
        let bytes = encode_u32s(&u32s);
        let mut pieces: Vec<u32> = Vec::new();
        for piece in bytes.chunks(8) {
            decode_into(piece, &mut pieces);
        }
        assert_eq!(pieces, u32s);
    }

    #[test]
    fn codecs_reject_ragged_lengths() {
        assert!(decode::<u16>(&[1]).is_none());
        assert!(decode::<u32>(&[1, 2, 3]).is_none());
        assert!(decode::<u64>(&[1, 2, 3, 4, 5, 6, 7]).is_none());
    }

    #[test]
    fn meta_round_trips() {
        let meta = Meta {
            alphabet: alphabet_tag::PROTEIN,
            code_count: 21,
            text_len: 123_456,
            record_count: 7,
            sample_rate: 16,
            sampled_bits: 123_458,
            storage_kind: storage_kind::BYTES,
            checkpoint_kind: checkpoint_kind::TWO_LEVEL,
        };
        assert_eq!(Meta::from_bytes(&meta.to_bytes()).unwrap(), meta);
        assert!(Meta::from_bytes(&[0u8; 8]).is_none());
    }

    #[test]
    fn table_entry_round_trips() {
        let entry = TableEntry {
            id: section::TEXT,
            offset: 4096,
            len: 999,
            checksum: 0xdead_beef_cafe_f00d,
        };
        let bytes = entry.to_bytes();
        let back = TableEntry::from_bytes(&bytes).unwrap();
        assert_eq!(back.id, entry.id);
        assert_eq!(back.offset, entry.offset);
        assert_eq!(back.len, entry.len);
        assert_eq!(back.checksum, entry.checksum);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(checksum(b"ab"), checksum(b"ba"));
        assert_ne!(checksum(b""), checksum(b"\0"));
        // FNV-1a reference vector.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn checksum_in_pieces_matches_one_pass() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        for split in [0, 1, 7, 500, 999, 1_000] {
            let mut hash = Fnv1a::default();
            hash.update(&bytes[..split]);
            hash.update(&bytes[split..]);
            assert_eq!(hash.finish(), checksum(&bytes), "split at {split}");
        }
    }
}
