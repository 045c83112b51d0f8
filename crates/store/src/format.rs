//! The on-disk layout of an ALAE index file.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic  b"ALAEIDX\0"
//!      8     4  format version (u32 LE, currently 4)
//!     12     4  section count (u32 LE)
//!     16  32*N  section table: { id: u32, _pad: u32, offset: u64,
//!                                len: u64, checksum: u64 }  (all LE)
//!      …     …  section payloads, each starting at an 8-byte-aligned
//!               offset, zero-padded in between
//! ```
//!
//! Every payload is little-endian and covered by a [`checksum`] recorded
//! in its table entry; readers verify all checksums before trusting a
//! byte.  Multi-byte integer sections are plain dense arrays
//! (`u32`/`u64`), decoded into owned vectors as open reads them.
//! The byte-layout BWT storage is *not* decoded: the reader checksums it
//! as it reads it and then hands out a zero-copy view of the mapped file.
//! The file stores only what the BWT cannot give back: the BWT, the
//! sampled-row bits and the packed suffix-array samples.  Open computes
//! the checkpoint rows and the C array from the BWT, and an opened
//! database derives its text from the FM-index.

/// File magic.
pub const MAGIC: [u8; 8] = *b"ALAEIDX\0";

/// Current format version.  Version 1 stored the text one byte per code
/// (section id 6) and checksummed byte by byte; version 2 stored its
/// letters packed (section id 17); version 3 stored the C array, the
/// checkpoint rows and `u32` samples (ids 7, 9, 10 and 16).  All three are
/// refused, and such a file is rebuilt.
pub const VERSION: u32 = 4;

/// Section payload alignment.
pub const ALIGN: usize = 8;

/// Size of the fixed header (magic + version + section count).
pub const HEADER_LEN: usize = 16;

/// Size of one section-table entry.
pub const TABLE_ENTRY_LEN: usize = 32;

/// Section identifiers.  Presence encodes shape: a file carries either
/// `OCC_BYTES` or `OCC_WORDS` (+ exception lists), mirroring the in-memory
/// storage enum.  Id 6 held the byte text of format version 1, id 8 the
/// retired flat `u32` checkpoint rows, id 17 the packed letters of format
/// version 2, and ids 7, 9, 10 and 16 the C array, the two-level
/// checkpoint rows and the `u32` samples of version 3; none is ever
/// reused.
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
    /// Packed suffix-array samples (`u64` words of fixed-width fields, see
    /// `alae_suffix::PackedSamples`).
    pub const PACKED_SAMPLES: u32 = 18;
}

/// Storage-kind tag stored in [`Meta`].  The builder writes packed DNA
/// storage for DNA and byte storage for protein, and open refuses any
/// other pairing.  Kind 2 named the retired nibble-packed words: it is
/// refused on open and never reused.
pub mod storage_kind {
    pub const BYTES: u64 = 0;
    pub const PACKED_DNA: u64 = 1;
}

/// Alphabet tag stored in [`Meta`].
pub mod alphabet_tag {
    pub const DNA: u64 = 0;
    pub const PROTEIN: u64 = 1;
}

/// Decoded scalar metadata (the `META` section: seven `u64` values in this
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
}

impl Meta {
    /// Number of `u64` fields.
    pub const FIELDS: usize = 7;

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

/// The section checksum: FNV-1a 64 taken a little-endian `u64` word at a
/// time instead of a byte at a time (xor the word in, multiply by the FNV
/// prime), plus one xor-shift per word (`h ^= h >> 32`).  A multiply only
/// carries a difference upward, so without the shift a flip of bit 63 in
/// two words would cancel and a word's top byte would reach only the top
/// byte of the state; the shift carries the high half down into the next
/// multiply.  Each step is a bijection of the state, so a change to any one
/// word always changes the value.  A tail shorter than a word is
/// zero-padded and folded in as one, and the byte length is folded in
/// last, so the padding never reads as data.  Dependency-free and not
/// cryptographic: it guards against truncation and bit rot, not tampering.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = Checksum::default();
    hash.update(bytes);
    hash.finish()
}

/// [`checksum`] fed in pieces: over any split of the same bytes it
/// finishes with the same value.  It carries at most 7 bytes from one
/// piece to the next.
#[derive(Debug, Clone, Copy)]
pub struct Checksum {
    hash: u64,
    len: u64,
    /// The bytes of a word not yet complete.
    tail: [u8; 8],
    tail_len: usize,
}

impl Default for Checksum {
    fn default() -> Self {
        Self {
            hash: 0xcbf2_9ce4_8422_2325,
            len: 0,
            tail: [0; 8],
            tail_len: 0,
        }
    }
}

impl Checksum {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn fold(hash: u64, word: u64) -> u64 {
        let hash = (hash ^ word).wrapping_mul(Self::PRIME);
        hash ^ (hash >> 32)
    }

    /// Hash the next piece.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = bytes.len().min(8 - self.tail_len);
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.hash = Self::fold(self.hash, u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let words = bytes.chunks_exact(8);
        let rest = words.remainder();
        self.hash = words.fold(self.hash, |hash, word| {
            Self::fold(hash, <u64 as Word>::from_le(word))
        });
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The checksum of everything hashed so far.
    pub fn finish(self) -> u64 {
        let mut hash = self.hash;
        if self.tail_len > 0 {
            let mut last = [0; 8];
            last[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
            hash = Self::fold(hash, u64::from_le_bytes(last));
        }
        Self::fold(hash, self.len)
    }
}

// ---------------------------------------------------------------------------
// Little-endian array codecs
// ---------------------------------------------------------------------------

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
        };
        assert_eq!(Meta::from_bytes(&meta.to_bytes()).unwrap(), meta);
        assert!(Meta::from_bytes(&[0u8; 8]).is_none());
    }

    #[test]
    fn table_entry_round_trips() {
        let entry = TableEntry {
            id: section::PACKED_SAMPLES,
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
        assert_ne!(checksum(b"abcdefgh12345678"), checksum(b"12345678abcdefgh"));
        assert_ne!(checksum(b""), checksum(b"\0"));
        // Reference values: a change to them changes every stored file.
        let bytes: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        assert_eq!(checksum(b""), REFERENCE[0]);
        assert_eq!(checksum(b"a"), REFERENCE[1]);
        assert_eq!(checksum(b"abcdefgh"), REFERENCE[2]);
        assert_eq!(checksum(&bytes), REFERENCE[3]);
    }

    const REFERENCE: [u64; 4] = [
        0xaf63_bd4c_2962_0a93,
        0x68e0_166a_3938_c199,
        0xff18_c96f_e56d_3933,
        0x170a_3b8b_ed17_09d7,
    ];

    #[test]
    fn checksum_sees_every_word_and_the_length() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(203).collect();
        let pristine = checksum(&bytes);
        for at in 0..bytes.len() {
            let mut changed = bytes.clone();
            changed[at] ^= 1 << (at % 8);
            assert_ne!(checksum(&changed), pristine, "byte {at}");
        }
        // Zero bytes past the end read like the padding, but the length
        // differs.
        for extra in 1..=16 {
            let mut longer = bytes.clone();
            longer.resize(bytes.len() + extra, 0);
            assert_ne!(checksum(&longer), pristine, "{extra} zero bytes more");
        }
        assert_ne!(checksum(&bytes[..200]), pristine);
        assert_ne!(checksum(&[0; 8]), checksum(&[0; 16]));
    }

    /// Two errors in different words, both in the word's top byte, where a
    /// multiply alone carries a difference only upward: every bit-63 pair,
    /// and every pair of top-byte changes from a fixed set.
    #[test]
    fn checksum_sees_two_errors_in_top_bytes() {
        const WORDS: usize = 40;
        let bytes: Vec<u8> = (0..=255u8).cycle().skip(17).take(8 * WORDS).collect();
        let pristine = checksum(&bytes);
        let changed = |errors: [(usize, u8); 2]| {
            let mut changed = bytes.clone();
            for (word, error) in errors {
                changed[8 * word + 7] ^= error;
            }
            checksum(&changed)
        };
        for first in 0..WORDS {
            for second in first + 1..WORDS {
                let flips = [(first, 0x80), (second, 0x80)];
                assert_ne!(
                    changed(flips),
                    pristine,
                    "bit 63 of words {first} and {second}"
                );
                for a in [0x01, 0x80, 0xff, 0x5a] {
                    for b in [0x01, 0x80, 0xff, 0x33] {
                        let errors = [(first, a), (second, b)];
                        assert_ne!(changed(errors), pristine, "{errors:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn checksum_in_pieces_matches_one_pass() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        for split in [0, 1, 7, 8, 9, 500, 503, 999, 1_000] {
            let mut hash = Checksum::default();
            hash.update(&bytes[..split]);
            hash.update(&bytes[split..]);
            assert_eq!(hash.finish(), checksum(&bytes), "split at {split}");
        }
        // Pieces of every size from 1 to 17 bytes, carrying tails across.
        for piece in 1..=17 {
            let mut hash = Checksum::default();
            for chunk in bytes.chunks(piece) {
                hash.update(chunk);
            }
            assert_eq!(hash.finish(), checksum(&bytes), "pieces of {piece}");
        }
    }
}
