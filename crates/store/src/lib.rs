//! Single-file persistence for ALAE indexed databases.
//!
//! [`save_index`] serializes a [`SequenceDatabase`] together with the
//! [`TextIndex`] built over it — record table, concatenated text, `C`
//! array, occurrence checkpoint rows, BWT storage, exception lists and the
//! sampled suffix array — into one checksummed little-endian file (format
//! in [`mod@format`]).  [`open_index`] reopens it **without rebuilding
//! anything**: no suffix-array construction, no BWT, no checkpoint pass.
//! The two large byte sections (the text and, in the byte layout, the BWT
//! storage) are served as zero-copy views of the memory-mapped file; the
//! narrower integer sections are decoded into owned vectors.
//!
//! What is *not* stored, by design:
//!
//! * **Rank directories** — the bit-vector rank blocks and the exception
//!   block-start rows are cheap derived data, rebuilt in one linear pass.
//! * **Q-gram structures** — ALAE's q-gram inverted lists are built per
//!   *query* (Section 3.1.3 of the paper), so there is nothing database-
//!   side to persist.
//!
//! `unsafe` is confined to the [`mmap`] module (CI enforces this); the
//! rest of the crate is `#![deny(unsafe_code)]`.
#![deny(unsafe_code)]

pub mod format;
pub mod mmap;

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use alae_bioseq::{Alphabet, SequenceDatabase, SharedBytes};
use alae_suffix::bitvec::RankBitVec;
use alae_suffix::fm_index::FmIndex;
use alae_suffix::rank::OccTable;
use alae_suffix::{CheckpointRows, CheckpointRowsRef, StorageData, StorageDataRef, TextIndex};

use format::{
    alphabet_tag, checkpoint_kind, checksum, section, storage_kind, Meta, TableEntry, ALIGN,
    HEADER_LEN, MAGIC, TABLE_ENTRY_LEN, VERSION,
};
use mmap::FileBuffer;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a save or open failed.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the `ALAEIDX\0` magic.
    BadMagic,
    /// The file's format version is not one this build reads.
    UnsupportedVersion(u32),
    /// The file ends before a structure it promises (header, table or
    /// section payload).
    Truncated(&'static str),
    /// A section's stored checksum does not match its bytes.
    ChecksumMismatch(u32),
    /// A section required by the metadata is absent.
    MissingSection(u32),
    /// The bytes parse but describe an inconsistent index.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(err) => write!(f, "i/o error: {err}"),
            Self::BadMagic => write!(f, "not an ALAE index file (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v} (this build reads {VERSION})"
                )
            }
            Self::Truncated(what) => write!(f, "file truncated: {what}"),
            Self::ChecksumMismatch(id) => write!(f, "checksum mismatch in section {id}"),
            Self::MissingSection(id) => write!(f, "missing section {id}"),
            Self::Corrupt(why) => write!(f, "corrupt index: {why}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        Self::Io(err)
    }
}

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

/// Serialize `database` + `index` into one file at `path` (overwriting).
///
/// The index must have been built over exactly the database's concatenated
/// text (which is how every [`TextIndex`] built through the facade or
/// `IndexOptions` comes to be).
pub fn save_index(
    path: &Path,
    database: &SequenceDatabase,
    index: &TextIndex,
) -> Result<(), StoreError> {
    if database.text() != index.text() {
        return Err(StoreError::Corrupt(
            "index does not cover the database text".into(),
        ));
    }
    if database.alphabet().code_count() != index.code_count() {
        return Err(StoreError::Corrupt(
            "index code count does not match the database alphabet".into(),
        ));
    }

    let fm = index.fm_index();
    let occ = fm.occ_table();

    // Record table.
    let names = database.record_names();
    let mut name_offsets: Vec<u32> = Vec::with_capacity(names.len() + 1);
    let mut names_blob: Vec<u8> = Vec::new();
    name_offsets.push(0);
    for name in names {
        names_blob.extend_from_slice(name.as_bytes());
        let end = u32::try_from(names_blob.len())
            .map_err(|_| StoreError::Corrupt("record names exceed 4 GiB".into()))?;
        name_offsets.push(end);
    }

    // Occurrence checkpoint rows.
    let CheckpointRowsRef { supers, deltas } = occ.checkpoint_rows();

    // BWT storage.
    let (occ_kind, occ_sections): (u64, Vec<(u32, Vec<u8>)>) = match occ.storage_data() {
        StorageDataRef::Bytes(data) => (
            storage_kind::BYTES,
            vec![(section::OCC_BYTES, data.as_slice().to_vec())],
        ),
        StorageDataRef::PackedDna {
            words,
            exc_pos,
            exc_code,
        } => (
            storage_kind::PACKED_DNA,
            vec![
                (section::OCC_WORDS, format::encode_u64s(words)),
                (section::EXC_POS, format::encode_u32s(exc_pos)),
                (section::EXC_CODE, exc_code.to_vec()),
            ],
        ),
        StorageDataRef::PackedNibble {
            words,
            exc_pos,
            exc_code,
        } => (
            storage_kind::PACKED_NIBBLE,
            vec![
                (section::OCC_WORDS, format::encode_u64s(words)),
                (section::EXC_POS, format::encode_u32s(exc_pos)),
                (section::EXC_CODE, exc_code.to_vec()),
            ],
        ),
    };

    let meta = Meta {
        alphabet: match database.alphabet() {
            Alphabet::Dna => alphabet_tag::DNA,
            Alphabet::Protein => alphabet_tag::PROTEIN,
        },
        code_count: index.code_count() as u64,
        text_len: index.len() as u64,
        record_count: database.record_count() as u64,
        sample_rate: fm.sample_rate() as u64,
        sampled_bits: fm.sampled_rows().len() as u64,
        storage_kind: occ_kind,
        checkpoint_kind: checkpoint_kind::TWO_LEVEL,
    };

    let mut sections: Vec<(u32, Vec<u8>)> = vec![
        (section::META, meta.to_bytes()),
        (section::NAME_OFFSETS, format::encode_u32s(&name_offsets)),
        (section::NAMES_BLOB, names_blob),
        (
            section::STARTS,
            format::encode_usizes(database.record_starts()),
        ),
        (
            section::LENGTHS,
            format::encode_usizes(database.record_lengths()),
        ),
        (section::TEXT, index.text().to_vec()),
        (section::C_ARRAY, format::encode_usizes(fm.c_array())),
    ];
    sections.push((section::CHK_SUPERS, format::encode_u64s(supers)));
    sections.push((section::CHK_DELTAS, format::encode_u16s(deltas)));
    sections.extend(occ_sections);
    sections.push((
        section::SAMPLED_WORDS,
        format::encode_u64s(fm.sampled_rows().words()),
    ));
    sections.push((section::SAMPLES, format::encode_u32s(fm.samples())));

    write_file(path, &sections)
}

/// Lay out header, table and aligned payloads, then write them through one
/// buffered writer.
fn write_file(path: &Path, sections: &[(u32, Vec<u8>)]) -> Result<(), StoreError> {
    let table_len = sections.len() * TABLE_ENTRY_LEN;
    let mut offset = HEADER_LEN + table_len;
    let mut entries = Vec::with_capacity(sections.len());
    for (id, payload) in sections {
        offset = offset.next_multiple_of(ALIGN);
        entries.push(TableEntry {
            id: *id,
            offset: offset as u64,
            len: payload.len() as u64,
            checksum: checksum(payload),
        });
        offset += payload.len();
    }

    let file = File::create(path)?;
    let mut out = BufWriter::new(file);
    out.write_all(&MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&(sections.len() as u32).to_le_bytes())?;
    for entry in &entries {
        out.write_all(&entry.to_bytes())?;
    }
    let mut written = HEADER_LEN + table_len;
    for (entry, (_, payload)) in entries.iter().zip(sections) {
        let pad = entry.offset as usize - written;
        out.write_all(&[0u8; ALIGN][..pad])?;
        out.write_all(payload)?;
        written = entry.offset as usize + payload.len();
    }
    out.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Open
// ---------------------------------------------------------------------------

/// A reopened index: the record table and the ready-to-search text index,
/// sharing one backing buffer (the mapped file where possible).
#[derive(Debug, Clone)]
pub struct OpenedIndex {
    /// The record table and concatenated text.
    pub database: Arc<SequenceDatabase>,
    /// The suffix-trie index, ready for cursor traffic.
    pub index: Arc<TextIndex>,
    /// Whether the byte sections are zero-copy views of a memory mapping
    /// (false means the owned-read fallback was used; behavior identical).
    pub mapped: bool,
}

/// All sections of a parsed file, with the shared backing buffer.
struct Sections {
    buffer: Arc<FileBuffer>,
    entries: Vec<TableEntry>,
}

impl Sections {
    fn find(&self, id: u32) -> Result<&TableEntry, StoreError> {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .ok_or(StoreError::MissingSection(id))
    }

    /// Borrow a section's bytes (already bounds- and checksum-verified).
    fn bytes(&self, id: u32) -> Result<&[u8], StoreError> {
        let entry = self.find(id)?;
        let all: &[u8] = self.buffer.as_ref().as_ref();
        Ok(&all[entry.offset as usize..(entry.offset + entry.len) as usize])
    }

    /// A zero-copy `SharedBytes` view of a section, keeping the whole file
    /// buffer alive through the `Arc` owner.
    fn shared(&self, id: u32) -> Result<SharedBytes, StoreError> {
        let entry = self.find(id)?;
        let owner: Arc<dyn AsRef<[u8]> + Send + Sync> = self.buffer.clone();
        Ok(SharedBytes::from_owner(
            owner,
            entry.offset as usize,
            entry.len as usize,
        ))
    }
}

fn corrupt(why: impl Into<String>) -> StoreError {
    StoreError::Corrupt(why.into())
}

/// Parse and verify the header, section table and every checksum.
fn parse_sections(buffer: FileBuffer) -> Result<Sections, StoreError> {
    let bytes: &[u8] = buffer.as_ref();
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated("header"));
    }
    if bytes[0..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    // Indexing each byte keeps the header parse free of any panic path
    // (the length was bounds-checked against HEADER_LEN above).
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    if count > 1024 {
        return Err(corrupt(format!("implausible section count {count}")));
    }
    let table_end = HEADER_LEN + count * TABLE_ENTRY_LEN;
    if bytes.len() < table_end {
        return Err(StoreError::Truncated("section table"));
    }
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let start = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let entry = TableEntry::from_bytes(&bytes[start..start + TABLE_ENTRY_LEN])
            .ok_or(StoreError::Truncated("section table entry"))?;
        let end = entry
            .offset
            .checked_add(entry.len)
            .ok_or_else(|| corrupt("section range overflows"))?;
        if end > bytes.len() as u64 {
            return Err(StoreError::Truncated("section payload"));
        }
        if entries.iter().any(|e: &TableEntry| e.id == entry.id) {
            return Err(corrupt(format!("duplicate section {}", entry.id)));
        }
        let payload = &bytes[entry.offset as usize..end as usize];
        if checksum(payload) != entry.checksum {
            return Err(StoreError::ChecksumMismatch(entry.id));
        }
        entries.push(entry);
    }
    Ok(Sections {
        buffer: Arc::new(buffer),
        entries,
    })
}

/// What [`verify_index`] learned about an on-disk index without
/// materializing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexSummary {
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Number of sections in the file's table.
    pub sections: usize,
    /// Whether the file was examined through a memory mapping.
    pub mapped: bool,
    /// Concatenated text length recorded in the metadata.
    pub text_len: u64,
    /// Record count recorded in the metadata.
    pub record_count: u64,
}

/// Structurally verify an index file without building anything.
///
/// Checks the magic, version, section table and **every** section
/// checksum, plus the metadata section's shape — the same validation
/// [`open_index`] performs before construction, at a fraction of the
/// cost.  Intended as a pre-flight for hot reloads: a server can reject a
/// torn or mismatched file before committing to the full open.
pub fn verify_index(path: &Path) -> Result<IndexSummary, StoreError> {
    let buffer = FileBuffer::open(path)?;
    let mapped = buffer.is_mapped();
    let bytes: &[u8] = buffer.as_ref();
    let file_bytes = bytes.len() as u64;
    let sections = parse_sections(buffer)?;
    let meta = Meta::from_bytes(sections.bytes(section::META)?)
        .ok_or_else(|| corrupt("malformed META section"))?;
    Ok(IndexSummary {
        file_bytes,
        sections: sections.entries.len(),
        mapped,
        text_len: meta.text_len,
        record_count: meta.record_count,
    })
}

/// Reopen an index saved by [`save_index`].
///
/// Performs **no** build work: the suffix array, BWT and checkpoint rows
/// come straight from the file.  Only cheap derived data is recomputed
/// (bit-vector rank directories, exception block starts).
pub fn open_index(path: &Path) -> Result<OpenedIndex, StoreError> {
    let buffer = FileBuffer::open(path)?;
    let mapped = buffer.is_mapped();
    let sections = parse_sections(buffer)?;

    let meta = Meta::from_bytes(sections.bytes(section::META)?)
        .ok_or_else(|| corrupt("malformed META section"))?;
    let alphabet = match meta.alphabet {
        alphabet_tag::DNA => Alphabet::Dna,
        alphabet_tag::PROTEIN => Alphabet::Protein,
        other => return Err(corrupt(format!("unknown alphabet tag {other}"))),
    };
    let code_count =
        usize::try_from(meta.code_count).map_err(|_| corrupt("code_count overflows"))?;
    if code_count != alphabet.code_count() {
        return Err(corrupt(format!(
            "code_count {code_count} does not match alphabet {alphabet:?}"
        )));
    }
    let text_len = usize::try_from(meta.text_len).map_err(|_| corrupt("text_len overflows"))?;
    let record_count =
        usize::try_from(meta.record_count).map_err(|_| corrupt("record_count overflows"))?;
    let sample_rate =
        usize::try_from(meta.sample_rate).map_err(|_| corrupt("sample_rate overflows"))?;
    let sampled_bits =
        usize::try_from(meta.sampled_bits).map_err(|_| corrupt("sampled_bits overflows"))?;

    // --- Record table -----------------------------------------------------
    let name_offsets = format::decode_u32s(sections.bytes(section::NAME_OFFSETS)?)
        .ok_or_else(|| corrupt("ragged NAME_OFFSETS section"))?;
    if name_offsets.len() != record_count + 1 {
        return Err(corrupt(format!(
            "NAME_OFFSETS has {} entries for {record_count} records",
            name_offsets.len()
        )));
    }
    let names_blob = sections.bytes(section::NAMES_BLOB)?;
    let mut names: Vec<Arc<str>> = Vec::with_capacity(record_count);
    for pair in name_offsets.windows(2) {
        let (start, end) = (pair[0] as usize, pair[1] as usize);
        if start > end || end > names_blob.len() {
            return Err(corrupt("NAME_OFFSETS out of order or out of range"));
        }
        let name = std::str::from_utf8(&names_blob[start..end])
            .map_err(|_| corrupt("record name is not UTF-8"))?;
        names.push(Arc::from(name));
    }
    let starts = format::decode_usizes(sections.bytes(section::STARTS)?)
        .ok_or_else(|| corrupt("ragged STARTS section"))?;
    let lengths = format::decode_usizes(sections.bytes(section::LENGTHS)?)
        .ok_or_else(|| corrupt("ragged LENGTHS section"))?;

    let text = sections.shared(section::TEXT)?;
    if text.len() != text_len {
        return Err(corrupt(format!(
            "TEXT section is {} bytes, metadata says {text_len}",
            text.len()
        )));
    }
    let database = SequenceDatabase::from_parts(alphabet, text.clone(), names, starts, lengths)
        .map_err(StoreError::Corrupt)?;

    // --- Occurrence table -------------------------------------------------
    // The FM-index covers the reversed text plus its sentinel, with all
    // codes shifted up by one: `text_len + 1` rows, `code_count + 1` codes.
    let occ_len = text_len + 1;
    let occ_code_count = code_count + 1;
    if meta.checkpoint_kind != checkpoint_kind::TWO_LEVEL {
        return Err(corrupt(format!(
            "unsupported checkpoint kind {} (only two-level rows, kind {}, exist)",
            meta.checkpoint_kind,
            checkpoint_kind::TWO_LEVEL
        )));
    }
    let rows = CheckpointRows {
        supers: format::decode_u64s(sections.bytes(section::CHK_SUPERS)?)
            .ok_or_else(|| corrupt("ragged CHK_SUPERS section"))?,
        deltas: format::decode_u16s(sections.bytes(section::CHK_DELTAS)?)
            .ok_or_else(|| corrupt("ragged CHK_DELTAS section"))?,
    };
    let storage = match meta.storage_kind {
        storage_kind::BYTES => StorageData::Bytes(sections.shared(section::OCC_BYTES)?),
        storage_kind::PACKED_DNA | storage_kind::PACKED_NIBBLE => {
            let words = format::decode_u64s(sections.bytes(section::OCC_WORDS)?)
                .ok_or_else(|| corrupt("ragged OCC_WORDS section"))?;
            let exc_pos = format::decode_u32s(sections.bytes(section::EXC_POS)?)
                .ok_or_else(|| corrupt("ragged EXC_POS section"))?;
            let exc_code = sections.bytes(section::EXC_CODE)?.to_vec();
            if meta.storage_kind == storage_kind::PACKED_DNA {
                StorageData::PackedDna {
                    words,
                    exc_pos,
                    exc_code,
                }
            } else {
                StorageData::PackedNibble {
                    words,
                    exc_pos,
                    exc_code,
                }
            }
        }
        other => return Err(corrupt(format!("unknown storage kind {other}"))),
    };
    let occ = OccTable::from_parts(occ_len, occ_code_count, rows, storage)
        .map_err(StoreError::Corrupt)?;

    // --- FM-index ---------------------------------------------------------
    let c_array = format::decode_usizes(sections.bytes(section::C_ARRAY)?)
        .ok_or_else(|| corrupt("ragged C_ARRAY section"))?;
    let sampled_words = format::decode_u64s(sections.bytes(section::SAMPLED_WORDS)?)
        .ok_or_else(|| corrupt("ragged SAMPLED_WORDS section"))?;
    if sampled_words.len() != sampled_bits.div_ceil(64) {
        return Err(corrupt(format!(
            "SAMPLED_WORDS has {} words for {sampled_bits} bits",
            sampled_words.len()
        )));
    }
    let sampled_rows = RankBitVec::from_words(sampled_bits, sampled_words);
    let samples = format::decode_u32s(sections.bytes(section::SAMPLES)?)
        .ok_or_else(|| corrupt("ragged SAMPLES section"))?;
    let fm = FmIndex::from_parts(
        text_len,
        code_count,
        occ,
        c_array,
        sampled_rows,
        samples,
        sample_rate,
    )
    .map_err(StoreError::Corrupt)?;

    let index = TextIndex::from_parts(text, code_count, fm).map_err(StoreError::Corrupt)?;
    Ok(OpenedIndex {
        database: Arc::new(database),
        index: Arc::new(index),
        mapped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alae_bioseq::Sequence;
    use alae_suffix::{IndexOptions, RankLayout};
    use std::io::{Read, Seek, SeekFrom, Write as IoWrite};
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "alae-store-lib-{}-{}.alx",
            std::process::id(),
            name
        ));
        path
    }

    fn sample_database() -> SequenceDatabase {
        SequenceDatabase::from_sequences(
            Alphabet::Dna,
            [
                Sequence::from_ascii_named(Alphabet::Dna, "chr1", b"GCTAGCTAGGCATCGATCG").unwrap(),
                Sequence::from_ascii_named(Alphabet::Dna, "chr2", b"ACGTACGTACGT").unwrap(),
            ],
        )
    }

    fn build_index(database: &SequenceDatabase, layout: RankLayout) -> TextIndex {
        IndexOptions::new()
            .layout(layout)
            .build_text_index(database.shared_text(), database.alphabet().code_count())
    }

    #[test]
    fn round_trips_across_layouts() {
        for (tag, layout) in [
            ("bytes", RankLayout::Bytes),
            ("packed", RankLayout::PackedDna),
            ("auto", RankLayout::Auto),
        ] {
            let path = temp_path(&format!("roundtrip-{tag}"));
            let database = sample_database();
            let index = build_index(&database, layout);
            save_index(&path, &database, &index).unwrap();
            let opened = open_index(&path).unwrap();
            assert_eq!(opened.database.text(), database.text());
            assert_eq!(opened.database.record_count(), 2);
            assert_eq!(opened.database.record_names()[0].as_ref(), "chr1");
            assert_eq!(opened.index.code_count(), index.code_count());
            assert_eq!(
                opened.index.find_occurrences(&[2, 1, 4]),
                index.find_occurrences(&[2, 1, 4]),
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn open_is_zero_copy_into_the_mapping() {
        let path = temp_path("zerocopy");
        let database = sample_database();
        let index = build_index(&database, RankLayout::Bytes);
        save_index(&path, &database, &index).unwrap();
        let opened = open_index(&path).unwrap();
        #[cfg(unix)]
        assert!(opened.mapped);
        // The database and the index share the same text view.
        assert!(std::ptr::eq(
            opened.database.text().as_ptr(),
            opened.index.text().as_ptr()
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTANIDX-filler-bytes-past-the-header").unwrap();
        assert!(matches!(open_index(&path), Err(StoreError::BadMagic)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verify_summarizes_a_good_file_and_rejects_a_torn_one() {
        let path = temp_path("verify");
        let database = sample_database();
        let index = build_index(&database, RankLayout::Bytes);
        save_index(&path, &database, &index).unwrap();

        let summary = verify_index(&path).unwrap();
        assert_eq!(summary.text_len as usize, database.text().len());
        assert_eq!(summary.record_count, 2);
        assert!(summary.sections >= 5);
        assert_eq!(
            summary.file_bytes,
            std::fs::metadata(&path).unwrap().len(),
            "summary must report the real file size"
        );

        // Flip one payload byte: verification must fail on a checksum,
        // exactly like a full open would.
        let mut bytes = Vec::new();
        File::open(&path).unwrap().read_to_end(&mut bytes).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            verify_index(&path),
            Err(StoreError::ChecksumMismatch(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_wrong_version() {
        let path = temp_path("version");
        let database = sample_database();
        let index = build_index(&database, RankLayout::Bytes);
        save_index(&path, &database, &index).unwrap();
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.seek(SeekFrom::Start(8)).unwrap();
        file.write_all(&99u32.to_le_bytes()).unwrap();
        drop(file);
        assert!(matches!(
            open_index(&path),
            Err(StoreError::UnsupportedVersion(99))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_truncation_and_corruption() {
        let path = temp_path("truncate");
        let database = sample_database();
        let index = build_index(&database, RankLayout::Bytes);
        save_index(&path, &database, &index).unwrap();
        let mut bytes = Vec::new();
        File::open(&path).unwrap().read_to_end(&mut bytes).unwrap();

        // Truncated mid-payload.
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(matches!(
            open_index(&path),
            Err(StoreError::Truncated(_) | StoreError::ChecksumMismatch(_))
        ));

        // Flip one payload byte: some section's checksum must trip.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            open_index(&path),
            Err(StoreError::ChecksumMismatch(_))
        ));

        // Truncated inside the header.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            open_index(&path),
            Err(StoreError::Truncated("header"))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn retired_flat_checkpoint_kind_is_a_typed_corrupt_error() {
        // A checksum-valid file whose META claims the retired flat u32
        // checkpoint rows (kind 0) must come back as a typed error, never a
        // panic or a misread of the two-level sections.
        let path = temp_path("flat-kind");
        let database = sample_database();
        let index = build_index(&database, RankLayout::Auto);
        save_index(&path, &database, &index).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let slot = (0..sections)
            .map(|k| HEADER_LEN + k * TABLE_ENTRY_LEN)
            .find(|&at| {
                TableEntry::from_bytes(&bytes[at..at + TABLE_ENTRY_LEN])
                    .is_some_and(|entry| entry.id == section::META)
            })
            .expect("META entry");
        let mut entry = TableEntry::from_bytes(&bytes[slot..slot + TABLE_ENTRY_LEN]).unwrap();
        let payload = entry.offset as usize..(entry.offset + entry.len) as usize;
        let mut meta = Meta::from_bytes(&bytes[payload.clone()]).unwrap();
        assert_eq!(meta.checkpoint_kind, checkpoint_kind::TWO_LEVEL);
        meta.checkpoint_kind = 0;
        bytes[payload.clone()].copy_from_slice(&meta.to_bytes());
        // Re-stamp the checksum so the mutation reaches the META decoder.
        entry.checksum = checksum(&bytes[payload]);
        bytes[slot..slot + TABLE_ENTRY_LEN].copy_from_slice(&entry.to_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let opened = open_index(&path);
        assert!(
            matches!(&opened, Err(StoreError::Corrupt(why)) if why.contains("checkpoint kind")),
            "{:?}",
            opened.err()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_rejects_mismatched_pair() {
        let path = temp_path("mismatch");
        let database = sample_database();
        let other = SequenceDatabase::from_sequences(
            Alphabet::Dna,
            [Sequence::from_ascii(Alphabet::Dna, b"TTTT").unwrap()],
        );
        let index = build_index(&other, RankLayout::Bytes);
        assert!(matches!(
            save_index(&path, &database, &index),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let missing = StoreError::MissingSection(section::TEXT);
        assert!(missing.to_string().contains("missing section"));
        assert!(StoreError::BadMagic.to_string().contains("magic"));
    }
}
