//! Single-file persistence for ALAE indexed databases.
//!
//! [`save_index`] serializes a [`SequenceDatabase`] together with the
//! [`TextIndex`] built over it — record table, BWT storage, exception
//! lists, sampled-row bits and packed suffix-array samples — into one
//! checksummed little-endian file (format in [`mod@format`]).
//! [`open_index`] reopens it **without rebuilding the suffix array or the
//! BWT**.  It reads every section once with positioned reads, checksumming
//! each and decoding the integer sections into owned vectors, and only
//! then maps the file: in the byte layout the BWT storage is served as a
//! zero-copy view of the mapping.
//!
//! What is *not* stored, by design:
//!
//! * **The text** — the FM-index is a self-index: one LF walk from the
//!   sentinel's row spells it ([`FmIndex::derive_text`]).  The opened
//!   database derives it the first time something reads it, once, and
//!   checks it against the record table.
//! * **The checkpoint rows and the C array** — functions of the BWT,
//!   counted from it in one pass at open by the same code the build runs,
//!   so a file cannot hold rows that disagree with its BWT.
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
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use alae_bioseq::{Alphabet, SequenceDatabase, SharedBytes};
use alae_suffix::bitvec::RankBitVec;
use alae_suffix::fm_index::{FmIndex, SA_SAMPLE_RATE};
use alae_suffix::rank::OccTable;
use alae_suffix::{StorageData, StorageDataRef, TextIndex};

use format::{
    alphabet_tag, checksum, section, storage_kind, Checksum, Meta, TableEntry, Word, ALIGN,
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
/// [`TextIndex::new`] comes to be); a pair whose lengths or code counts
/// differ is refused.
pub fn save_index(
    path: &Path,
    database: &SequenceDatabase,
    index: &TextIndex,
) -> Result<(), StoreError> {
    if database.text_len() != index.len() {
        return Err(StoreError::Corrupt(format!(
            "index covers {} positions, the database text holds {}",
            index.len(),
            database.text_len()
        )));
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
    };

    let meta = Meta {
        alphabet: match database.alphabet() {
            Alphabet::Dna => alphabet_tag::DNA,
            Alphabet::Protein => alphabet_tag::PROTEIN,
        },
        code_count: index.code_count() as u64,
        text_len: index.len() as u64,
        record_count: database.record_count() as u64,
        sample_rate: SA_SAMPLE_RATE as u64,
        sampled_bits: fm.sampled_rows().len() as u64,
        storage_kind: occ_kind,
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
    ];
    sections.extend(occ_sections);
    sections.push((
        section::SAMPLED_WORDS,
        format::encode_u64s(fm.sampled_rows().words()),
    ));
    sections.push((
        section::PACKED_SAMPLES,
        format::encode_u64s(fm.samples().words()),
    ));

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

fn corrupt(why: impl Into<String>) -> StoreError {
    StoreError::Corrupt(why.into())
}

/// Bytes per positioned read of the open pass: a multiple of every element
/// width, so each read but a section's last ends on an element boundary.
const READ_CHUNK: usize = 64 * 1024;

/// The one read pass over an index file's sections, shared by
/// [`open_index`] and [`verify_index`].  Each section is read once with
/// positioned reads through one reused buffer, checksummed as it streams
/// and, for an integer section, decoded straight into its vector.  Callers
/// ask for sections by id, so nothing depends on the order of the table;
/// [`SectionReader::finish`] then checksums the sections nobody asked for.
/// Nothing here maps the file.
struct SectionReader {
    file: File,
    file_bytes: u64,
    entries: Vec<TableEntry>,
    /// Parallel to `entries`: whether the pass has read that section.
    read: Vec<bool>,
    buf: Vec<u8>,
}

impl SectionReader {
    /// Open `path` and parse its header and section table: magic, version,
    /// and every section's range inside the file.
    fn open(path: &Path) -> Result<Self, StoreError> {
        let mut file = File::open(path)?;
        let file_bytes = file.metadata()?.len();
        if file_bytes < HEADER_LEN as u64 {
            return Err(StoreError::Truncated("header"));
        }
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header)?;
        if header[0..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let count = u32::from_le_bytes([header[12], header[13], header[14], header[15]]) as usize;
        if count > 1024 {
            return Err(corrupt(format!("implausible section count {count}")));
        }
        let mut table = vec![0u8; count * TABLE_ENTRY_LEN];
        if file_bytes < (HEADER_LEN + table.len()) as u64 {
            return Err(StoreError::Truncated("section table"));
        }
        file.read_exact(&mut table)?;
        let mut entries: Vec<TableEntry> = Vec::with_capacity(count);
        for slot in table.chunks_exact(TABLE_ENTRY_LEN) {
            let entry =
                TableEntry::from_bytes(slot).ok_or(StoreError::Truncated("section table entry"))?;
            let end = entry
                .offset
                .checked_add(entry.len)
                .ok_or_else(|| corrupt("section range overflows"))?;
            if end > file_bytes {
                return Err(StoreError::Truncated("section payload"));
            }
            if entries.iter().any(|e| e.id == entry.id) {
                return Err(corrupt(format!("duplicate section {}", entry.id)));
            }
            entries.push(entry);
        }
        Ok(Self {
            file,
            file_bytes,
            read: vec![false; entries.len()],
            entries,
            buf: vec![0; READ_CHUNK],
        })
    }

    /// The position of section `id` in the table.
    fn slot(&self, id: u32) -> Result<usize, StoreError> {
        self.entries
            .iter()
            .position(|e| e.id == id)
            .ok_or(StoreError::MissingSection(id))
    }

    /// The table entry of section `id`.
    fn entry(&self, id: u32) -> Result<TableEntry, StoreError> {
        Ok(self.entries[self.slot(id)?])
    }

    /// Read the section in table slot `k` once, handing each piece to
    /// `sink`, and check the pieces against the table's checksum.
    fn read_slot(&mut self, k: usize, mut sink: impl FnMut(&[u8])) -> Result<(), StoreError> {
        let entry = self.entries[k];
        self.read[k] = true;
        self.file.seek(SeekFrom::Start(entry.offset))?;
        let mut hash = Checksum::default();
        let mut left = entry.len;
        while left > 0 {
            let piece = &mut self.buf[..left.min(READ_CHUNK as u64) as usize];
            self.file.read_exact(piece)?;
            hash.update(piece);
            sink(piece);
            left -= piece.len() as u64;
        }
        if hash.finish() != entry.checksum {
            return Err(StoreError::ChecksumMismatch(entry.id));
        }
        Ok(())
    }

    /// Read section `id` (see [`Self::read_slot`]).
    fn read(&mut self, id: u32, sink: impl FnMut(&[u8])) -> Result<(), StoreError> {
        let k = self.slot(id)?;
        self.read_slot(k, sink)
    }

    /// Decode the integer section `id` (called `name` in errors) straight
    /// into its vector.
    fn words<W: Word>(&mut self, id: u32, name: &str) -> Result<Vec<W>, StoreError> {
        let len = self.entry(id)?.len;
        if !len.is_multiple_of(W::WIDTH as u64) {
            return Err(corrupt(format!("ragged {name} section")));
        }
        let mut words = Vec::with_capacity((len / W::WIDTH as u64) as usize);
        self.read(id, |piece| format::decode_into(piece, &mut words))?;
        Ok(words)
    }

    /// A `u64` section decoded as `usize`s.
    fn usizes(&mut self, id: u32, name: &str) -> Result<Vec<usize>, StoreError> {
        format::to_usizes(self.words(id, name)?)
            .ok_or_else(|| corrupt(format!("{name} value overflows")))
    }

    /// Checksum every section not read yet: ids this build does not know,
    /// and sections the file's storage kind does not use.
    fn finish(&mut self) -> Result<(), StoreError> {
        for k in 0..self.entries.len() {
            if !self.read[k] {
                self.read_slot(k, |_| {})?;
            }
        }
        Ok(())
    }
}

/// What both [`open_index`] and [`verify_index`] read first: the metadata
/// and the record table, checked against each other.
struct Front {
    meta: Meta,
    alphabet: Alphabet,
    names: Vec<Arc<str>>,
    starts: Vec<usize>,
    lengths: Vec<usize>,
}

fn read_front(reader: &mut SectionReader) -> Result<Front, StoreError> {
    let meta = Meta::from_fields(&reader.words::<u64>(section::META, "META")?)
        .ok_or_else(|| corrupt("malformed META section"))?;
    let alphabet = match meta.alphabet {
        alphabet_tag::DNA => Alphabet::Dna,
        alphabet_tag::PROTEIN => Alphabet::Protein,
        other => return Err(corrupt(format!("unknown alphabet tag {other}"))),
    };
    let record_count =
        usize::try_from(meta.record_count).map_err(|_| corrupt("record_count overflows"))?;
    let name_offsets: Vec<u32> = reader.words(section::NAME_OFFSETS, "NAME_OFFSETS")?;
    if name_offsets.len().checked_sub(1) != Some(record_count) {
        return Err(corrupt(format!(
            "NAME_OFFSETS has {} entries for {record_count} records",
            name_offsets.len()
        )));
    }
    let names_blob: Vec<u8> = reader.words(section::NAMES_BLOB, "NAMES_BLOB")?;
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
    let starts = reader.usizes(section::STARTS, "STARTS")?;
    let lengths = reader.usizes(section::LENGTHS, "LENGTHS")?;

    // The text the record table describes.
    let text_len =
        SequenceDatabase::table_text_len(&names, &starts, &lengths).map_err(StoreError::Corrupt)?;
    if meta.text_len != text_len as u64 {
        let letters = text_len - record_count.saturating_sub(1);
        return Err(corrupt(format!(
            "META text_len is {}, the record table's {letters} letters in {record_count} \
             records make {text_len}",
            meta.text_len
        )));
    }
    Ok(Front {
        meta,
        alphabet,
        names,
        starts,
        lengths,
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
    /// Concatenated text length recorded in the metadata.
    pub text_len: u64,
    /// Record count recorded in the metadata.
    pub record_count: u64,
}

/// Verify an index file without building or mapping anything.
///
/// Runs the read pass of [`open_index`]: the magic, version and section
/// table, **every** section checksum, the metadata section's shape, and
/// the record table (and it against `META.text_len`).  It refuses what
/// that pass refuses, with the same errors; open goes on to check the
/// structures it assembles.
pub fn verify_index(path: &Path) -> Result<IndexSummary, StoreError> {
    let mut reader = SectionReader::open(path)?;
    let front = read_front(&mut reader)?;
    reader.finish()?;
    Ok(IndexSummary {
        file_bytes: reader.file_bytes,
        sections: reader.entries.len(),
        text_len: front.meta.text_len,
        record_count: front.meta.record_count,
    })
}

/// Reopen an index saved by [`save_index`].
///
/// Builds no suffix array and no BWT: the BWT and the suffix-array samples
/// come straight from the file.  What the BWT determines is computed from
/// it in one counting pass, by the code the build runs: the checkpoint
/// rows, which range-checks every stored code on the way
/// ([`OccTable::from_parts`]), and the C array.  So are the cheap
/// directories (bit-vector ranks, exception block starts).  Beyond the
/// read pass, open checks the FM-index against itself and the record
/// table: one sentinel, the sampled rows and packed samples against the
/// one sampling rate ([`FmIndex::from_parts`]), and one separator per
/// record boundary.
///
/// The file is read once with positioned reads (see [`verify_index`]) and
/// mapped only after every section has checked out.  The integer sections
/// are decoded as they are read; `OCC_BYTES` is served as a view of the
/// mapping.  The file holds no text: the database derives it from the
/// index with one LF walk on its first read (Smith–Waterman or
/// BLAST-like), and checks it against the record table; ALAE, BWT-SW and
/// hit resolution never read it.
pub fn open_index(path: &Path) -> Result<OpenedIndex, StoreError> {
    let mut reader = SectionReader::open(path)?;
    let Front {
        meta,
        alphabet,
        names,
        starts,
        lengths,
    } = read_front(&mut reader)?;
    let code_count =
        usize::try_from(meta.code_count).map_err(|_| corrupt("code_count overflows"))?;
    if code_count != alphabet.code_count() {
        return Err(corrupt(format!(
            "code_count {code_count} does not match alphabet {alphabet:?}"
        )));
    }
    let text_len = usize::try_from(meta.text_len).map_err(|_| corrupt("text_len overflows"))?;
    if meta.sample_rate != SA_SAMPLE_RATE as u64 {
        return Err(corrupt(format!(
            "sample_rate {} is not {SA_SAMPLE_RATE}, the one rate an index samples at",
            meta.sample_rate
        )));
    }
    let sampled_bits =
        usize::try_from(meta.sampled_bits).map_err(|_| corrupt("sampled_bits overflows"))?;

    // --- Occurrence table sections ------------------------------------------
    // Byte storage is a view of the mapping; `finish` checksums it.
    let packed = match meta.storage_kind {
        storage_kind::BYTES => None,
        storage_kind::PACKED_DNA => Some(StorageData::PackedDna {
            words: reader.words(section::OCC_WORDS, "OCC_WORDS")?,
            exc_pos: reader.words(section::EXC_POS, "EXC_POS")?,
            exc_code: reader.words(section::EXC_CODE, "EXC_CODE")?,
        }),
        other => {
            return Err(corrupt(format!(
                "unsupported storage kind {other} (only bytes, kind {}, and packed DNA, \
                 kind {}, exist; kind 2 is retired)",
                storage_kind::BYTES,
                storage_kind::PACKED_DNA
            )))
        }
    };
    let sampled_words = reader.words(section::SAMPLED_WORDS, "SAMPLED_WORDS")?;
    let sample_words = reader.words(section::PACKED_SAMPLES, "PACKED_SAMPLES")?;
    reader.finish()?;

    // Every section has checked out: only now map the file.
    let buffer = Arc::new(FileBuffer::map(&reader.file, reader.file_bytes)?);
    let mapped = buffer.is_mapped();

    // --- Occurrence table -------------------------------------------------
    // The FM-index covers the reversed text plus its sentinel, with all
    // codes shifted up by one: `text_len + 1` rows, `code_count + 1` codes.
    // Byte storage is a view of the mapping, which the counting pass reads
    // once.
    let storage = match packed {
        Some(packed) => packed,
        None => {
            let entry = reader.entry(section::OCC_BYTES)?;
            let owner: Arc<dyn AsRef<[u8]> + Send + Sync> = buffer.clone();
            let (offset, len) = (entry.offset as usize, entry.len as usize);
            StorageData::Bytes(SharedBytes::from_owner(owner, offset, len))
        }
    };
    let occ =
        OccTable::from_parts(text_len + 1, code_count + 1, storage).map_err(StoreError::Corrupt)?;

    // --- FM-index ---------------------------------------------------------
    if sampled_words.len() != sampled_bits.div_ceil(64) {
        return Err(corrupt(format!(
            "SAMPLED_WORDS has {} words for {sampled_bits} bits",
            sampled_words.len()
        )));
    }
    let sampled_rows = RankBitVec::from_words(sampled_bits, sampled_words);
    let fm = FmIndex::from_parts(text_len, code_count, occ, sampled_rows, sample_words)
        .map_err(StoreError::Corrupt)?;
    // Shifted code 1, the separator, sits once between neighbouring records.
    let separators = fm.c_array()[2] - fm.c_array()[1];
    let boundaries = meta.record_count.saturating_sub(1);
    if separators as u64 != boundaries {
        return Err(corrupt(format!(
            "the BWT holds {separators} separator codes, {} records need {boundaries}",
            meta.record_count
        )));
    }

    // --- The database, whose text the index spells on first read ----------
    // An opened index keeps its file mapped while it lives, whatever its
    // layout.  The DNA layout views no section of the mapping, so the
    // producer holds it: `mapped` and the resident-page readouts then
    // describe one mapping for both alphabets.
    let index = Arc::new(TextIndex::from_parts(fm));
    let walked = Arc::clone(&index);
    let database = SequenceDatabase::from_derived(alphabet, names, starts, lengths, move || {
        let _mapping = &buffer;
        walked.fm_index().derive_text()
    })
    .map_err(StoreError::Corrupt)?;
    Ok(OpenedIndex {
        database: Arc::new(database),
        index,
        mapped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alae_bioseq::Sequence;
    use alae_suffix::RankLayout;
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

    fn build_index(database: &SequenceDatabase) -> TextIndex {
        TextIndex::new(database.text(), database.alphabet().code_count())
    }

    #[test]
    fn round_trips_across_layouts() {
        let protein = SequenceDatabase::from_sequences(
            Alphabet::Protein,
            [
                Sequence::from_ascii_named(Alphabet::Protein, "chr1", b"MKTAYIAKQRQISFVKSHFSRQ")
                    .unwrap(),
                Sequence::from_ascii_named(Alphabet::Protein, "chr2", b"GIVEQCCTSICSLYQLENYCN")
                    .unwrap(),
            ],
        );
        for (tag, database, layout) in [
            ("packed", sample_database(), RankLayout::PackedDna),
            ("bytes", protein, RankLayout::Bytes),
        ] {
            let index = build_index(&database);
            assert_eq!(index.rank_layout(), layout);
            let path = temp_path(&format!("roundtrip-{tag}"));
            save_index(&path, &database, &index).unwrap();
            let opened = open_index(&path).unwrap();
            assert_eq!(opened.index.rank_layout(), layout);
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
        let index = build_index(&database);
        save_index(&path, &database, &index).unwrap();
        let opened = open_index(&path).unwrap();
        #[cfg(unix)]
        assert!(opened.mapped);
        // Neither the database nor the index holds a text after open; the
        // database's first read derives it from the index.
        assert!(!opened.database.text_is_derived());
        assert_eq!(opened.index.len(), opened.database.text_len());
        assert_eq!(opened.database.text(), database.text());
        assert!(opened.database.text_is_derived());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn round_trips_restore_the_text_byte_for_byte() {
        // An empty record first and in the middle, and records that end
        // on and off a multiple of the sample rate.
        for alphabet in [Alphabet::Dna, Alphabet::Protein] {
            let rate = SA_SAMPLE_RATE;
            let lengths = [0, rate, 0, 5, 2 * rate + 1];
            let database = SequenceDatabase::from_sequences(
                alphabet,
                lengths.iter().enumerate().map(|(r, &len)| {
                    let codes = (0..len)
                        .map(|i| 1 + ((i * 5 + r) % alphabet.sigma()) as u8)
                        .collect();
                    Sequence::from_codes(alphabet, codes)
                }),
            );
            let path = temp_path(&format!("text-bytes-{alphabet:?}"));
            let index = build_index(&database);
            save_index(&path, &database, &index).unwrap();
            let saved = std::fs::read(&path).unwrap();
            let opened = open_index(&path).unwrap();
            assert!(!opened.database.text_is_derived());
            assert_eq!(opened.database.record_lengths(), &lengths);
            assert_eq!(opened.database.record_starts(), database.record_starts());
            assert_eq!(opened.database.text_len(), database.text_len());
            assert_eq!(opened.database.text(), database.text(), "{alphabet:?}");

            // Saving again, the built index or the opened one, writes the
            // same bytes.  (A served file is never rewritten in place, so
            // the saves go to a second path.)
            let again = temp_path(&format!("text-bytes-again-{alphabet:?}"));
            save_index(&again, &database, &index).unwrap();
            assert_eq!(std::fs::read(&again).unwrap(), saved);
            save_index(&again, &opened.database, &opened.index).unwrap();
            assert_eq!(std::fs::read(&again).unwrap(), saved);
            std::fs::remove_file(&again).unwrap();
            std::fs::remove_file(&path).unwrap();
        }
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
        let index = build_index(&database);
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
        // Versions 1 and 2 stored the text (as bytes, then packed), and
        // version 3 the checkpoint rows, the C array and `u32` samples: such
        // a file is rebuilt, never read, and so is one from a future
        // version.
        let path = temp_path("version");
        let database = sample_database();
        let index = build_index(&database);
        save_index(&path, &database, &index).unwrap();
        for version in [1u32, 2, 3, 99] {
            let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.seek(SeekFrom::Start(8)).unwrap();
            file.write_all(&version.to_le_bytes()).unwrap();
            drop(file);
            for result in [open_index(&path).err(), verify_index(&path).err()] {
                assert!(
                    matches!(result, Some(StoreError::UnsupportedVersion(v)) if v == version),
                    "{version}: {result:?}"
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_truncation_and_corruption() {
        let path = temp_path("truncate");
        let database = sample_database();
        let index = build_index(&database);
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

    /// The table slot and entry of section `id` in the file image `bytes`.
    fn section_entry(bytes: &[u8], id: u32) -> (usize, TableEntry) {
        let sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        (0..sections)
            .map(|k| HEADER_LEN + k * TABLE_ENTRY_LEN)
            .find_map(|at| {
                TableEntry::from_bytes(&bytes[at..at + TABLE_ENTRY_LEN])
                    .filter(|entry| entry.id == id)
                    .map(|entry| (at, entry))
            })
            .expect("section entry")
    }

    /// Re-stamp the checksum of the section at table `slot`, so that a
    /// mutation of its payload reaches the decoders.
    fn restamp(bytes: &mut [u8], slot: usize, entry: TableEntry) {
        let payload = entry.offset as usize..(entry.offset + entry.len) as usize;
        let stamped = TableEntry {
            checksum: checksum(&bytes[payload]),
            ..entry
        };
        bytes[slot..slot + TABLE_ENTRY_LEN].copy_from_slice(&stamped.to_bytes());
    }

    #[test]
    fn retired_storage_kind_is_a_typed_corrupt_error() {
        // A checksum-valid file whose META claims the retired nibble-packed
        // words (storage kind 2) must come back as a typed error, never a
        // panic or a misread of the sections that are there.
        let path = temp_path("retired-kinds");
        let database = sample_database();
        save_index(&path, &database, &build_index(&database)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let (slot, entry) = section_entry(&bytes, section::META);
        let payload = entry.offset as usize..(entry.offset + entry.len) as usize;
        let meta = Meta::from_bytes(&bytes[payload.clone()]).unwrap();
        assert_eq!(meta.storage_kind, storage_kind::PACKED_DNA);
        let retired = Meta {
            storage_kind: 2,
            ..meta
        };
        bytes[payload].copy_from_slice(&retired.to_bytes());
        restamp(&mut bytes, slot, entry);
        assert_open_refuses(&path, &bytes, "storage kind 2");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_bwt_byte_is_a_typed_corrupt_error() {
        // A checksum-valid protein file with one BWT byte at or above the
        // shifted code count must be refused at open: every rank scan
        // indexes a code-count-sized row by that byte, so the first query
        // would panic.
        let path = temp_path("bwt-byte-range");
        let database = SequenceDatabase::from_sequences(
            Alphabet::Protein,
            [Sequence::from_ascii(Alphabet::Protein, b"MKTAYIAKQRQISFVKSHFSRQLEERLG").unwrap()],
        );
        let index = build_index(&database);
        assert_eq!(index.rank_layout(), RankLayout::Bytes);
        save_index(&path, &database, &index).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let (slot, entry) = section_entry(&bytes, section::OCC_BYTES);
        bytes[entry.offset as usize + 3] = 0xFF;
        restamp(&mut bytes, slot, entry);
        std::fs::write(&path, &bytes).unwrap();
        let opened = open_index(&path);
        assert!(
            matches!(&opened, Err(StoreError::Corrupt(why)) if why.contains("code 255")),
            "{:?}",
            opened.err()
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// Write `bytes` to `path` and require a `Corrupt` error naming `why`
    /// from both the open and the pre-flight.
    fn assert_corrupt_from_open_and_verify(path: &Path, bytes: &[u8], why: &str) {
        std::fs::write(path, bytes).unwrap();
        let opened = open_index(path);
        assert!(
            matches!(&opened, Err(StoreError::Corrupt(msg)) if msg.contains(why)),
            "open, {why}: {:?}",
            opened.err()
        );
        let verified = verify_index(path);
        assert!(
            matches!(&verified, Err(StoreError::Corrupt(msg)) if msg.contains(why)),
            "verify, {why}: {verified:?}"
        );
    }

    fn protein_database(lengths: &[usize]) -> SequenceDatabase {
        SequenceDatabase::from_sequences(
            Alphabet::Protein,
            lengths.iter().enumerate().map(|(r, &len)| {
                let codes = (0..len).map(|i| 1 + ((i * 7 + r) % 20) as u8).collect();
                Sequence::from_codes(Alphabet::Protein, codes)
            }),
        )
    }

    #[test]
    fn meta_text_len_must_match_the_record_table() {
        let path = temp_path("text-len");
        let database = sample_database();
        save_index(&path, &database, &build_index(&database)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let (slot, entry) = section_entry(&bytes, section::META);
        let payload = entry.offset as usize..(entry.offset + entry.len) as usize;
        let meta = Meta::from_bytes(&bytes[payload.clone()]).unwrap();
        assert_eq!(meta.text_len, 32);
        let longer = Meta {
            text_len: 33,
            ..meta
        };
        bytes[payload].copy_from_slice(&longer.to_bytes());
        restamp(&mut bytes, slot, entry);
        assert_corrupt_from_open_and_verify(
            &path,
            &bytes,
            "META text_len is 33, the record table's 31 letters in 2 records make 32",
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sections_that_span_read_pieces_round_trip_and_are_checksummed() {
        // The pass reads each section in READ_CHUNK pieces: a protein file
        // whose BWT bytes span three pieces (an empty record among them)
        // must open to the same text, and a byte flipped in the second
        // piece must still fail the section's checksum.
        let path = temp_path("read-pieces");
        let database = protein_database(&[READ_CHUNK - 1, 0, READ_CHUNK + 4_464, 5]);
        save_index(&path, &database, &build_index(&database)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let (_, entry) = section_entry(&bytes, section::OCC_BYTES);
        assert!(entry.len as usize > 2 * READ_CHUNK);
        verify_index(&path).unwrap();
        let opened = open_index(&path).unwrap();
        assert_eq!(opened.database.record_count(), 4);
        assert_eq!(opened.database.text(), database.text());

        bytes[entry.offset as usize + READ_CHUNK + 100] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        for result in [open_index(&path).err(), verify_index(&path).err()] {
            assert!(
                matches!(result, Some(StoreError::ChecksumMismatch(id)) if id == section::OCC_BYTES),
                "{result:?}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A one-record DNA database of `len` letters.
    fn dna_database(len: usize) -> SequenceDatabase {
        let codes = (0..len)
            .map(|i| 1 + ((i * i + 3 * i) / 5 % 4) as u8)
            .collect();
        SequenceDatabase::from_sequences(
            Alphabet::Dna,
            [Sequence::from_codes(Alphabet::Dna, codes)],
        )
    }

    /// Write `bytes` to `path` and require `open` to refuse it with a
    /// `Corrupt` error naming `why`.  (The read pass alone cannot see these
    /// faults: `verify_index` assembles no FM-index.)
    fn assert_open_refuses(path: &Path, bytes: &[u8], why: &str) {
        std::fs::write(path, bytes).unwrap();
        let opened = open_index(path);
        assert!(
            matches!(&opened, Err(StoreError::Corrupt(msg)) if msg.contains(why)),
            "{why}: {:?}",
            opened.err()
        );
    }

    #[test]
    fn a_file_without_sampled_rows_is_a_typed_corrupt_error() {
        // No marked row and no sample: `locate` would walk LF forever
        // looking for a sampled row and the first query with a hit would
        // hang.
        let path = temp_path("no-samples");
        let database = dna_database(64);
        save_index(&path, &database, &build_index(&database)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let (slot, entry) = section_entry(&bytes, section::SAMPLED_WORDS);
        bytes[entry.offset as usize..(entry.offset + entry.len) as usize].fill(0);
        restamp(&mut bytes, slot, entry);
        let (slot, entry) = section_entry(&bytes, section::PACKED_SAMPLES);
        restamp(&mut bytes, slot, TableEntry { len: 0, ..entry });
        assert_open_refuses(&path, &bytes, "0 marked rows, a text of 64 has 5");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn packed_samples_that_disagree_with_the_text_are_typed_corrupt_errors() {
        // 1,000 letters: 63 stored samples (0, 16, …, 992; row 0's 1,000 is
        // implied) in 6-bit fields, 378 bits in six words.  A field above
        // ⌊1000/16⌋ = 62, a bit past the last field, and a section one
        // word short or long are each refused.
        let path = temp_path("packed-samples");
        let database = dna_database(1_000);
        let index = build_index(&database);
        let samples = index.fm_index().samples();
        assert_eq!((samples.len(), samples.width()), (63, 6));
        assert_eq!(samples.words().len(), 6);
        save_index(&path, &database, &index).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let (slot, entry) = section_entry(&pristine, section::PACKED_SAMPLES);
        assert_eq!(entry.len, 48);
        let word_at = |k: usize| entry.offset as usize + 8 * k;
        let edited = |edit: &dyn Fn(&mut u64), k: usize| {
            let mut bytes = pristine.clone();
            let at = word_at(k);
            let mut word = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            edit(&mut word);
            bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
            restamp(&mut bytes, slot, entry);
            bytes
        };
        // Field 0 set to 63: position 1,008, past the text.
        let bytes = edited(&|word| *word |= 0x3F, 0);
        assert_open_refuses(
            &path,
            &bytes,
            "holds position 1008, not below the text length 1000",
        );
        // Bit 378, the first past field 62, in the sixth word.
        let bytes = edited(&|word| *word |= 1 << (378 - 320), 5);
        assert_open_refuses(&path, &bytes, "bits past the 63 samples");
        // One word short, then one word long: the section's words with a
        // zero word after them, moved to the end of the file.
        let mut bytes = pristine.clone();
        restamp(&mut bytes, slot, TableEntry { len: 40, ..entry });
        assert_open_refuses(&path, &bytes, "5 sample words, a text of 1000 has 63");
        let mut bytes = pristine.clone();
        let moved = TableEntry {
            offset: bytes.len() as u64,
            len: 56,
            ..entry
        };
        bytes.extend_from_slice(&pristine[word_at(0)..word_at(6)]);
        bytes.extend_from_slice(&[0; 8]);
        restamp(&mut bytes, slot, moved);
        assert_open_refuses(&path, &bytes, "7 sample words, a text of 1000 has 63");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn another_sample_rate_is_a_typed_corrupt_error() {
        let path = temp_path("sample-rate");
        let database = dna_database(64);
        save_index(&path, &database, &build_index(&database)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let (slot, entry) = section_entry(&bytes, section::META);
        let payload = entry.offset as usize..(entry.offset + entry.len) as usize;
        let meta = Meta::from_bytes(&bytes[payload.clone()]).unwrap();
        assert_eq!(meta.sample_rate, SA_SAMPLE_RATE as u64);
        let other = Meta {
            sample_rate: 8,
            ..meta
        };
        bytes[payload].copy_from_slice(&other.to_bytes());
        restamp(&mut bytes, slot, entry);
        assert_open_refuses(&path, &bytes, "sample_rate 8 is not 16");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_second_separator_in_the_bwt_is_a_typed_corrupt_error() {
        // One BWT letter turned into the separator: open counts the rows
        // and the C array from the BWT, so they agree with it, but a
        // one-record text holds no separator, so its LF walk could not
        // match the records.
        let path = temp_path("second-separator");
        let database = protein_database(&[300]);
        save_index(&path, &database, &build_index(&database)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let (slot, entry) = section_entry(&bytes, section::OCC_BYTES);
        let at = (entry.offset + entry.len - 1) as usize;
        assert!(bytes[at] >= 2, "the last row holds a letter");
        bytes[at] = 1;
        restamp(&mut bytes, slot, entry);
        assert_open_refuses(
            &path,
            &bytes,
            "the BWT holds 1 separator codes, 1 records need 0",
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_does_not_depend_on_the_table_order() {
        // Reverse the section table: the payloads stay where they are, so
        // the file must open to the same index.
        let path = temp_path("table-order");
        let database = sample_database();
        let index = build_index(&database);
        save_index(&path, &database, &index).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let table = HEADER_LEN..HEADER_LEN + sections * TABLE_ENTRY_LEN;
        let mut slots: Vec<Vec<u8>> = bytes[table.clone()]
            .chunks(TABLE_ENTRY_LEN)
            .map(<[u8]>::to_vec)
            .collect();
        slots.reverse();
        bytes[table].copy_from_slice(&slots.concat());
        std::fs::write(&path, &bytes).unwrap();
        verify_index(&path).unwrap();
        let opened = open_index(&path).unwrap();
        assert_eq!(opened.database.text(), database.text());
        assert_eq!(
            opened.index.find_occurrences(&[2, 1, 4]),
            index.find_occurrences(&[2, 1, 4]),
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = temp_path("never-written");
        assert!(matches!(open_index(&path), Err(StoreError::Io(_))));
        assert!(matches!(verify_index(&path), Err(StoreError::Io(_))));
    }

    #[test]
    fn save_rejects_mismatched_pair() {
        let path = temp_path("mismatch");
        let database = sample_database();
        let other = SequenceDatabase::from_sequences(
            Alphabet::Dna,
            [Sequence::from_ascii(Alphabet::Dna, b"TTTT").unwrap()],
        );
        let index = build_index(&other);
        assert!(matches!(
            save_index(&path, &database, &index),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let missing = StoreError::MissingSection(section::PACKED_SAMPLES);
        assert!(missing.to_string().contains("missing section"));
        assert!(StoreError::BadMagic.to_string().contains("magic"));
    }
}
