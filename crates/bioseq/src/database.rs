//! Concatenated sequence databases.
//!
//! Section 2.2 of the paper: "given all the sequences T1, …, Tn in the
//! database, we concatenate them into a single sequence T.  A local alignment
//! query is then performed directly on the sequence T."  The concatenation
//! inserts the separator code between records so that no alignment can cross
//! a record boundary (the separator scores a prohibitive penalty in every
//! scoring scheme).

use crate::alphabet::{Alphabet, SEPARATOR_CODE};
use crate::sequence::Sequence;
use crate::shared::SharedBytes;
use std::sync::Arc;

/// Location of a text position inside the original database records.
///
/// Carries the record name directly (shared, not copied) so callers never
/// need the `locate` + `record_name` double lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordLocation {
    /// Index of the record in insertion order.
    pub record: usize,
    /// Name of that record.
    pub name: Arc<str>,
    /// 1-based offset of the position inside that record.
    pub offset: usize,
}

/// An inclusive span of text positions resolved into a single record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSpan {
    /// Index of the record in insertion order.
    pub record: usize,
    /// Name of that record.
    pub name: Arc<str>,
    /// 1-based offset of the first position inside the record.
    pub start: usize,
    /// 1-based offset of the last position inside the record (inclusive).
    pub end: usize,
}

impl RecordSpan {
    /// Number of characters covered by the span (zero for a degenerate
    /// caller-constructed span with `end < start`; `locate_range` never
    /// returns one).
    pub fn len(&self) -> usize {
        (self.end + 1).saturating_sub(self.start)
    }

    /// True only for a degenerate caller-constructed span with
    /// `end < start`.
    pub fn is_empty(&self) -> bool {
        self.end < self.start
    }
}

/// A collection of sequences concatenated into one searchable text.
///
/// The concatenated text is a [`SharedBytes`] view, so cloning the
/// database is cheap on the text side.  It is the one copy of the text: a
/// text index reads it while it builds and keeps none.  A database opened
/// from an on-disk index has no stored text: it derives it from the index
/// on first read (see [`SequenceDatabase::from_derived`]).
#[derive(Debug, Clone)]
pub struct SequenceDatabase {
    alphabet: Alphabet,
    /// Concatenated codes: `rec1 $ rec2 $ … $ recK` (no trailing separator).
    text: SharedBytes,
    /// Names of the records, parallel to `starts` (shared so locations can
    /// carry them without copying).
    names: Vec<Arc<str>>,
    /// 0-based start offset of each record inside `text`.
    starts: Vec<usize>,
    /// Lengths of each record.
    lengths: Vec<usize>,
}

impl SequenceDatabase {
    /// Create an empty database over the given alphabet.
    pub fn new(alphabet: Alphabet) -> Self {
        Self {
            alphabet,
            text: SharedBytes::new(),
            names: Vec::new(),
            starts: Vec::new(),
            lengths: Vec::new(),
        }
    }

    /// Reassemble a database whose text `derive` produces (the
    /// `alae-store` open path: one LF walk of the index, which stores no
    /// text).  `derive` runs the first time something reads the text and
    /// never before; constructing, cloning, `Debug` and every record-table
    /// query read nothing.
    ///
    /// Validates the record table (contiguous records, one separator
    /// between neighbours).  The derived text is checked against it before
    /// anyone sees it: its length, and a separator exactly at each record
    /// boundary and nowhere else.
    ///
    /// # Panics
    ///
    /// The first read of the text panics, naming a corrupt index, when
    /// `derive` fails or its text fails that check.
    pub fn from_derived(
        alphabet: Alphabet,
        names: Vec<Arc<str>>,
        starts: Vec<usize>,
        lengths: Vec<usize>,
        derive: impl Fn() -> Result<Vec<u8>, String> + Send + Sync + 'static,
    ) -> Result<Self, String> {
        let text_len = Self::table_text_len(&names, &starts, &lengths)?;
        let boundaries: Vec<usize> = starts.iter().skip(1).map(|&start| start - 1).collect();
        let text = SharedBytes::derived(text_len, move || {
            derive()
                .and_then(|text| separators_at(&text, text_len, &boundaries).map(|()| text))
                .unwrap_or_else(|why| panic!("corrupt index: {why}"))
        });
        Ok(Self {
            alphabet,
            text,
            names,
            starts,
            lengths,
        })
    }

    /// The text length a record table describes, once it is checked:
    /// one name, start and length per record, records back to back from 0
    /// with one separator between neighbours.
    pub fn table_text_len(
        names: &[Arc<str>],
        starts: &[usize],
        lengths: &[usize],
    ) -> Result<usize, String> {
        if names.len() != starts.len() || names.len() != lengths.len() {
            return Err(format!(
                "record table arity mismatch: {} names, {} starts, {} lengths",
                names.len(),
                starts.len(),
                lengths.len()
            ));
        }
        let mut expected_start = 0usize;
        for (record, (&start, &len)) in starts.iter().zip(lengths).enumerate() {
            if start != expected_start {
                return Err(format!(
                    "record {record} starts at {start}, expected {expected_start}"
                ));
            }
            let separator = usize::from(record + 1 < starts.len());
            expected_start = start
                .checked_add(len)
                .and_then(|end| end.checked_add(separator))
                .ok_or_else(|| format!("record {record} overruns the address space"))?;
        }
        Ok(expected_start)
    }

    /// Build a database from a list of sequences.
    pub fn from_sequences<I>(alphabet: Alphabet, sequences: I) -> Self
    where
        I: IntoIterator<Item = Sequence>,
    {
        let mut db = Self::new(alphabet);
        for seq in sequences {
            db.push(seq);
        }
        db
    }

    /// Append one record.
    pub fn push(&mut self, sequence: Sequence) {
        assert_eq!(
            sequence.alphabet(),
            self.alphabet,
            "record alphabet must match database alphabet"
        );
        // While the database is being built the text is unshared, so the
        // mutation happens in place; pushing after the text has been shared
        // with an index copies once (and the copy is then the new canonical
        // text).  A separator follows every record but the last, empty
        // records included.
        let first = self.starts.is_empty();
        let start = self.text.with_mut(|text| {
            if !first {
                text.push(SEPARATOR_CODE);
            }
            let start = text.len();
            text.extend_from_slice(sequence.codes());
            start
        });
        self.starts.push(start);
        self.lengths.push(sequence.len());
        self.names.push(Arc::from(sequence.name()));
    }

    /// The alphabet of the database.
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// Number of records.
    pub fn record_count(&self) -> usize {
        self.starts.len()
    }

    /// Name of record `record`.
    pub fn record_name(&self, record: usize) -> &str {
        &self.names[record]
    }

    /// Length of record `record`.
    pub fn record_len(&self, record: usize) -> usize {
        self.lengths[record]
    }

    /// The concatenated text (codes, including separators).
    pub fn text(&self) -> &[u8] {
        &self.text
    }

    /// True once this database's text has been derived from an index;
    /// false for a built database, and for an opened one until something
    /// reads its text.  For tests that check which paths derive an opened
    /// text; nothing else should branch on it.
    #[doc(hidden)]
    pub fn text_is_derived(&self) -> bool {
        self.text.is_derived()
    }

    /// Record names in insertion order (serialization support).
    pub fn record_names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// 0-based start offset of each record inside the text.
    pub fn record_starts(&self) -> &[usize] {
        &self.starts
    }

    /// Length of each record.
    pub fn record_lengths(&self) -> &[usize] {
        &self.lengths
    }

    /// Length of the concatenated text `n` (including separators).
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// Total number of real characters (excluding separators).
    pub fn character_count(&self) -> usize {
        self.lengths.iter().sum()
    }

    /// Map a 0-based position in the concatenated text to its record, the
    /// record's name and the 1-based offset inside it, or `None` if the
    /// position is a separator.
    pub fn locate(&self, position: usize) -> Option<RecordLocation> {
        let (record, offset) = self.locate_raw(position)?;
        Some(RecordLocation {
            record,
            name: self.names[record].clone(),
            offset: offset + 1,
        })
    }

    /// Map an inclusive 0-based span `[start, end]` of the concatenated text
    /// to the record containing it and the 1-based in-record span.
    ///
    /// Returns `None` when either endpoint falls on a separator (or outside
    /// the text), or when the endpoints land in different records — a span
    /// crossing a record boundary is not a valid alignment location.
    pub fn locate_range(&self, start: usize, end: usize) -> Option<RecordSpan> {
        if start > end {
            return None;
        }
        let (record, start_offset) = self.locate_raw(start)?;
        let (end_record, end_offset) = self.locate_raw(end)?;
        if record != end_record {
            return None;
        }
        Some(RecordSpan {
            record,
            name: self.names[record].clone(),
            start: start_offset + 1,
            end: end_offset + 1,
        })
    }

    /// Shared lookup: record index and 0-based in-record offset.
    ///
    /// Answered from the record table alone, so resolving a hit never reads
    /// (or, for an opened index, faults in) the text: a position at or past
    /// its record's length is the separator after that record.
    fn locate_raw(&self, position: usize) -> Option<(usize, usize)> {
        if position >= self.text.len() {
            return None;
        }
        // Binary search for the last record starting at or before `position`.
        let record = match self.starts.binary_search(&position) {
            Ok(idx) => idx,
            Err(0) => return None,
            Err(idx) => idx - 1,
        };
        let offset = position - self.starts[record];
        (offset < self.lengths[record]).then_some((record, offset))
    }

    /// Decode the concatenated text back to ASCII (separators become `$`).
    pub fn to_ascii(&self) -> String {
        self.alphabet.decode(&self.text)
    }
}

/// Check a derived `text` against the record table: `text_len` codes, with
/// a separator at each of the (ascending) `boundaries` and nowhere else.
fn separators_at(text: &[u8], text_len: usize, boundaries: &[usize]) -> Result<(), String> {
    if text.len() != text_len {
        return Err(format!(
            "the derived text holds {} codes, the record table {text_len}",
            text.len()
        ));
    }
    if let Some(&at) = boundaries.iter().find(|&&at| text[at] != SEPARATOR_CODE) {
        return Err(format!("no separator at record boundary {at}"));
    }
    let separators = text.iter().filter(|&&code| code == SEPARATOR_CODE).count();
    if separators != boundaries.len() {
        return Err(format!(
            "the derived text holds {separators} separators, the record table places {}",
            boundaries.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_two_records() -> SequenceDatabase {
        let a = Sequence::from_ascii_named(Alphabet::Dna, "r1", b"ACGT").unwrap();
        let b = Sequence::from_ascii_named(Alphabet::Dna, "r2", b"GGC").unwrap();
        SequenceDatabase::from_sequences(Alphabet::Dna, [a, b])
    }

    #[test]
    fn concatenation_inserts_separator() {
        let db = db_two_records();
        assert_eq!(db.record_count(), 2);
        assert_eq!(db.text_len(), 4 + 1 + 3);
        assert_eq!(db.character_count(), 7);
        assert_eq!(db.to_ascii(), "ACGT$GGC");
    }

    #[test]
    fn locate_maps_back_to_records() {
        let db = db_two_records();
        assert_eq!(
            db.locate(0),
            Some(RecordLocation {
                record: 0,
                name: "r1".into(),
                offset: 1
            })
        );
        assert_eq!(
            db.locate(3),
            Some(RecordLocation {
                record: 0,
                name: "r1".into(),
                offset: 4
            })
        );
        // Separator position.
        assert_eq!(db.locate(4), None);
        assert_eq!(
            db.locate(5),
            Some(RecordLocation {
                record: 1,
                name: "r2".into(),
                offset: 1
            })
        );
        assert_eq!(
            db.locate(7),
            Some(RecordLocation {
                record: 1,
                name: "r2".into(),
                offset: 3
            })
        );
        assert_eq!(db.locate(8), None);
    }

    #[test]
    fn locate_range_resolves_in_record_spans() {
        let db = db_two_records(); // ACGT$GGC
        assert_eq!(
            db.locate_range(1, 3),
            Some(RecordSpan {
                record: 0,
                name: "r1".into(),
                start: 2,
                end: 4
            })
        );
        let span = db.locate_range(5, 7).unwrap();
        assert_eq!((span.record, &*span.name), (1, "r2"));
        assert_eq!((span.start, span.end), (1, 3));
        assert_eq!(span.len(), 3);
        assert!(!span.is_empty());
        // Single-position spans work.
        assert_eq!(db.locate_range(6, 6).unwrap().len(), 1);
        // Separator endpoints, cross-record spans, reversed and out-of-range
        // spans all fail.
        assert_eq!(db.locate_range(4, 6), None);
        assert_eq!(db.locate_range(3, 4), None);
        assert_eq!(db.locate_range(3, 5), None);
        assert_eq!(db.locate_range(5, 3), None);
        assert_eq!(db.locate_range(7, 8), None);

        // Every span of a three-record database, separators and the end of
        // the text included, against a reference that reads the bytes.
        let db = SequenceDatabase::from_sequences(
            Alphabet::Dna,
            [
                Sequence::from_ascii_named(Alphabet::Dna, "a", b"ACG").unwrap(),
                Sequence::from_ascii_named(Alphabet::Dna, "b", b"T").unwrap(),
                Sequence::from_ascii_named(Alphabet::Dna, "c", b"GGCA").unwrap(),
            ],
        );
        assert_eq!(db.to_ascii(), "ACG$T$GGCA");
        let by_bytes = |position: usize| -> Option<(usize, usize)> {
            if *db.text().get(position)? == SEPARATOR_CODE {
                return None;
            }
            let before = &db.text()[..position];
            let record = before
                .iter()
                .filter(|&&code| code == SEPARATOR_CODE)
                .count();
            let first = before
                .iter()
                .rposition(|&code| code == SEPARATOR_CODE)
                .map_or(0, |separator| separator + 1);
            Some((record, position - first))
        };
        let n = db.text_len();
        for start in 0..=n + 1 {
            for end in 0..=n + 1 {
                let expected = match (by_bytes(start), by_bytes(end)) {
                    (Some((record, first)), Some((end_record, last)))
                        if start <= end && record == end_record =>
                    {
                        Some(RecordSpan {
                            record,
                            name: db.record_names()[record].clone(),
                            start: first + 1,
                            end: last + 1,
                        })
                    }
                    _ => None,
                };
                assert_eq!(
                    db.locate_range(start, end),
                    expected,
                    "span {start}..={end}"
                );
            }
            let expected = by_bytes(start).map(|(record, offset)| RecordLocation {
                record,
                name: db.record_names()[record].clone(),
                offset: offset + 1,
            });
            assert_eq!(db.locate(start), expected, "position {start}");
        }
    }

    #[test]
    fn record_metadata() {
        let db = db_two_records();
        assert_eq!(db.record_name(0), "r1");
        assert_eq!(db.record_name(1), "r2");
        assert_eq!(db.record_len(0), 4);
        assert_eq!(db.record_len(1), 3);
        assert_eq!(db.alphabet(), Alphabet::Dna);
    }

    #[test]
    fn single_record_has_no_separator() {
        let a = Sequence::from_ascii(Alphabet::Dna, b"ACGT").unwrap();
        let db = SequenceDatabase::from_sequences(Alphabet::Dna, [a]);
        assert_eq!(db.text_len(), 4);
        assert_eq!(db.to_ascii(), "ACGT");
    }

    #[test]
    fn empty_records_keep_their_separators() {
        let db = SequenceDatabase::from_sequences(
            Alphabet::Dna,
            ["", "AC", "", "G"].map(|s| Sequence::from_ascii(Alphabet::Dna, s.as_bytes()).unwrap()),
        );
        assert_eq!(db.to_ascii(), "$AC$$G");
        assert_eq!(db.record_starts(), &[0, 1, 4, 5]);
        assert_eq!(db.locate(0), None);
        assert_eq!(db.locate(1).unwrap().record, 1);
        assert_eq!(db.locate(5).unwrap().record, 3);
        // The record table passes the check an opened database makes, and
        // its text passes the separator check of a derived one.
        let opened = derived_copy(&db, db.record_starts().to_vec(), db.text().to_vec());
        assert_eq!(opened.unwrap().to_ascii(), "$AC$$G");
    }

    /// `db`'s record table over starts `starts`, with a text derived as
    /// `text`.
    fn derived_copy(
        db: &SequenceDatabase,
        starts: Vec<usize>,
        text: Vec<u8>,
    ) -> Result<SequenceDatabase, String> {
        SequenceDatabase::from_derived(
            db.alphabet(),
            db.record_names().to_vec(),
            starts,
            db.record_lengths().to_vec(),
            move || Ok(text.clone()),
        )
    }

    #[test]
    fn from_derived_derives_on_first_read_and_checks_the_separators() {
        let db = SequenceDatabase::from_sequences(
            Alphabet::Dna,
            ["ACGTACGTACGTACGTACGTACGTACGTACGT", "", "GGC"]
                .map(|s| Sequence::from_ascii(Alphabet::Dna, s.as_bytes()).unwrap()),
        );
        let opened = derived_copy(&db, db.record_starts().to_vec(), db.text().to_vec()).unwrap();
        let _ = (format!("{opened:?}"), opened.clone());
        assert_eq!(opened.text_len(), db.text_len());
        assert_eq!(opened.locate(34).unwrap().record, 2);
        assert!(!opened.text_is_derived());
        assert_eq!(opened.text(), db.text());
        assert!(opened.text_is_derived());
        assert!(!db.text_is_derived());

        // A record table the text cannot have is refused up front.
        assert!(derived_copy(&db, vec![0, 33, 33], db.text().to_vec()).is_err());
        // A derived text that disagrees with the table panics on first read.
        let first_read_panics = |text: Vec<u8>, why: &str| {
            let opened = derived_copy(&db, db.record_starts().to_vec(), text).unwrap();
            let read = std::panic::AssertUnwindSafe(|| opened.text().len());
            let panic = std::panic::catch_unwind(read).unwrap_err();
            let message = panic.downcast_ref::<String>().unwrap();
            assert!(message.starts_with("corrupt index: "), "{message}");
            assert!(message.contains(why), "{why}: {message}");
        };
        let mut moved = db.text().to_vec();
        moved.swap(32, 31);
        first_read_panics(moved, "no separator at record boundary 32");
        let mut extra = db.text().to_vec();
        extra[5] = SEPARATOR_CODE;
        first_read_panics(extra, "holds 3 separators, the record table places 2");
        first_read_panics(
            db.text()[1..].to_vec(),
            "holds 36 codes, the record table 37",
        );
        let failing = SequenceDatabase::from_derived(
            db.alphabet(),
            db.record_names().to_vec(),
            db.record_starts().to_vec(),
            db.record_lengths().to_vec(),
            || Err("the walk failed".into()),
        )
        .unwrap();
        let read = std::panic::AssertUnwindSafe(|| failing.text().len());
        let panic = std::panic::catch_unwind(read).unwrap_err();
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("corrupt index: the walk failed")
        );
    }

    #[test]
    fn clones_share_the_text() {
        let db = db_two_records();
        let clone = db.clone();
        assert!(std::ptr::eq(clone.text(), db.text()));
    }

    #[test]
    fn push_after_sharing_keeps_old_readers_intact() {
        let mut db = db_two_records();
        let before = db.clone();
        let c = Sequence::from_ascii(Alphabet::Dna, b"TT").unwrap();
        db.push(c);
        // The clone still sees the old text; the database moved on.
        assert_eq!(before.text(), db_two_records().text());
        assert_eq!(db.text_len(), 8 + 1 + 2);
    }

    #[test]
    fn table_text_len_checks_the_record_table() {
        let db = db_two_records();
        let text_len = |starts: &[usize], lengths: &[usize]| {
            SequenceDatabase::table_text_len(db.record_names(), starts, lengths)
        };
        assert_eq!(text_len(db.record_starts(), db.record_lengths()), Ok(8));
        assert_eq!(text_len(&[0, 5], &[4, 9]), Ok(14));
        // Arity mismatch, a start off the separator rule and an overrun of
        // the address space all fail.
        assert!(text_len(&[0], &[4, 3]).is_err());
        assert!(text_len(&[0, 6], &[4, 3]).is_err());
        assert!(text_len(&[0, 4], &[4, 3]).is_err());
        assert!(text_len(&[0, 0], &[usize::MAX, 1]).is_err());
    }

    #[test]
    #[should_panic]
    fn alphabet_mismatch_panics() {
        let mut db = SequenceDatabase::new(Alphabet::Dna);
        let p = Sequence::from_ascii(Alphabet::Protein, b"MK").unwrap();
        db.push(p);
    }
}
