//! A database text stored as its letters only, a few bits each.
//!
//! A database text is its records' letters with one separator between
//! neighbouring records, so the separators follow from the record lengths
//! and the packed form keeps the letters alone.  Letter code `c` (`1..=σ`)
//! is stored as `c − 1` in a field of ⌈log₂ σ⌉ bits, ⌊64 / bits⌋ fields per
//! little-endian `u64`, lowest field first.  No field straddles a word, and
//! the bits above a word's last field are zero.  DNA packs 32 letters per
//! word at 2 bits, protein 12 at 5.
//!
//! A database opened from such words
//! ([`SequenceDatabase::from_packed`](crate::SequenceDatabase::from_packed))
//! unpacks them, separators included, into bytes the first time something
//! reads its text, and never before.

use crate::alphabet::{Alphabet, SEPARATOR_CODE};
use crate::shared::SharedBytes;
use std::sync::OnceLock;

/// How the letters of one alphabet are packed into words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LetterPacking {
    /// Bits per field, ⌈log₂ σ⌉.
    bits: u32,
    /// Fields per word, ⌊64 / bits⌋.
    per_word: usize,
    /// σ: a field must be below it.
    sigma: u64,
    /// Every other field's bits, from field 0 up.
    even: u64,
    /// `2^bits − σ` in every field of `even`.
    add: u64,
    /// The bit just above every field of `even`.
    carry: u64,
}

impl LetterPacking {
    /// The packing of `alphabet`'s letters.
    pub fn new(alphabet: Alphabet) -> Self {
        let sigma = alphabet.sigma() as u64;
        let bits = u64::BITS - (sigma - 1).leading_zeros();
        let per_word = (u64::BITS / bits) as usize;
        // Bit 0 of every other field.
        let lows: u64 = (0..per_word)
            .step_by(2)
            .map(|k| 1 << (k as u32 * bits))
            .sum();
        Self {
            bits,
            per_word,
            sigma,
            even: lows * ((1 << bits) - 1),
            add: lows * ((1 << bits) - sigma),
            carry: lows << bits,
        }
    }

    /// Letters per word.
    pub fn letters_per_word(self) -> usize {
        self.per_word
    }

    /// Words that hold `letters` letters.
    pub fn words(self, letters: usize) -> usize {
        letters.div_ceil(self.per_word)
    }

    /// Pack the letters of `records`, back to back, into little-endian
    /// words.  Fails with the first code that is not a letter (a separator
    /// or a code above σ), which no packed field could hold.
    pub fn pack<'a>(self, records: impl IntoIterator<Item = &'a [u8]>) -> Result<Vec<u8>, u8> {
        let mut out = Vec::new();
        let (mut word, mut filled) = (0u64, 0);
        for &code in records.into_iter().flatten() {
            let field = u64::from(code.wrapping_sub(1));
            if field >= self.sigma {
                return Err(code);
            }
            word |= field << (filled as u32 * self.bits);
            filled += 1;
            if filled == self.per_word {
                out.extend_from_slice(&word.to_le_bytes());
                (word, filled) = (0, 0);
            }
        }
        if filled > 0 {
            out.extend_from_slice(&word.to_le_bytes());
        }
        Ok(out)
    }

    /// Check one stored word that holds `letters` letters (all of them but
    /// in the last word): every field is below σ, and every bit above the
    /// last field is zero.
    pub fn check_word(self, word: u64, letters: usize) -> Result<(), WordFault> {
        let used = letters as u32 * self.bits;
        if used < u64::BITS && word >> used != 0 {
            return Err(WordFault::UnusedBits);
        }
        // Add 2^bits − σ to every other field in place: the field above
        // each is masked out, so a field at or above σ carries into it.
        // Field k's carry ends up at bit k·bits of `over`.
        let carries = |fields: u64| (fields + self.add) & self.carry;
        let over =
            carries(word & self.even) >> self.bits | carries((word >> self.bits) & self.even);
        if over == 0 {
            return Ok(());
        }
        let letter = over.trailing_zeros() / self.bits;
        Err(WordFault::Field {
            letter: letter as usize,
            value: (word >> (letter * self.bits)) & ((1 << self.bits) - 1),
            sigma: self.sigma,
        })
    }
}

/// Why [`LetterPacking::check_word`] refused a word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordFault {
    /// A bit above the word's last letter is set.
    UnusedBits,
    /// The field of the word's `letter`-th letter is `value`, not below σ.
    Field {
        letter: usize,
        value: u64,
        sigma: u64,
    },
}

/// The owner of a text held as packed letters: the words plus the record
/// lengths that place the separators, unpacked into bytes on first read.
pub(crate) struct PackedText {
    packing: LetterPacking,
    /// Little-endian words holding exactly the records' letters.
    words: SharedBytes,
    /// A separator follows each record but the last.
    lengths: Vec<usize>,
    /// The unpacked text's length, separators included.
    len: usize,
    bytes: OnceLock<Vec<u8>>,
}

impl PackedText {
    /// `words` must hold `packing.words(Σ lengths)` words.
    pub(crate) fn new(
        packing: LetterPacking,
        words: SharedBytes,
        lengths: Vec<usize>,
        len: usize,
    ) -> Self {
        Self {
            packing,
            words,
            lengths,
            len,
            bytes: OnceLock::new(),
        }
    }

    /// The unpacked length, known without unpacking.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The text, unpacked on the first call.
    pub(crate) fn bytes(&self) -> &[u8] {
        self.bytes.get_or_init(|| self.unpack())
    }

    /// Whether something has read the text yet.
    pub(crate) fn is_unpacked(&self) -> bool {
        self.bytes.get().is_some()
    }

    fn unpack(&self) -> Vec<u8> {
        let mask = (1u64 << self.packing.bits) - 1;
        let letters = self.len - self.lengths.len().saturating_sub(1);
        let mut text = vec![SEPARATOR_CODE; self.len];
        // The letters back to back first...
        let fields = text[..letters].chunks_mut(self.packing.per_word);
        for (out, word) in fields.zip(self.words.chunks_exact(8)) {
            let mut word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            for code in out {
                *code = (word & mask) as u8 + 1;
                word >>= self.packing.bits;
            }
        }
        // ...then each record moved right, from the last, to open the gap
        // for the separator before it.
        let mut end = letters;
        for (record, &len) in self.lengths.iter().enumerate().rev() {
            let start = end - len;
            text.copy_within(start..end, start + record);
            if record > 0 {
                text[start + record - 1] = SEPARATOR_CODE;
            }
            end = start;
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::SequenceDatabase;
    use crate::sequence::Sequence;

    #[test]
    fn widths_follow_the_alphabet() {
        let dna = LetterPacking::new(Alphabet::Dna);
        assert_eq!((dna.bits, dna.letters_per_word()), (2, 32));
        let protein = LetterPacking::new(Alphabet::Protein);
        assert_eq!((protein.bits, protein.letters_per_word()), (5, 12));
        assert_eq!(protein.words(0), 0);
        assert_eq!(protein.words(12), 1);
        assert_eq!(protein.words(13), 2);
    }

    #[test]
    fn pack_puts_letter_k_in_field_k() {
        let dna = LetterPacking::new(Alphabet::Dna);
        let words = dna.pack([[1u8, 2, 3].as_slice(), &[4]]).unwrap();
        assert_eq!(words, (0b11_10_01_00u64).to_le_bytes());
        assert_eq!(dna.pack([[1u8, 0, 2].as_slice()]), Err(0));
        assert_eq!(dna.pack([[5u8].as_slice()]), Err(5));
        let protein = LetterPacking::new(Alphabet::Protein);
        assert_eq!(protein.pack([[21u8].as_slice()]), Err(21));
        assert_eq!(protein.pack(std::iter::empty()), Ok(Vec::new()));
    }

    #[test]
    fn check_word_agrees_with_a_field_by_field_reading() {
        for alphabet in [Alphabet::Dna, Alphabet::Protein] {
            let packing = LetterPacking::new(alphabet);
            let (bits, per_word) = (packing.bits, packing.letters_per_word());
            let mask = (1u64 << bits) - 1;
            let reading = |word: u64, letters: usize| {
                let used = letters as u32 * bits;
                if used < 64 && word >> used != 0 {
                    return Err(WordFault::UnusedBits);
                }
                let fields = (0..per_word).map(|k| (word >> (k as u32 * bits)) & mask);
                match fields.enumerate().find(|&(_, f)| f >= packing.sigma) {
                    Some((letter, value)) => Err(WordFault::Field {
                        letter,
                        value,
                        sigma: packing.sigma,
                    }),
                    None => Ok(()),
                }
            };
            let mut words = Vec::new();
            // Every value in every field of a full word of valid letters,
            // alone and with the last field's bits all set after it.
            let valid: u64 = (0..per_word).map(|k| 1 << (k as u32 * bits)).sum();
            let last = mask << ((per_word - 1) as u32 * bits);
            for at in (0..per_word).map(|k| k as u32 * bits) {
                for value in 0..=mask {
                    let word = valid & !(mask << at) | value << at;
                    words.extend([(word, per_word), (word | last, per_word)]);
                }
            }
            // One bit past the last letter, for every letter count.
            for letters in 1..=per_word {
                words.extend((letters as u32 * bits..64).map(|bit| (1 << bit, letters)));
            }
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..20_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let letters = 1 + (state % per_word as u64) as usize;
                words.push((state.rotate_left(letters as u32), letters));
            }
            for (word, letters) in words {
                let expected = reading(word, letters);
                assert_eq!(packing.check_word(word, letters), expected, "{word:#x}");
            }
        }
    }

    #[test]
    fn packed_text_unpacks_on_first_read_only() {
        // Records of 0, 32, 12 and 33 letters: an empty record, and record
        // ends on both alphabets' word boundaries.
        for alphabet in [Alphabet::Dna, Alphabet::Protein] {
            let db = SequenceDatabase::from_sequences(
                alphabet,
                [0usize, 32, 12, 33].iter().enumerate().map(|(r, &len)| {
                    let codes = (0..len)
                        .map(|i| 1 + ((i * 7 + r) % alphabet.sigma()) as u8)
                        .collect();
                    Sequence::from_codes(alphabet, codes)
                }),
            );
            let packing = LetterPacking::new(alphabet);
            let records = db
                .record_starts()
                .iter()
                .zip(db.record_lengths())
                .map(|(&start, &len)| &db.text()[start..start + len]);
            let words = packing.pack(records).unwrap();
            assert_eq!(words.len(), 8 * packing.words(db.character_count()));
            let packed = PackedText::new(
                packing,
                SharedBytes::from_vec(words),
                db.record_lengths().to_vec(),
                db.text_len(),
            );
            assert_eq!(packed.len(), db.text_len());
            assert!(!packed.is_unpacked());
            assert_eq!(packed.bytes(), db.text(), "{alphabet:?}");
            assert!(packed.is_unpacked());
        }
    }
}
