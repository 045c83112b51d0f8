//! Exactness on hit *sets*: canonical hit keys, digests and diffs.

use alae::search::SearchHit;
use std::cmp::Ordering;

/// What identifies a reported alignment: `(record, record_end, query_end,
/// score)`.
pub type HitKey = (usize, usize, usize, i64);

/// The canonical (sorted) key set of a response's hits.
pub fn canonical(hits: &[SearchHit]) -> Vec<HitKey> {
    let mut keys: Vec<HitKey> = hits
        .iter()
        .map(|h| (h.record, h.record_end, h.query_end, h.score))
        .collect();
    keys.sort_unstable();
    keys
}

/// FNV-1a over a canonical set: equal sets give equal digests on every
/// run and every machine.
pub fn digest(set: &[HitKey]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(set.len() as u64);
    for &(record, record_end, query_end, score) in set {
        eat(record as u64);
        eat(record_end as u64);
        eat(query_end as u64);
        eat(score as u64);
    }
    hash
}

/// How a hit set differs from the expected one.  A rescored hit shows as
/// one missing and one extra key.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct HitDiff {
    pub missing: Vec<HitKey>,
    pub extra: Vec<HitKey>,
}

impl HitDiff {
    pub fn is_empty(&self) -> bool {
        self.missing.is_empty() && self.extra.is_empty()
    }

    /// One line naming the first difference.
    pub fn describe(&self) -> String {
        format!(
            "{} missing (first {:?}), {} extra (first {:?})",
            self.missing.len(),
            self.missing.first(),
            self.extra.len(),
            self.extra.first()
        )
    }
}

/// Diff two canonical sets.
pub fn diff(expected: &[HitKey], got: &[HitKey]) -> HitDiff {
    let mut out = HitDiff::default();
    let (mut i, mut j) = (0, 0);
    while i < expected.len() || j < got.len() {
        let order = match (expected.get(i), got.get(j)) {
            (Some(e), Some(g)) => e.cmp(g),
            (Some(_), None) => Ordering::Less,
            _ => Ordering::Greater,
        };
        match order {
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
            Ordering::Less => {
                out.missing.push(expected[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.extra.push(got[j]);
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn hit(record: usize, record_end: usize, query_end: usize, score: i64) -> SearchHit {
        SearchHit {
            record,
            name: Arc::from("r"),
            record_end,
            query_end,
            text_end: record_end,
            score,
            evalue: None,
        }
    }

    fn base() -> Vec<SearchHit> {
        vec![hit(0, 90, 40, 35), hit(0, 17, 12, 31), hit(1, 5, 200, 30)]
    }

    #[test]
    fn order_does_not_matter_but_content_does() {
        let mut shuffled = base();
        shuffled.reverse();
        assert_eq!(canonical(&shuffled), canonical(&base()));
        assert_eq!(digest(&canonical(&shuffled)), digest(&canonical(&base())));
        assert!(diff(&canonical(&base()), &canonical(&shuffled)).is_empty());
    }

    #[test]
    fn dropped_hit_is_caught() {
        let expected = canonical(&base());
        let got = canonical(&base()[1..]);
        let d = diff(&expected, &got);
        assert_eq!(d.missing, vec![(0, 90, 40, 35)]);
        assert!(d.extra.is_empty());
        assert_ne!(digest(&expected), digest(&got));
    }

    #[test]
    fn extra_hit_is_caught() {
        let expected = canonical(&base());
        let mut more = base();
        more.push(hit(2, 1, 1, 30));
        let got = canonical(&more);
        let d = diff(&expected, &got);
        assert!(d.missing.is_empty());
        assert_eq!(d.extra, vec![(2, 1, 1, 30)]);
        assert_ne!(digest(&expected), digest(&got));
    }

    #[test]
    fn rescored_hit_is_caught() {
        let expected = canonical(&base());
        let mut rescored = base();
        rescored[1].score = 32;
        let got = canonical(&rescored);
        let d = diff(&expected, &got);
        assert_eq!(d.missing, vec![(0, 17, 12, 31)]);
        assert_eq!(d.extra, vec![(0, 17, 12, 32)]);
        assert_ne!(digest(&expected), digest(&got));
        assert!(!d.describe().is_empty());
    }
}
