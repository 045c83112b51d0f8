//! Helpers shared by several integration-test files.

use alae::suffix::rank::OccTable;
use alae::suffix::{CheckpointRows, FmIndex, StorageData, TextIndex};

/// `index` with its occurrence table moved to byte storage over the same
/// checkpoint rows and suffix-array samples, reassembled through the public
/// `from_parts` constructors.  For DNA this is the byte-layout index that
/// `open` reads from a file written when the layout was still selectable.
pub fn byte_twin(index: &TextIndex) -> TextIndex {
    let fm = index.fm_index();
    let occ = fm.occ_table();
    let rows = occ.checkpoint_rows();
    let bytes: Vec<u8> = (0..occ.len()).map(|i| occ.get(i)).collect();
    let occ = OccTable::from_parts(
        occ.len(),
        occ.code_count(),
        CheckpointRows {
            supers: rows.supers.to_vec(),
            deltas: rows.deltas.to_vec(),
        },
        StorageData::Bytes(bytes.into()),
    )
    .expect("byte storage fits any code count");
    let fm = FmIndex::from_parts(
        fm.text_len(),
        fm.code_count(),
        occ,
        fm.c_array().to_vec(),
        fm.sampled_rows().clone(),
        fm.samples().to_vec(),
    )
    .expect("the parts come from a built index");
    TextIndex::from_parts(fm)
}
