//! Cheaply cloneable, immutable byte buffers with pluggable owners.
//!
//! The concatenated database text and the occurrence-table byte storage are
//! shared by every clone of the database and of the text index.  An
//! `Arc<Vec<u8>>` would force every buffer to live on the heap as an owned
//! `Vec`; the on-disk index format (the `alae-store` crate) wants those same
//! buffers to be *views into a memory-mapped file* so a saved index opens
//! without copying its largest sections.
//!
//! [`SharedBytes`] abstracts over all three: a reference-counted owner (a
//! plain `Vec<u8>`, any `AsRef<[u8]>` owner such as an mmap, or bytes
//! derived from something else on first read) plus an `(offset, len)`
//! window.  Clones share the owner; `Deref` yields the window as `&[u8]`.
//! Derived bytes are produced the first time anything derefs a view of
//! them: constructing, cloning, `len` and `Debug` never read them.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// The backing allocation of a [`SharedBytes`].
#[derive(Clone)]
enum Owner {
    /// An ordinary heap vector (the mutable/default backing).
    Heap(Arc<Vec<u8>>),
    /// Any shared byte owner — in practice a memory-mapped file region.
    Raw(Arc<dyn AsRef<[u8]> + Send + Sync>),
    /// Bytes produced once, on first read (an opened database's text).
    Derived(Arc<Derived>),
}

impl Owner {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Owner::Heap(vec) => vec,
            Owner::Raw(raw) => (**raw).as_ref(),
            Owner::Derived(derived) => derived.bytes.get_or_init(|| (derived.derive)()),
        }
    }
}

/// Bytes that `derive` produces on the first read and every clone shares.
/// A `derive` that panics leaves them unproduced, so the next read calls it
/// again.
struct Derived {
    derive: Box<dyn Fn() -> Vec<u8> + Send + Sync>,
    bytes: OnceLock<Vec<u8>>,
}

/// An immutable, cheaply cloneable `[u8]` view backed by a shared owner.
///
/// Equality, ordering and hashing all go through the viewed bytes, so two
/// views over different owners compare equal when their windows hold the
/// same content.
#[derive(Clone)]
pub struct SharedBytes {
    owner: Owner,
    offset: usize,
    len: usize,
}

impl SharedBytes {
    /// An empty view.
    pub fn new() -> Self {
        Self::from_vec(Vec::new())
    }

    /// Take ownership of a vector.
    pub fn from_vec(vec: Vec<u8>) -> Self {
        Self {
            len: vec.len(),
            owner: Owner::Heap(Arc::new(vec)),
            offset: 0,
        }
    }

    /// View `owner.as_ref()[offset..offset + len]` without copying.
    ///
    /// This is how the store crate wraps sections of a memory-mapped file.
    ///
    /// # Panics
    ///
    /// Panics when the window does not fit inside the owner's bytes.
    pub fn from_owner(
        owner: Arc<dyn AsRef<[u8]> + Send + Sync>,
        offset: usize,
        len: usize,
    ) -> Self {
        let total = (*owner).as_ref().len();
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= total),
            "SharedBytes window {offset}..{offset}+{len} out of bounds for owner of {total} bytes"
        );
        Self {
            owner: Owner::Raw(owner),
            offset,
            len,
        }
    }

    /// View the `len` bytes `derive` produces, calling it on the first read
    /// and never before.  `derive` must return exactly `len` bytes.
    pub(crate) fn derived(
        len: usize,
        derive: impl Fn() -> Vec<u8> + Send + Sync + 'static,
    ) -> Self {
        Self {
            len,
            owner: Owner::Derived(Arc::new(Derived {
                derive: Box::new(derive),
                bytes: OnceLock::new(),
            })),
            offset: 0,
        }
    }

    /// True once the owner's bytes have been derived; false before, and
    /// for every owner that is not derived.
    pub(crate) fn is_derived(&self) -> bool {
        matches!(&self.owner, Owner::Derived(derived) if derived.bytes.get().is_some())
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.owner.as_bytes()[self.offset..self.offset + self.len]
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutate the bytes through a `Vec<u8>`, copying on write.
    ///
    /// When this view is the sole owner of a heap vector and covers it
    /// entirely, the closure receives that vector in place (no copy) — the
    /// common "database still being built" case.  Otherwise (the owner is
    /// shared, a window, a raw owner such as an mmap, or derived) the window is
    /// first copied into a fresh vector, so existing clones keep seeing the
    /// old bytes.  After the closure returns, this view covers the whole
    /// (possibly resized) vector.
    pub fn with_mut<R>(&mut self, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let covers_whole =
            self.offset == 0 && matches!(&self.owner, Owner::Heap(v) if v.len() == self.len);
        if !covers_whole {
            self.owner = Owner::Heap(Arc::new(self.as_slice().to_vec()));
            self.offset = 0;
        }
        let Owner::Heap(vec) = &mut self.owner else {
            unreachable!("with_mut always normalizes to a heap owner");
        };
        let vec = Arc::make_mut(vec);
        let result = f(vec);
        self.len = vec.len();
        result
    }
}

impl Default for SharedBytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for SharedBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(vec: Vec<u8>) -> Self {
        Self::from_vec(vec)
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedBytes")
            .field("len", &self.len)
            .field("offset", &self.offset)
            .field(
                "owner",
                &match &self.owner {
                    Owner::Heap(_) => "heap",
                    Owner::Raw(_) => "raw",
                    Owner::Derived(_) => "derived",
                },
            )
            .finish()
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SharedBytes {}

impl PartialEq<[u8]> for SharedBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for SharedBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for SharedBytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn clones_share_the_same_allocation() {
        let a = SharedBytes::from_vec(vec![1, 2, 3, 4]);
        let b = a.clone();
        assert!(std::ptr::eq(a.as_slice(), b.as_slice()));
        assert_eq!(a, b);
        assert!(!a.is_derived());
    }

    #[test]
    fn derived_bytes_are_produced_once_on_first_read() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let text = SharedBytes::derived(3, move || {
            counted.fetch_add(1, Ordering::Relaxed);
            vec![7, 8, 9]
        });
        let clone = text.clone();
        let _ = (text.len(), format!("{text:?}"), clone.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert!(!text.is_derived());
        assert_eq!(clone.as_slice(), &[7, 8, 9]);
        assert_eq!(text.as_slice(), &[7, 8, 9]);
        assert!(text.is_derived());
        assert!(std::ptr::eq(text.as_slice(), clone.as_slice()));
        assert_eq!(calls.load(Ordering::Relaxed), 1);

        // Mutation copies out; the other clone keeps the derived bytes.
        let mut copy = clone.clone();
        copy.with_mut(|v| v.push(10));
        assert_eq!(copy.as_slice(), &[7, 8, 9, 10]);
        assert_eq!(clone.as_slice(), &[7, 8, 9]);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn with_mut_in_place_when_unshared() {
        let mut a = SharedBytes::from_vec(vec![1, 2, 3]);
        let before = a.as_slice().as_ptr();
        a.with_mut(|v| v.push(4));
        assert_eq!(a.as_slice(), &[1, 2, 3, 4]);
        // No reallocation is not guaranteed (Vec growth), but the owner must
        // still be the original Arc — mutating again must not copy.
        a.with_mut(|v| v.push(5));
        assert_eq!(a.len(), 5);
        let _ = before;
    }

    #[test]
    fn with_mut_copies_when_shared() {
        let mut a = SharedBytes::from_vec(vec![1, 2, 3]);
        let snapshot = a.clone();
        a.with_mut(|v| v.push(4));
        assert_eq!(snapshot.as_slice(), &[1, 2, 3]);
        assert_eq!(a.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn with_mut_copies_out_of_windows_and_raw_owners() {
        let owner: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(vec![1u8, 2, 3, 4]);
        let mut window = SharedBytes::from_owner(owner.clone(), 1, 2);
        window.with_mut(|v| v.push(9));
        assert_eq!(window.as_slice(), &[2, 3, 9]);

        let mut raw = SharedBytes::from_owner(owner.clone(), 0, 4);
        raw.with_mut(|v| v[0] = 0);
        assert_eq!(raw.as_slice(), &[0, 2, 3, 4]);
        assert_eq!((*owner).as_ref(), &[1, 2, 3, 4]);
    }

    #[test]
    fn raw_owner_windows() {
        let owner: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(vec![1u8, 2, 3, 4, 5]);
        let view = SharedBytes::from_owner(owner.clone(), 1, 3);
        assert_eq!(view.as_slice(), &[2, 3, 4]);
        assert_eq!(view.len(), 3);
        let whole = SharedBytes::from_owner(owner, 0, 5);
        assert!(std::ptr::eq(
            view.as_slice().as_ptr(),
            &whole[1] as *const u8
        ));
    }

    #[test]
    #[should_panic]
    fn raw_owner_window_out_of_bounds_panics() {
        let owner: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(vec![1u8, 2, 3]);
        let _ = SharedBytes::from_owner(owner, 2, 2);
    }

    #[test]
    fn equality_is_by_content() {
        let a = SharedBytes::from_vec(vec![1, 2, 3]);
        let owner: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(vec![0u8, 1, 2, 3]);
        let b = SharedBytes::from_owner(owner, 1, 3);
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(a, *[1u8, 2, 3].as_slice());
    }
}
