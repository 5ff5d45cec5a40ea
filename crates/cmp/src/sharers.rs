//! Scalable sharer-set representation for the directory uncore.
//!
//! The snooping path tracks sharers in a `u16` bitmask, which hard-caps
//! the target at 16 cores. Directory entries instead use [`SharerSet`]:
//! a small-set inline representation (up to [`SMALL_CAP`] core ids in a
//! fixed array — the common case, since most lines have one or two
//! sharers) that spills to a word-vector bitmap when a line becomes
//! widely shared. Both representations are semantically equivalent;
//! equality, iteration order and the persisted byte form are all
//! representation-independent, so a set that spilled and shrank again
//! compares and serializes identically to one that never spilled.

use slacksim_core::event::CoreId;
use slacksim_core::persist::{ByteReader, ByteWriter, Persist, PersistError};

/// Core ids held inline before spilling to the word-vector bitmap.
pub const SMALL_CAP: usize = 4;

/// A set of cores sharing one line, scalable to 1024 cores.
///
/// # Examples
///
/// ```
/// use slacksim_cmp::sharers::SharerSet;
/// use slacksim_core::event::CoreId;
///
/// let mut s = SharerSet::new();
/// assert!(s.insert(CoreId::new(3)));
/// assert!(!s.insert(CoreId::new(3)), "already present");
/// for i in 0..100 {
///     s.insert(CoreId::new(i)); // spills past the inline capacity
/// }
/// assert_eq!(s.len(), 100);
/// assert!(s.contains(CoreId::new(99)));
/// ```
#[derive(Debug, Clone)]
pub enum SharerSet {
    /// Up to [`SMALL_CAP`] core ids, ascending in `ids[..len]`.
    Small {
        /// Number of ids in use.
        len: u8,
        /// The member core ids, sorted ascending.
        ids: [u16; SMALL_CAP],
    },
    /// Bitmap spill: bit `i % 64` of word `i / 64` marks core `i`.
    Words(Vec<u64>),
}

impl Default for SharerSet {
    fn default() -> Self {
        SharerSet::new()
    }
}

impl SharerSet {
    /// Creates an empty set.
    pub const fn new() -> Self {
        SharerSet::Small {
            len: 0,
            ids: [0; SMALL_CAP],
        }
    }

    /// Creates a set holding exactly `core`.
    pub fn only(core: CoreId) -> Self {
        let mut s = SharerSet::new();
        s.insert(core);
        s
    }

    /// Adds `core`; returns `true` iff it was newly inserted.
    pub fn insert(&mut self, core: CoreId) -> bool {
        let idx = core.index() as u16;
        match self {
            SharerSet::Small { len, ids } => {
                let n = *len as usize;
                match ids[..n].binary_search(&idx) {
                    Ok(_) => false,
                    Err(pos) => {
                        if n < SMALL_CAP {
                            ids.copy_within(pos..n, pos + 1);
                            ids[pos] = idx;
                            *len += 1;
                        } else {
                            // Spill: sized to the highest member so far.
                            let top = ids[n - 1].max(idx) as usize;
                            let mut words = vec![0u64; top / 64 + 1];
                            for &id in ids[..n].iter() {
                                words[id as usize / 64] |= 1 << (id % 64);
                            }
                            words[idx as usize / 64] |= 1 << (idx % 64);
                            *self = SharerSet::Words(words);
                        }
                        true
                    }
                }
            }
            SharerSet::Words(words) => {
                let (w, b) = (idx as usize / 64, idx % 64);
                if w >= words.len() {
                    words.resize(w + 1, 0);
                }
                let newly = words[w] & (1 << b) == 0;
                words[w] |= 1 << b;
                newly
            }
        }
    }

    /// Removes `core`; returns `true` iff it was present.
    pub fn remove(&mut self, core: CoreId) -> bool {
        let idx = core.index() as u16;
        match self {
            SharerSet::Small { len, ids } => {
                let n = *len as usize;
                match ids[..n].binary_search(&idx) {
                    Ok(pos) => {
                        ids.copy_within(pos + 1..n, pos);
                        ids[n - 1] = 0;
                        *len -= 1;
                        true
                    }
                    Err(_) => false,
                }
            }
            SharerSet::Words(words) => {
                let (w, b) = (idx as usize / 64, idx % 64);
                if w < words.len() && words[w] & (1 << b) != 0 {
                    words[w] &= !(1 << b);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Whether `core` is a member.
    pub fn contains(&self, core: CoreId) -> bool {
        let idx = core.index() as u16;
        match self {
            SharerSet::Small { len, ids } => ids[..*len as usize].binary_search(&idx).is_ok(),
            SharerSet::Words(words) => {
                let (w, b) = (idx as usize / 64, idx % 64);
                w < words.len() && words[w] & (1 << b) != 0
            }
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        match self {
            SharerSet::Small { len, .. } => *len as usize,
            SharerSet::Words(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        match self {
            SharerSet::Small { len, .. } => *len == 0,
            SharerSet::Words(words) => words.iter().all(|&w| w == 0),
        }
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        *self = SharerSet::new();
    }

    /// Members in ascending core order (the deterministic iteration
    /// order every snoop list and byte stream is built from).
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        let (small, words): (&[u16], &[u64]) = match self {
            SharerSet::Small { len, ids } => (&ids[..*len as usize], &[]),
            SharerSet::Words(words) => (&[], words.as_slice()),
        };
        let from_words = words.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits & (1 << b) != 0)
                .map(move |b| CoreId::new((w * 64 + b) as u16))
        });
        small.iter().map(|&id| CoreId::new(id)).chain(from_words)
    }

    /// The single member, when the set has exactly one.
    pub fn sole(&self) -> Option<CoreId> {
        let mut it = self.iter();
        match (it.next(), it.next()) {
            (Some(c), None) => Some(c),
            _ => None,
        }
    }
}

/// A sorted id list (`u32` count, `u16` ids) — canonical regardless of
/// representation. A list not strictly ascending is refused, and so is an
/// id past the core count the owning model loads under
/// ([`ByteReader::within_cores`]) — before it can size a spill.
impl Persist for SharerSet {
    fn save(&self, w: &mut ByteWriter) {
        w.u32(self.len() as u32);
        self.iter().for_each(|c| c.save(w));
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let mut set = SharerSet::new();
        let mut last = None;
        for _ in 0..r.u32()? {
            let core = CoreId::load(r)?;
            if last.is_some_and(|last| last >= core) {
                return Err(PersistError::Corrupt(
                    "sharer set ids not strictly ascending",
                ));
            }
            last = Some(core);
            set.insert(core);
        }
        Ok(set)
    }
}

/// Equality is semantic: representation (inline vs spilled) never
/// matters.
impl PartialEq for SharerSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for SharerSet {}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn small_set_stays_inline_and_sorted() {
        let mut s = SharerSet::new();
        for i in [9, 2, 7, 4] {
            assert!(s.insert(c(i)));
        }
        assert!(matches!(s, SharerSet::Small { .. }));
        let ids: Vec<u16> = s.iter().map(|c| c.index() as u16).collect();
        assert_eq!(ids, vec![2, 4, 7, 9]);
        assert!(!s.insert(c(7)), "duplicate insert is a no-op");
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn fifth_member_spills_to_words() {
        let mut s = SharerSet::new();
        for i in 0..5 {
            s.insert(c(i * 100));
        }
        assert!(matches!(s, SharerSet::Words(_)));
        assert_eq!(s.len(), 5);
        let ids: Vec<u16> = s.iter().map(|c| c.index() as u16).collect();
        assert_eq!(ids, vec![0, 100, 200, 300, 400]);
    }

    #[test]
    fn remove_works_in_both_representations() {
        let mut small = SharerSet::new();
        small.insert(c(1));
        small.insert(c(3));
        assert!(small.remove(c(1)));
        assert!(!small.remove(c(1)));
        assert_eq!(small.sole(), Some(c(3)));

        let mut big = SharerSet::new();
        for i in 0..40 {
            big.insert(c(i));
        }
        assert!(big.remove(c(17)));
        assert!(!big.contains(c(17)));
        assert_eq!(big.len(), 39);
    }

    #[test]
    fn equality_is_representation_independent() {
        // Build {0,1,2} inline, and {0,1,2} via spill-then-shrink.
        let mut inline = SharerSet::new();
        let mut spilled = SharerSet::new();
        for i in 0..3 {
            inline.insert(c(i));
        }
        for i in 0..6 {
            spilled.insert(c(i));
        }
        for i in 3..6 {
            spilled.remove(c(i));
        }
        assert!(matches!(spilled, SharerSet::Words(_)));
        assert_eq!(inline, spilled);
        assert_eq!(spilled.sole(), None);
    }

    #[test]
    fn save_load_is_canonical_across_representations() {
        let mut inline = SharerSet::new();
        let mut spilled = SharerSet::new();
        for i in [0, 5, 9] {
            inline.insert(c(i));
        }
        for i in 0..10 {
            spilled.insert(c(i));
        }
        for i in 0..10 {
            if ![0, 5, 9].contains(&i) {
                spilled.remove(c(i));
            }
        }
        let bytes_of = |s: &SharerSet| {
            let mut w = ByteWriter::new();
            s.save(&mut w);
            w.into_bytes()
        };
        assert_eq!(bytes_of(&inline), bytes_of(&spilled));
        let bytes = bytes_of(&inline);
        let mut r = ByteReader::new(&bytes);
        let restored = SharerSet::load(&mut r).unwrap();
        assert_eq!(restored, inline);
    }

    #[test]
    fn load_rejects_unknown_cores_and_unsorted_streams() {
        let load = |ids: &[u16]| {
            let mut w = ByteWriter::new();
            w.u32(ids.len() as u32);
            ids.iter().for_each(|&id| w.u16(id));
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            r.within_cores(16, SharerSet::load)
        };
        assert!(load(&[3, 15]).is_ok());
        for ids in [&[20][..], &[1, 2, 3, 4, 65535], &[5, 5], &[7, 3]] {
            assert!(
                matches!(load(ids), Err(PersistError::Corrupt(_))),
                "{ids:?} of 16 cores"
            );
        }
    }
}
