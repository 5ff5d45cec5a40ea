//! Durable on-disk serialization of checkpoint state (DESIGN §13).
//!
//! A hand-rolled, versioned binary format — no external serialization
//! crates, matching the PR 1 dependency policy. The container is
//!
//! ```text
//! magic    [u8; 8]  b"SLAKSNAP"
//! version  u32      format version (2)
//! fp_len   u32      length of the config-fingerprint string
//! fp       [u8]     UTF-8 fingerprint: benchmark/scheme/cores/seed/cp-mode
//! len      u64      payload length in bytes
//! checksum u64      FNV-1a over the payload
//! payload  [u8]     model state (engine/facade defined, little-endian)
//! ```
//!
//! The fingerprint pins a snapshot to the run configuration that produced
//! it: a resume with a different benchmark, scheme (including scheme
//! parameters), core count, seed or checkpoint mode is refused with
//! [`PersistError::ConfigMismatch`] rather than silently producing a
//! nonsense simulation. Writes go through [`write_atomic`]: the bytes land
//! in a sibling temp file which is fsynced and renamed over the target, so
//! a crash mid-write can never leave a torn snapshot under the final name.
//!
//! A run's checkpoints reach the disk through a [`CheckpointWriter`]: the
//! simulation thread encodes a snapshot straight into a container buffer
//! and hands it to a writer thread that checksums, writes and prunes while
//! the simulation carries on (DESIGN §13.1).
//!
//! The payload's byte form is declared, not hand-walked: [`Persist`] gives
//! every plain value one encoding, [`persist_fields!`](crate::persist_fields)
//! and [`persist_enum!`](crate::persist_enum) compose it for structs and
//! tagged enums, and [`persist_walk!`](crate::persist_walk) turns a model's
//! list of fields into its `save_state` / `load_state` pair.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::event::CoreId;
use crate::time::Cycle;
use crate::violation::{KeyedMonitor, TimestampMonitor};

/// File magic identifying a slacksim snapshot container.
pub const MAGIC: [u8; 8] = *b"SLAKSNAP";
/// The container format version every writer stamps, and the only one
/// readers accept.
pub const FORMAT_VERSION: u32 = 2;

/// Everything that can go wrong while persisting or restoring a snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem error (after bounded retries, for writes).
    Io(io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The container was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The file ended before the declared structure was complete.
    Truncated,
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum recomputed over the payload.
        found: u64,
    },
    /// The snapshot was produced under a different run configuration.
    ConfigMismatch {
        /// Fingerprint of the current run configuration.
        expected: String,
        /// Fingerprint recorded in the snapshot header.
        found: String,
    },
    /// The payload decoded to something structurally impossible.
    Corrupt(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a slacksim snapshot (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            PersistError::Truncated => write!(f, "snapshot file is truncated"),
            PersistError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch (header {expected:#018x}, payload {found:#018x})"
            ),
            PersistError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot config mismatch: run is [{expected}] but snapshot was taken under [{found}]"
            ),
            PersistError::Corrupt(what) => write!(f, "snapshot payload corrupt: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// FNV-1a 64-bit hash; cheap, dependency-free payload checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian append-only byte sink for snapshot payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the writer and return the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u16` little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a length-prefixed (u32) byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a snapshot payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Every [`CoreId`] read must be below this (see
    /// [`within_cores`](Self::within_cores)).
    cores: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap a byte slice for reading from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            cores: usize::MAX,
        }
    }

    /// Runs `load` with every [`CoreId`] it reads refused unless it names
    /// one of `n_cores` cores — checked as each id is read, so no id can
    /// size an allocation past the core count. An enclosing bound that is
    /// tighter still holds.
    pub fn within_cores<T>(
        &mut self,
        n_cores: usize,
        load: impl FnOnce(&mut Self) -> Result<T, PersistError>,
    ) -> Result<T, PersistError> {
        let outer = self.cores;
        self.cores = n_cores.min(outer);
        let loaded = load(self);
        self.cores = outer;
        loaded
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (rejects anything other than 0/1).
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::Corrupt("bool byte out of range")),
        }
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its stored bit pattern.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, PersistError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| PersistError::Corrupt("non-UTF-8 string"))
    }

    /// Error unless the whole buffer was consumed — catches payloads with
    /// trailing garbage, which indicate an encode/decode skew.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::Corrupt("trailing bytes after payload"))
        }
    }
}

/// A value with one fixed byte form in snapshot payloads.
///
/// Sequences carry a `u32` length and are read element by element, so a
/// forged length costs no more memory than the bytes behind it. Maps are
/// written in ascending key order, and one read back out of that order is
/// refused: every value has exactly one byte form.
pub trait Persist: Sized {
    /// Appends the value's bytes.
    fn save(&self, w: &mut ByteWriter);

    /// Reads a value written by [`save`](Persist::save).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] for truncated or malformed bytes.
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError>;
}

macro_rules! persist_primitives {
    ($($ty:ident),+) => {$(
        impl Persist for $ty {
            fn save(&self, w: &mut ByteWriter) {
                w.$ty(*self);
            }

            fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
                r.$ty()
            }
        }
    )+};
}

persist_primitives!(u8, u16, u32, u64, bool);

impl Persist for Cycle {
    fn save(&self, w: &mut ByteWriter) {
        w.u64(self.as_u64());
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(Cycle::new(r.u64()?))
    }
}

/// A core index as a `u16`, refused on load unless below the core count
/// the loading model declared ([`ByteReader::within_cores`]).
impl Persist for CoreId {
    fn save(&self, w: &mut ByteWriter) {
        w.u16(self.index() as u16);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let id = r.u16()?;
        if usize::from(id) >= r.cores {
            return Err(PersistError::Corrupt("core index beyond the core count"));
        }
        Ok(CoreId::new(id))
    }
}

/// The monitor's high-water mark.
impl Persist for TimestampMonitor {
    fn save(&self, w: &mut ByteWriter) {
        self.high_water().save(w);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(TimestampMonitor::with_high_water(Cycle::load(r)?))
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, w: &mut ByteWriter) {
        self.0.save(w);
        self.1.save(w);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

/// A presence byte (0 / 1), then the value.
impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut ByteWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(if r.bool()? { Some(T::load(r)?) } else { None })
    }
}

/// Appends a `u32` length and the items.
fn save_seq<'a, T: Persist + 'a>(w: &mut ByteWriter, items: impl ExactSizeIterator<Item = &'a T>) {
    w.u32(items.len() as u32);
    items.for_each(|item| item.save(w));
}

/// Reads a sequence written by [`save_seq`], one item at a time.
fn load_seq<T: Persist, C: FromIterator<T>>(r: &mut ByteReader<'_>) -> Result<C, PersistError> {
    (0..r.u32()?).map(|_| T::load(r)).collect()
}

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, w: &mut ByteWriter) {
        save_seq(w, self.iter());
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        load_seq(r)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn save(&self, w: &mut ByteWriter) {
        save_seq(w, self.iter());
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        load_seq(r)
    }
}

/// Appends a `u32` count and the `(key, value)` pairs in ascending key
/// order, so the bytes never depend on hash iteration order.
fn save_sorted<K: Persist + Ord, V>(
    w: &mut ByteWriter,
    mut pairs: Vec<(&K, V)>,
    save: impl Fn(&V, &mut ByteWriter),
) {
    pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
    w.u32(pairs.len() as u32);
    for (key, value) in &pairs {
        key.save(w);
        save(value, w);
    }
}

/// Reads pairs written by [`save_sorted`], refusing keys that are not
/// strictly ascending.
fn load_sorted<K: Persist + Ord + Copy, V: Persist>(
    r: &mut ByteReader<'_>,
    mut insert: impl FnMut(K, V),
) -> Result<(), PersistError> {
    let mut last = None;
    for _ in 0..r.u32()? {
        let key = K::load(r)?;
        if last.is_some_and(|last| last >= key) {
            return Err(PersistError::Corrupt("map keys are not strictly ascending"));
        }
        last = Some(key);
        insert(key, V::load(r)?);
    }
    Ok(())
}

impl<K, V, S> Persist for HashMap<K, V, S>
where
    K: Persist + Ord + Hash + Copy,
    V: Persist,
    S: BuildHasher + Default,
{
    fn save(&self, w: &mut ByteWriter) {
        save_sorted(w, self.iter().collect(), |v, w| v.save(w));
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let mut map = HashMap::default();
        load_sorted(r, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}

/// The touched entries and their high-water marks, as a sorted map.
impl<K: Persist + Ord + Hash + Copy> Persist for KeyedMonitor<K> {
    fn save(&self, w: &mut ByteWriter) {
        save_sorted(w, self.iter().collect(), Cycle::save);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let mut monitor = KeyedMonitor::new();
        load_sorted(r, |k, high_water| monitor.set(k, Some(high_water)))?;
        Ok(monitor)
    }
}

/// Implements [`Persist`] for a struct as its listed fields, in order —
/// every field, since loading builds the struct from them. The
/// [`persist_walk!`](crate::persist_walk) example uses it.
#[macro_export]
macro_rules! persist_fields {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::persist::Persist for $ty {
            fn save(&self, w: &mut $crate::persist::ByteWriter) {
                $($crate::persist::Persist::save(&self.$field, w);)+
            }

            fn load(
                r: &mut $crate::persist::ByteReader<'_>,
            ) -> Result<Self, $crate::persist::PersistError> {
                Ok(Self {
                    $($field: $crate::persist::Persist::load(r)?),+
                })
            }
        }
    };
}

/// Implements [`Persist`] for an enum as a one-byte tag followed by the
/// variant's fields; an unknown tag is refused as corrupt with `$what`.
///
/// # Examples
///
/// ```
/// use slacksim_core::persist::{ByteReader, ByteWriter, Persist, PersistError};
///
/// #[derive(Debug, PartialEq)]
/// enum Wait {
///     Nothing,
///     Lock { id: u32 },
///     Fetch(u32),
/// }
/// slacksim_core::persist_enum!(Wait, "unknown wait tag" {
///     0 => Nothing,
///     2 => Lock { id },
///     3 => Fetch(req),
/// });
///
/// let mut w = ByteWriter::new();
/// Wait::Lock { id: 9 }.save(&mut w);
/// assert_eq!(w.into_bytes(), [2, 9, 0, 0, 0]);
/// let back = Wait::load(&mut ByteReader::new(&[3, 1, 0, 0, 0])).unwrap();
/// assert_eq!(back, Wait::Fetch(1));
/// assert!(matches!(
///     Wait::load(&mut ByteReader::new(&[1])),
///     Err(PersistError::Corrupt("unknown wait tag"))
/// ));
/// ```
#[macro_export]
macro_rules! persist_enum {
    ($ty:ty, $what:literal {
        $($tag:literal => $variant:ident $({ $($field:ident),* })? $(( $($item:ident),* ))?),+ $(,)?
    }) => {
        impl $crate::persist::Persist for $ty {
            fn save(&self, w: &mut $crate::persist::ByteWriter) {
                match self {
                    $(Self::$variant $({ $($field),* })? $(( $($item),* ))? => {
                        w.u8($tag);
                        $($($crate::persist::Persist::save($field, w);)*)?
                        $($($crate::persist::Persist::save($item, w);)*)?
                    })+
                }
            }

            fn load(
                r: &mut $crate::persist::ByteReader<'_>,
            ) -> Result<Self, $crate::persist::PersistError> {
                Ok(match r.u8()? {
                    $($tag => Self::$variant
                        $({ $($field: $crate::persist::Persist::load(r)?),* })?
                        $(( $({
                            let $item = $crate::persist::Persist::load(r)?;
                            $item
                        }),* ))?,)+
                    _ => return Err($crate::persist::PersistError::Corrupt($what)),
                })
            }
        }
    };
}

/// One place in a model's byte walk ([`persist_walk!`](crate::persist_walk)):
/// every [`Persist`] value, read by replacement. Models built from
/// configuration have inherent `save_state` / `load_state` methods of the
/// same shape instead — method resolution prefers them — and read into
/// themselves, so configuration is validated, never stored.
pub trait Field {
    /// Appends the place's bytes.
    fn save_state(&self, w: &mut ByteWriter);

    /// Reads the place's bytes into it.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] for truncated or malformed bytes.
    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError>;
}

impl<T: Persist> Field for T {
    fn save_state(&self, w: &mut ByteWriter) {
        self.save(w);
    }

    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        *self = T::load(r)?;
        Ok(())
    }
}

/// Declares a model's snapshot bytes as the list of its places, in byte
/// order, and derives the model's `save_state` / `load_state` from it.
///
/// `|m|` names the model inside the list. A place may be a nested path
/// (`m.hot.cycles`) and may be any [`Field`]: a [`Persist`] value or
/// another model. `; cores N` refuses every core id at or past `N` as it
/// is read ([`ByteReader::within_cores`]); `; then CHECK` runs `CHECK` (a
/// `Result<(), PersistError>`) after every place has loaded — the
/// model's own rules on what it read. Loading resets no capture
/// bookkeeping (generations, stamps, recorded baselines): it is for a
/// freshly built model that has never been captured.
///
/// # Examples
///
/// ```
/// use slacksim_core::event::CoreId;
/// use slacksim_core::persist::{ByteReader, ByteWriter, PersistError};
///
/// #[derive(Debug, PartialEq)]
/// struct Job {
///     owner: CoreId,
///     done: Option<u64>,
/// }
/// slacksim_core::persist_fields! { Job { owner, done } }
///
/// struct Queue {
///     cores: usize,
///     jobs: Vec<Job>,
///     served: u64,
/// }
/// slacksim_core::persist_walk! { Queue, |q| q.served, q.jobs; cores q.cores }
///
/// let job = Job { owner: CoreId::new(1), done: None };
/// let q = Queue { cores: 2, jobs: vec![job], served: 9 };
/// let mut w = ByteWriter::new();
/// q.save_state(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes.len(), 8 + 4 + (2 + 1));
/// let mut back = Queue { cores: 2, jobs: vec![], served: 0 };
/// back.load_state(&mut ByteReader::new(&bytes)).unwrap();
/// assert_eq!((back.served, &back.jobs[..]), (9, &q.jobs[..]));
/// back.cores = 1;
/// let err = back.load_state(&mut ByteReader::new(&bytes));
/// assert!(matches!(err, Err(PersistError::Corrupt(_))));
/// ```
#[macro_export]
macro_rules! persist_walk {
    ($ty:ty, |$model:ident| $($place:expr),+ $(,)?
        $(; cores $cores:expr)? $(; then $check:expr)?) => {
        impl $ty {
            /// Appends this model's snapshot bytes (DESIGN §13).
            pub fn save_state(&self, w: &mut $crate::persist::ByteWriter) {
                #[allow(unused_imports)]
                use $crate::persist::Field as _;
                let $model = self;
                $($place.save_state(w);)+
            }

            /// Reads bytes written by `save_state` into this model, which
            /// must be freshly built from the configuration that wrote
            /// them: configuration is validated against, never read, and
            /// capture bookkeeping is not reset.
            ///
            /// # Errors
            ///
            /// Returns a `PersistError` for malformed bytes or for state
            /// this configuration cannot hold.
            pub fn load_state(
                &mut self,
                r: &mut $crate::persist::ByteReader<'_>,
            ) -> Result<(), $crate::persist::PersistError> {
                #[allow(unused_imports)]
                use $crate::persist::Field as _;
                let $model = self;
                r.within_cores(usize::MAX $(.min($cores))?, |r| {
                    $($place.load_state(r)?;)+
                    $($check?;)?
                    Ok(())
                })
            }
        }
    };
}

/// Wrap a payload in a (version-2) snapshot container.
pub fn encode_container(fingerprint: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + fingerprint.len() + payload.len());
    push_header(&mut out, fingerprint);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Appends the container fields that precede the payload length: magic,
/// version and the length-prefixed fingerprint.
fn push_header(out: &mut Vec<u8>, fingerprint: &str) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(fingerprint.len() as u32).to_le_bytes());
    out.extend_from_slice(fingerprint.as_bytes());
}

/// Length and checksum fields between the fingerprint and the payload.
const SEAL_LEN: usize = 16;

/// Starts a container in `buf` (whatever it held is discarded, its
/// capacity kept): the header is written, the length and checksum fields
/// are left zeroed for [`seal_container`], and the returned writer
/// appends the payload directly behind them — no second copy of it is
/// ever made.
fn begin_container(mut buf: Vec<u8>, fingerprint: &str) -> ByteWriter {
    buf.clear();
    push_header(&mut buf, fingerprint);
    buf.extend_from_slice(&[0; SEAL_LEN]);
    ByteWriter { buf }
}

/// Finishes a container started by [`begin_container`]: patches the
/// payload length and its FNV-1a into the reserved fields, after which
/// `bytes` equals what [`encode_container`] returns for the same
/// fingerprint and payload.
fn seal_container(bytes: &mut [u8]) {
    let fp_len = u32::from_le_bytes(bytes[12..16].try_into().expect("four bytes")) as usize;
    let (head, payload) = bytes.split_at_mut(16 + fp_len + SEAL_LEN);
    let seal = &mut head[16 + fp_len..];
    seal[..8].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    seal[8..].copy_from_slice(&fnv1a(payload).to_le_bytes());
}

/// Validate a snapshot container and return `(fingerprint, payload)`.
///
/// Checks magic, format version, structural completeness and the payload
/// checksum; the caller compares the fingerprint against its own run
/// configuration (see [`check_fingerprint`]) and decodes the payload.
pub fn decode_container(bytes: &[u8]) -> Result<(&str, &[u8]), PersistError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(8)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let fp = std::str::from_utf8(r.bytes()?)
        .map_err(|_| PersistError::Corrupt("non-UTF-8 fingerprint"))?;
    let len = r.u64()? as usize;
    let expected = r.u64()?;
    let payload = r.take(len)?;
    if r.remaining() != 0 {
        return Err(PersistError::Corrupt("trailing bytes after payload"));
    }
    let found = fnv1a(payload);
    if found != expected {
        return Err(PersistError::ChecksumMismatch { expected, found });
    }
    Ok((fp, payload))
}

/// Compare a snapshot fingerprint against the current run configuration.
pub fn check_fingerprint(expected: &str, found: &str) -> Result<(), PersistError> {
    if expected == found {
        Ok(())
    } else {
        Err(PersistError::ConfigMismatch {
            expected: expected.to_string(),
            found: found.to_string(),
        })
    }
}

/// Retry backoff schedule for transient I/O errors during atomic writes.
const RETRY_BACKOFF: [Duration; 2] = [Duration::from_millis(10), Duration::from_millis(50)];

/// Atomically replace `path` with `bytes`: write to a sibling temp file,
/// fsync, then rename over the target. Transient I/O errors are retried
/// with bounded backoff (three attempts total); the temp file is removed
/// on failure so aborted writes leave no debris.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let tmp = tmp_sibling(path);
    let mut last_err: Option<io::Error> = None;
    for (attempt, _) in (0..=RETRY_BACKOFF.len()).enumerate() {
        if attempt > 0 {
            std::thread::sleep(RETRY_BACKOFF[attempt - 1]);
        }
        match try_write(&tmp, path, bytes) {
            Ok(()) => return Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                last_err = Some(e);
            }
        }
    }
    Err(PersistError::Io(
        last_err.expect("at least one attempt ran"),
    ))
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

fn try_write(tmp: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = std::fs::File::create(tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(tmp, path)?;
    Ok(())
}

/// Removes every `cp-<ordinal>` file in `dir` other than `keep`, and every
/// `cp-<ordinal>.tmp` — the half-written side of an atomic write that a
/// killed predecessor never renamed. Failures are ignored: pruning is
/// housekeeping, and a leftover older checkpoint is still a valid resume
/// point.
fn sweep_checkpoints(dir: &Path, keep: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(stem) = name.to_str().and_then(|n| n.strip_prefix("cp-")) else {
            continue;
        };
        let ordinal = stem.strip_suffix(".tmp").unwrap_or(stem);
        let path = entry.path();
        if ordinal.parse::<u64>().is_ok() && path != keep {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One sealed-to-be container on its way to the writer thread.
struct Job {
    ordinal: u64,
    bytes: Vec<u8>,
}

/// The writer thread: seals each container, writes it atomically as
/// `cp-<ordinal>`, removes the file it wrote before, and sends the buffer
/// back with whether the checkpoint is now durable.
fn write_behind(dir: &Path, jobs: &Receiver<Job>, done: &SyncSender<(Vec<u8>, bool)>) {
    let mut previous: Option<PathBuf> = None;
    for Job { ordinal, mut bytes } in jobs {
        seal_container(&mut bytes);
        let path = dir.join(format!("cp-{ordinal:08}"));
        let durable = match write_atomic(&path, &bytes) {
            Ok(()) => {
                match previous.replace(path.clone()) {
                    // The one directory scan of the run: it also clears
                    // what an earlier run of this directory left behind.
                    None => sweep_checkpoints(dir, &path),
                    Some(old) => {
                        if old != path {
                            let _ = std::fs::remove_file(old);
                        }
                    }
                }
                true
            }
            Err(e) => {
                eprintln!(
                    "warning: failed to persist checkpoint {}: {e}",
                    path.display()
                );
                false
            }
        };
        if done.send((bytes, durable)).is_err() {
            break;
        }
    }
}

struct WriterThread {
    jobs: SyncSender<Job>,
    done: Receiver<(Vec<u8>, bool)>,
    handle: JoinHandle<()>,
}

impl WriterThread {
    /// `None`, after a warning, when the host refuses another thread.
    fn spawn(dir: PathBuf) -> Option<Self> {
        let (jobs, inbox) = sync_channel(1);
        let (outbox, done) = sync_channel(1);
        let spawned = std::thread::Builder::new()
            .name("cp-writer".to_owned())
            .spawn(move || write_behind(&dir, &inbox, &outbox));
        match spawned {
            Ok(handle) => Some(WriterThread { jobs, done, handle }),
            Err(e) => {
                eprintln!("warning: cannot start the checkpoint writer thread: {e}");
                None
            }
        }
    }
}

/// Write-behind persistence of a run's checkpoints (DESIGN §13.1).
///
/// The simulation thread calls [`begin`](Self::begin), encodes the
/// snapshot payload into the writer it gets, and passes that to
/// [`submit`](Self::submit); checksum, `write_atomic` and pruning happen on
/// a writer thread spawned by the first `submit`. At most one checkpoint
/// is in flight: `submit` first waits for the previous one to be renamed
/// into place, so checkpoints reach the directory in order and the
/// snapshot bytes live in exactly two buffers, swapped every checkpoint.
/// [`drain`](Self::drain) — and `Drop` — wait for the last one.
///
/// A checkpoint that cannot be written costs one warning on standard
/// error and is counted; it never stops the run.
pub struct CheckpointWriter {
    dir: PathBuf,
    fingerprint: String,
    /// The buffer the next snapshot is encoded into.
    spare: Vec<u8>,
    /// Largest container this run has produced, which is the capacity
    /// both buffers settle at: neither keeps `Vec`'s doubling slack.
    high: usize,
    thread: Option<WriterThread>,
    in_flight: bool,
    submitted: u64,
    failed: u64,
}

impl CheckpointWriter {
    /// A writer persisting into `dir` (which must exist by the first
    /// `submit`) under the given config fingerprint. Spawns nothing and
    /// reserves nothing: a run that commits no checkpoint pays for neither
    /// a thread nor a buffer.
    pub fn new(dir: PathBuf, fingerprint: String) -> Self {
        CheckpointWriter {
            dir,
            fingerprint,
            spare: Vec::new(),
            high: 0,
            thread: None,
            in_flight: false,
            submitted: 0,
            failed: 0,
        }
    }

    /// Starts the next checkpoint's container in the spare buffer; the
    /// caller appends the payload.
    pub fn begin(&mut self) -> ByteWriter {
        let spare = std::mem::take(&mut self.spare);
        let mut w = begin_container(spare, &self.fingerprint);
        // Room for the largest snapshot so far: a fresh buffer gets it in
        // one step, a recycled one has it already.
        w.buf.reserve_exact(self.high.saturating_sub(w.buf.len()));
        w
    }

    /// Hands the finished container of checkpoint `ordinal` to the writer
    /// thread, after waiting for the previous checkpoint to become
    /// durable, and returns its size in bytes.
    pub fn submit(&mut self, ordinal: u64, container: ByteWriter) -> u64 {
        let mut bytes = container.into_bytes();
        let len = bytes.len();
        self.high = self.high.max(len);
        // A snapshot larger than any before it had `Vec` double the
        // buffer under it; the excess goes back. Snapshots of one run
        // differ by several percent either way once the caches are warm,
        // so sizing to the largest, not the latest, is what keeps this
        // rare.
        if bytes.capacity() > self.high {
            bytes.shrink_to(self.high);
        }
        self.collect();
        self.submitted += 1;
        if self.thread.is_none() {
            self.thread = WriterThread::spawn(self.dir.clone());
        }
        let job = Job { ordinal, bytes };
        let lost = match &self.thread {
            Some(thread) => thread.jobs.send(job).err().map(|SendError(job)| job),
            None => Some(job),
        };
        match lost {
            None => self.in_flight = true,
            // No writer thread (never started, or it panicked): this
            // checkpoint is lost, the run goes on.
            Some(job) => {
                self.failed += 1;
                self.spare = job.bytes;
            }
        }
        len as u64
    }

    /// Waits for the checkpoint in flight, if any, and takes its buffer
    /// back as the next spare.
    fn collect(&mut self) {
        if !std::mem::take(&mut self.in_flight) {
            return;
        }
        let thread = self.thread.as_ref().expect("a checkpoint is in flight");
        match thread.done.recv() {
            Ok((bytes, durable)) => {
                self.spare = bytes;
                self.failed += u64::from(!durable);
            }
            Err(_) => self.failed += 1,
        }
    }

    /// Waits until every submitted checkpoint has been written (or has
    /// failed), stops the writer thread, and returns how many checkpoints
    /// could not be persisted and how many were submitted.
    pub fn drain(&mut self) -> (u64, u64) {
        self.collect();
        if let Some(thread) = self.thread.take() {
            drop(thread.jobs);
            // A panicked writer already shows as failed checkpoints.
            let _ = thread.handle.join();
        }
        (self.failed, self.submitted)
    }
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        let (failed, submitted) = self.drain();
        if failed > 0 {
            eprintln!("warning: {failed} of {submitted} checkpoints could not be persisted");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip_all_primitives() {
        let mut w = ByteWriter::new();
        w.u8(0xab);
        w.bool(true);
        w.bool(false);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.f64(-0.15625);
        w.bytes(b"abc");
        w.str("fingerprint");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), -0.15625);
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert_eq!(r.str().unwrap(), "fingerprint");
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_not_panics() {
        let mut w = ByteWriter::new();
        w.u64(42);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(matches!(r.u64(), Err(PersistError::Truncated)));
        }
    }

    #[test]
    fn container_round_trip() {
        let payload = b"some payload bytes";
        let bytes = encode_container("bench=fft;cores=8", payload);
        let (fp, body) = decode_container(&bytes).unwrap();
        assert_eq!(fp, "bench=fft;cores=8");
        assert_eq!(body, payload);
    }

    #[test]
    fn container_detects_bad_magic_version_checksum_truncation() {
        let bytes = encode_container("fp", b"payload");

        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            decode_container(&bad),
            Err(PersistError::BadMagic)
        ));

        let mut bad = bytes.clone();
        bad[8] = 0xfe; // version low byte
        assert!(matches!(
            decode_container(&bad),
            Err(PersistError::UnsupportedVersion(_))
        ));

        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01; // flip a payload bit
        assert!(matches!(
            decode_container(&bad),
            Err(PersistError::ChecksumMismatch { .. })
        ));

        for cut in 0..bytes.len() {
            match decode_container(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncated container at {cut} decoded successfully"),
            }
        }
    }

    #[test]
    fn version_3_containers_are_refused() {
        let mut bytes = encode_container("fp", b"payload with shard section");
        assert_eq!(bytes[8..12], FORMAT_VERSION.to_le_bytes());
        // The checksum covers the payload only: restamping is enough.
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        let err = decode_container(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::UnsupportedVersion(3)));
        assert!(err
            .to_string()
            .starts_with("unsupported snapshot format version 3"));
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        assert!(check_fingerprint("a", "a").is_ok());
        let err = check_fingerprint("run-a", "snap-b").unwrap_err();
        assert!(matches!(err, PersistError::ConfigMismatch { .. }));
        assert!(err.to_string().contains("run-a"));
        assert!(err.to_string().contains("snap-b"));
    }

    /// Deterministic filler: every byte value, no short period.
    fn payload_of(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + i / 251) as u8).collect()
    }

    #[test]
    fn in_place_framing_equals_the_copying_encoder_byte_for_byte() {
        // The buffer is recycled across every case, so each container is
        // also framed over the remains of the one before it.
        let mut buf = Vec::new();
        for len in [0, 1, 283_000] {
            for fingerprint in ["", "bench=WATER/scheme=bounded-slack:16/cores=8"] {
                let payload = payload_of(len);
                let mut w = begin_container(buf, fingerprint);
                for &b in &payload {
                    w.u8(b);
                }
                buf = w.into_bytes();
                seal_container(&mut buf);
                assert!(
                    buf == encode_container(fingerprint, &payload),
                    "{len}-byte payload, fingerprint {fingerprint:?}"
                );
                let (fp, body) = decode_container(&buf).unwrap();
                assert_eq!((fp, body.len()), (fingerprint, len));
            }
        }
    }

    /// A fresh directory for one test's checkpoint files.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("slacksim-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn names_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    fn submit_payload(writer: &mut CheckpointWriter, ordinal: u64, payload: &[u8]) -> u64 {
        let mut w = writer.begin();
        for &b in payload {
            w.u8(b);
        }
        writer.submit(ordinal, w)
    }

    #[test]
    fn writer_keeps_the_newest_checkpoint_and_sweeps_the_directory_once() {
        let dir = scratch_dir("writer");
        std::fs::write(dir.join("cp-00000003"), b"an earlier run's checkpoint").unwrap();
        std::fs::write(dir.join("cp-00000007.tmp"), b"torn by a SIGKILL").unwrap();
        std::fs::write(dir.join("cp-notes.txt"), b"not ours").unwrap();

        let mut writer = CheckpointWriter::new(dir.clone(), "fp".to_owned());
        assert!(writer.thread.is_none(), "no thread before the first submit");
        for ordinal in 1..=5u64 {
            let payload = payload_of(1000 + ordinal as usize);
            let bytes = submit_payload(&mut writer, ordinal, &payload);
            assert_eq!(
                bytes as usize,
                encode_container("fp", &payload).len(),
                "submit reports the container size"
            );
            assert!(writer.thread.is_some());
            if ordinal == 1 {
                // Debris dropped after the one sweep is nobody's to remove.
                writer.collect();
                std::fs::write(dir.join("cp-00000000"), b"appeared mid-run").unwrap();
            }
        }
        assert_eq!(writer.drain(), (0, 5));
        assert!(writer.thread.is_none(), "drain joins the thread");
        assert_eq!(
            names_in(&dir),
            ["cp-00000000", "cp-00000005", "cp-notes.txt"],
            "the sweep took the old checkpoint and the temp file, the \
             predecessor chain took 1..=4, and nothing scanned again"
        );
        let newest = std::fs::read(dir.join("cp-00000005")).unwrap();
        assert!(newest == encode_container("fp", &payload_of(1005)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_buffers_are_sized_to_the_largest_snapshot_exactly() {
        let dir = scratch_dir("sizing");
        let mut writer = CheckpointWriter::new(dir.clone(), "fp".to_owned());
        let header = encode_container("fp", b"").len();
        // Grows, then wanders below its maximum, as a run's snapshots do.
        let lens = [40_000, 90_000, 300_000, 280_000, 295_000, 270_000, 300_000];
        let mut high = 0;
        for (i, len) in lens.into_iter().enumerate() {
            // The two buffers alternate; whichever comes up has exactly
            // the room the largest snapshot so far needed, `Vec`'s
            // doubling during a record-size encode given back.
            let mut w = writer.begin();
            if i > 0 {
                assert_eq!(w.buf.capacity(), high, "buffer for snapshot {i}");
            }
            for b in payload_of(len) {
                w.u8(b);
            }
            writer.submit(i as u64 + 1, w);
            high = high.max(header + len);
        }
        assert_eq!(writer.drain(), (0, lens.len() as u64));
        assert_eq!(writer.spare.capacity(), high);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_without_a_directory_fails_every_checkpoint_and_nothing_else() {
        let parent = scratch_dir("missing");
        let dir = parent.join("never-created");
        let mut writer = CheckpointWriter::new(dir.clone(), "fp".to_owned());
        for ordinal in 1..=3 {
            submit_payload(&mut writer, ordinal, b"payload");
        }
        assert_eq!(writer.drain(), (3, 3), "(failed, submitted)");
        assert_eq!(writer.drain(), (3, 3), "draining twice is harmless");
        assert!(!dir.exists());
        assert!(names_in(&parent).is_empty(), "no temp file anywhere");
        std::fs::remove_dir_all(&parent).unwrap();
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("slacksim-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
