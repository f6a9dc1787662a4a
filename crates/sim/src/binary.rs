//! `QADBIN`: the byte stream of a checkpoint file, written from and read
//! into typed values with no tree in between.
//!
//! [`to_vec`] is a `serde::Emitter` and [`from_slice`] a `serde::Source`:
//! the derived impls of the snapshot types push packet columns, Q-rows,
//! events and the backlog straight into the bytes and pull them straight
//! out, so a checkpoint costs about what it stores (the writer holds the
//! stream once, at most doubled by `Vec` growth; the reader holds the
//! decoded value and nothing else).
//!
//! # Format
//!
//! ```text
//! stream := MAGIC  dictionary  value
//! dictionary := varint count, count × (varint length, UTF-8 bytes)
//! ```
//!
//! [`MAGIC`] is 8 bytes and embeds a codec version byte, so readers can
//! tell a snapshot from JSON and an old reader refuses a new layout
//! cleanly. A value is one tag byte and its payload:
//!
//! * **Key dictionary** — every distinct map key is stored once, in the
//!   order the keys are first met walking the value; a map is `T_MAP`,
//!   varint count, then (varint dictionary index, value) per entry.
//! * **Varint integers** — `T_INT` and a zigzag LEB128 of the `i128`, so
//!   the small counters and ids that dominate event and arena state take
//!   1–2 bytes.
//! * **Sequences are encoded by what they hold, not by their type.** A
//!   non-empty sequence whose elements are all integers is `T_ISEQ`,
//!   varint count, bare varints. One whose elements are all floats is
//!   `T_FSEQ`, varint count, 8-byte little-endian words — or, when
//!   `runs * 9 < count * 8`, `T_FSEQ_RLE`, varint count, then (varint run
//!   length, 8-byte word) per run: fresh two-level Q-table rows repeat
//!   one initial value per slot group and collapse to a few bytes. Any
//!   other sequence, the empty one included, is `T_SEQ`, varint count,
//!   tagged values. So a `Vec<Option<u32>>` is `T_ISEQ` until it holds a
//!   `None`.
//! * **Runs are bit-exact.** Two floats belong to one run when their bit
//!   patterns are equal: `0.0` and `-0.0` do not merge, identical NaNs
//!   do. Every `f64` bit pattern therefore round-trips (the JSON writer
//!   renders non-finite floats as `null`; this codec does not).
//!
//! # Reading damaged or hostile files
//!
//! Every length is checked before it is used: a count cannot exceed the
//! bytes left (each element takes at least one), counts, lengths and key
//! indices above 2^64 are refused rather than truncated, nesting is capped
//! at [`MAX_DEPTH`], and — since one 9-byte run may legitimately expand to
//! a whole Q-table — run-length totals are charged against an expansion
//! budget of [`EXPANSION_BUDGET`] elements per byte of stream. Buffers are
//! allocated with `try_reserve_exact`, once their count has passed its
//! bound. Errors name the byte offset and, through the derived impls, the
//! dotted path of the field being read.

use serde::{Deserialize, Emitter, Error, Kind, Scalar, Serialize, Source};
use std::collections::HashMap;

/// First 8 bytes of every stream. The trailing byte is the codec version;
/// bump it on any incompatible layout change so old readers reject new
/// files cleanly instead of mis-decoding them.
pub(crate) const MAGIC: &[u8; 8] = b"QADBIN\x00\x01";

// Value tags (one byte each, after the header).
const T_NULL: u8 = 0;
const T_FALSE: u8 = 1;
const T_TRUE: u8 = 2;
const T_INT: u8 = 3; // zigzag varint i128
const T_FLOAT: u8 = 4; // 8-byte LE f64
const T_STR: u8 = 5; // varint byte length + UTF-8 bytes
const T_SEQ: u8 = 6; // varint count + tagged values
const T_MAP: u8 = 7; // varint count + (varint key index, tagged value)*
const T_FSEQ: u8 = 8; // varint count + count × 8-byte LE f64
const T_FSEQ_RLE: u8 = 9; // varint count + (varint run, 8-byte LE f64)*
const T_ISEQ: u8 = 10; // varint count + count × zigzag varint i128

/// Decode guard: the snapshot types are shallow (structs in structs, a few
/// levels), so anything deeper is a corrupted stream, and bounding it
/// keeps the recursive readers off unbounded stack growth.
const MAX_DEPTH: usize = 64;

/// Run-length encoded floats a stream may expand to, per byte of stream.
/// The densest real content is a fresh Q-table of the 110,976-node
/// system: 161,840 values in a run or two, some 15,000 elements per byte
/// if a file held nothing else; the snapshots the tests, the CI smoke and
/// the benchmark write stay below one (0.02 on the 72-node fixture, 0.7 on
/// a paged 110,976-node one). Four times the first figure keeps every
/// such file readable and leaves a damaged total no room to ask for more
/// than half a MiB per byte actually present.
const EXPANSION_BUDGET: usize = 1 << 16;

/// Whether `bytes` begin with the magic (any codec version). JSON
/// documents start with `{`, so the two are never ambiguous.
pub(crate) fn looks_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..7] == MAGIC[..7]
}

/// Serialise `value` to a stream.
pub(crate) fn to_vec<T: Serialize>(value: &T) -> Vec<u8> {
    let mut w = Writer {
        follows: vec![0],
        ..Writer::default()
    };
    value.serialize(&mut w);
    debug_assert!(w.open.is_empty(), "every begin met its end");
    // The dictionary is only complete now, and it goes first: open a gap
    // in front of the body rather than copy the body behind a new header.
    let mut header = MAGIC.to_vec();
    write_varint(&mut header, w.keys.len() as u128);
    for key in &w.keys {
        write_varint(&mut header, key.len() as u128);
        header.extend_from_slice(key.as_bytes());
    }
    w.body.reserve_exact(header.len());
    w.body.splice(0..0, header);
    w.body.shrink_to_fit();
    w.body
}

/// Parse a stream into `T`.
pub(crate) fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut r = Reader::open(bytes)?;
    let value = T::deserialize(&mut r).map_err(|e| {
        if r.failed {
            return e;
        }
        // A well-formed stream of the wrong shape: the typed layer refused
        // it, and its error has no offset of its own.
        Error(format!("{} (binary stream, near byte {})", e.0, r.pos))
    })?;
    if r.pos != bytes.len() {
        return Err(r.err("trailing bytes after the value"));
    }
    Ok(value)
}

fn write_varint(out: &mut Vec<u8>, mut v: u128) {
    // Nearly every value fits a machine word: shift that, not two.
    while v > u64::MAX as u128 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    let mut v = v as u64;
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(i: i128) -> u128 {
    ((i << 1) ^ (i >> 127)) as u128
}

fn unzigzag(u: u128) -> i128 {
    ((u >> 1) as i128) ^ -((u & 1) as i128)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// What an open sequence has held so far; decides its tag at `seq_end`.
#[derive(Clone, Copy, PartialEq)]
enum Held {
    Nothing,
    /// Only integers, written as bare varints.
    Ints,
    /// Only floats, written as bare words.
    Floats,
    /// Something else came: every element carries its tag.
    Mixed,
}

struct OpenSeq {
    /// Where the sequence's tag byte is.
    tag_at: usize,
    /// Where its first element starts.
    items_at: usize,
    held: Held,
}

#[derive(Default)]
struct Writer {
    /// The value, before the header that `to_vec` puts in front of it.
    body: Vec<u8>,
    /// The dictionary: distinct keys in first-seen order.
    keys: Vec<Box<str>>,
    index: HashMap<Box<str>, u32>,
    /// `follows[1 + i]` is the key that came after key `i` the last time
    /// (`follows[0]`: the first key of all), and `last` the slot of the key
    /// written last. A snapshot is the same few structs a hundred thousand
    /// times over, so the guess is nearly always right, and checking it
    /// is one string comparison where the index costs a hash per entry.
    follows: Vec<u32>,
    last: usize,
    /// Open containers, innermost last (`None` is a map).
    open: Vec<Option<OpenSeq>>,
    /// Bare elements of one sequence while they are rewritten.
    scratch: Vec<u8>,
}

impl Writer {
    /// Announce the next value to the innermost open container; returns
    /// whether the value carries its own tag. Only a sequence that has held
    /// nothing but `bare` (ints or floats) takes the value bare; anything
    /// else turns the sequence into a tagged one, elements so far included.
    fn tagged(&mut self, bare: Option<Held>) -> bool {
        let Some(Some(seq)) = self.open.last_mut() else {
            return true;
        };
        match (seq.held, bare) {
            (Held::Nothing, Some(kind)) => seq.held = kind,
            (held, Some(kind)) if held == kind => {}
            (Held::Nothing | Held::Mixed, _) => {
                seq.held = Held::Mixed;
                return true;
            }
            (Held::Ints | Held::Floats, _) => {
                let (at, held) = (seq.items_at, seq.held);
                seq.held = Held::Mixed;
                self.scratch.clear();
                self.scratch.extend_from_slice(&self.body[at..]);
                self.body.truncate(at);
                let mut rest = self.scratch.as_slice();
                while !rest.is_empty() {
                    let (tag, len) = match held {
                        Held::Ints => (
                            T_INT,
                            1 + rest.iter().take_while(|b| **b & 0x80 != 0).count(),
                        ),
                        _ => (T_FLOAT, 8),
                    };
                    self.body.push(tag);
                    self.body.extend_from_slice(&rest[..len]);
                    rest = &rest[len..];
                }
                return true;
            }
        }
        false
    }

    /// Write the tag of a value that always carries one; returns where.
    fn tag(&mut self, tag: u8) -> usize {
        self.tagged(None);
        self.body.push(tag);
        self.body.len() - 1
    }

    /// Write `words` as (run length, word) pairs.
    fn runs(&mut self, words: impl Iterator<Item = u64>) {
        let mut words = words.peekable();
        while let Some(w) = words.next() {
            let mut run: u128 = 1;
            while words.next_if_eq(&w).is_some() {
                run += 1;
            }
            write_varint(&mut self.body, run);
            self.body.extend_from_slice(&w.to_le_bytes());
        }
    }
}

/// Whether `len` floats (non-empty, as bit patterns) are smaller run-length
/// encoded than packed. Runs compare bit patterns, not values.
fn run_length_wins(words: impl Iterator<Item = u64>, len: usize) -> bool {
    let mut runs = 0;
    let mut last = None;
    for w in words {
        runs += usize::from(last != Some(w));
        last = Some(w);
    }
    runs * 9 < len * 8
}

/// The bit pattern of one packed float.
fn bits(word: &[u8]) -> u64 {
    u64::from_le_bytes(word.try_into().expect("8-byte chunk"))
}

impl Emitter for Writer {
    fn null(&mut self) {
        self.tag(T_NULL);
    }

    fn bool(&mut self, b: bool) {
        self.tag(if b { T_TRUE } else { T_FALSE });
    }

    fn int(&mut self, i: i128) {
        if self.tagged(Some(Held::Ints)) {
            self.body.push(T_INT);
        }
        write_varint(&mut self.body, zigzag(i));
    }

    fn float(&mut self, f: f64) {
        if self.tagged(Some(Held::Floats)) {
            self.body.push(T_FLOAT);
        }
        self.body.extend_from_slice(&f.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.tag(T_STR);
        write_varint(&mut self.body, s.len() as u128);
        self.body.extend_from_slice(s.as_bytes());
    }

    fn seq_begin(&mut self, len: usize) {
        let tag_at = self.tag(T_SEQ);
        write_varint(&mut self.body, len as u128);
        self.open.push(Some(OpenSeq {
            tag_at,
            items_at: self.body.len(),
            held: Held::Nothing,
        }));
    }

    fn seq_end(&mut self) {
        let seq = self.open.pop().flatten().expect("a sequence is open");
        match seq.held {
            Held::Nothing | Held::Mixed => {}
            Held::Ints => self.body[seq.tag_at] = T_ISEQ,
            Held::Floats => {
                let packed = &self.body[seq.items_at..];
                if !run_length_wins(packed.chunks_exact(8).map(bits), packed.len() / 8) {
                    self.body[seq.tag_at] = T_FSEQ;
                    return;
                }
                let mut packed = std::mem::take(&mut self.scratch);
                packed.clear();
                packed.extend_from_slice(&self.body[seq.items_at..]);
                self.body.truncate(seq.items_at);
                self.body[seq.tag_at] = T_FSEQ_RLE;
                self.runs(packed.chunks_exact(8).map(bits));
                self.scratch = packed;
            }
        }
    }

    fn floats(&mut self, items: &[f64]) {
        let tag_at = self.tag(T_SEQ);
        write_varint(&mut self.body, items.len() as u128);
        let words = items.iter().map(|f| f.to_bits());
        if items.is_empty() {
            // The empty sequence has no element kind: it stays a `T_SEQ`.
        } else if run_length_wins(words.clone(), items.len()) {
            self.body[tag_at] = T_FSEQ_RLE;
            self.runs(words);
        } else {
            self.body[tag_at] = T_FSEQ;
            self.body.reserve(items.len() * 8);
            for w in words {
                self.body.extend_from_slice(&w.to_le_bytes());
            }
        }
    }

    fn map_begin(&mut self, len: usize) {
        self.tag(T_MAP);
        write_varint(&mut self.body, len as u128);
        self.open.push(None);
    }

    fn key(&mut self, key: &str) {
        let guess = self.follows[self.last];
        let index = match self.keys.get(guess as usize) {
            Some(guessed) if **guessed == *key => guess,
            _ => {
                let index = match self.index.get(key) {
                    Some(&index) => index,
                    None => {
                        let index = self.keys.len() as u32;
                        self.keys.push(key.into());
                        self.index.insert(key.into(), index);
                        self.follows.push(0);
                        index
                    }
                };
                self.follows[self.last] = index;
                index
            }
        };
        self.last = 1 + index as usize;
        write_varint(&mut self.body, index as u128);
    }

    fn map_end(&mut self) {
        let map = self.open.pop().expect("a map is open");
        debug_assert!(map.is_none(), "the innermost open container is a map");
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// An open container of the stream being read.
enum Open {
    /// `T_SEQ`: every element carries its tag. Also the state of the
    /// stream outside any container.
    Tagged,
    /// `T_ISEQ`: bare varints.
    Ints,
    /// `T_FSEQ`: bare words.
    Floats,
    /// `T_FSEQ_RLE`: `in_run` more copies of `word`, then the next run;
    /// `left` elements in all.
    Runs {
        word: f64,
        in_run: usize,
        left: usize,
    },
    /// `T_MAP` with `left` entries unread; `hint` is the index after the
    /// last field matched (streams list fields in declaration order).
    Map { left: usize, hint: usize },
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    keys: Vec<&'a str>,
    /// The innermost open container, and the ones around it.
    top: Open,
    outer: Vec<Open>,
    /// Run-length encoded elements the stream may still expand to.
    budget: usize,
    /// Whether an error came from here (and so names its offset).
    failed: bool,
}

/// The shape a tag stands for.
fn shape(tag: u8) -> Option<Kind> {
    Some(match tag {
        T_NULL => Kind::Null,
        T_FALSE | T_TRUE => Kind::Bool,
        T_INT => Kind::Int,
        T_FLOAT => Kind::Float,
        T_STR => Kind::Str,
        T_SEQ | T_FSEQ | T_FSEQ_RLE | T_ISEQ => Kind::Seq,
        T_MAP => Kind::Map,
        _ => return None,
    })
}

impl<'a> Reader<'a> {
    /// Check the header and read the dictionary.
    fn open(bytes: &'a [u8]) -> Result<Self, Error> {
        if !looks_binary(bytes) {
            return Err(Error::msg(
                "not a binary checkpoint stream (bad magic; expected a QADBIN header)",
            ));
        }
        if bytes[7] != MAGIC[7] {
            return Err(Error::msg(format!(
                "binary codec version {} is not supported (this build reads version {})",
                bytes[7], MAGIC[7]
            )));
        }
        let mut r = Reader {
            bytes,
            pos: MAGIC.len(),
            keys: Vec::new(),
            top: Open::Tagged,
            outer: Vec::new(),
            budget: bytes.len().saturating_mul(EXPANSION_BUDGET),
            failed: false,
        };
        // Each key needs at least its 1-byte length prefix.
        let nkeys = r.count()?;
        serde::reserve(&mut r.keys, nkeys)?;
        for _ in 0..nkeys {
            let key = r.text()?;
            r.keys.push(key);
        }
        Ok(r)
    }

    #[cold]
    fn err(&mut self, what: &str) -> Error {
        self.failed = true;
        Error::msg(format!(
            "truncated or corrupted binary stream at byte {}: {what}",
            self.pos
        ))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.bytes.len() - self.pos < n {
            return Err(self.err("unexpected end of input"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u128, Error> {
        // Nine bytes carry 63 bits: nearly every value ends within them,
        // in one machine word.
        let mut low: u64 = 0;
        for shift in (0..63).step_by(7) {
            let b = self.take(1)?[0];
            low |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(low as u128);
            }
        }
        let mut v = low as u128;
        for shift in (63..128).step_by(7) {
            let b = self.take(1)?[0];
            let bits = (b & 0x7f) as u128;
            if bits << shift >> shift != bits {
                break;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.err("varint overflows 128 bits"))
    }

    /// A varint that must index or size something in memory.
    fn size(&mut self) -> Result<usize, Error> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| self.err("count, length or index does not fit in 64 bits"))
    }

    /// An element or byte count: every element of every sequence kind
    /// but the run-length one occupies at least one byte, so a count
    /// beyond the remaining stream is corruption — refused before any
    /// allocation sized by it.
    fn count(&mut self) -> Result<usize, Error> {
        let n = self.size()?;
        if n > self.bytes.len() - self.pos {
            return Err(self.err("count exceeds the remaining stream"));
        }
        Ok(n)
    }

    fn word(&mut self) -> Result<f64, Error> {
        Ok(f64::from_bits(bits(self.take(8)?)))
    }

    /// A length-prefixed UTF-8 string.
    fn text(&mut self) -> Result<&'a str, Error> {
        let len = self.count()?;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| self.err("string is not UTF-8"))
    }

    /// Length of a run-length encoded sequence, charged to the budget.
    fn run_total(&mut self) -> Result<usize, Error> {
        let total = self.size()?;
        if total > self.budget {
            return Err(self.err("run-length total exceeds the expansion budget of the stream"));
        }
        self.budget -= total;
        Ok(total)
    }

    /// Header of the next run of a run-length encoded sequence with `left`
    /// elements to go.
    fn run(&mut self, left: usize) -> Result<(usize, f64), Error> {
        let run = self.size()?;
        if run == 0 || run > left {
            return Err(self.err("bad run length"));
        }
        Ok((run, self.word()?))
    }

    /// Whether the innermost open container holds bare elements: no tags
    /// to read, one shape throughout.
    fn bare(&self) -> Option<Kind> {
        match self.top {
            Open::Ints => Some(Kind::Int),
            Open::Floats | Open::Runs { .. } => Some(Kind::Float),
            Open::Tagged | Open::Map { .. } => None,
        }
    }

    /// Consume the tag of the next value, which must be a container of
    /// shape `kind`.
    fn container(&mut self, what: &str, kind: Kind) -> Result<u8, Error> {
        let found = self.peek()?;
        if found != kind {
            return Err(self.err(&Error::mismatch(what, found).0));
        }
        self.pos += 1;
        Ok(self.bytes[self.pos - 1])
    }

    /// The next element of the run-length encoded sequence on top.
    fn run_word(&mut self, word: f64, in_run: usize, left: usize) -> Result<f64, Error> {
        let (in_run, word) = match in_run {
            0 => self.run(left)?,
            _ => (in_run, word),
        };
        let (in_run, left) = (in_run - 1, left - 1);
        self.top = Open::Runs { word, in_run, left };
        Ok(word)
    }

    fn push(&mut self, open: Open) -> Result<(), Error> {
        if self.outer.len() >= MAX_DEPTH {
            return Err(self.err("value nesting too deep"));
        }
        self.outer.push(std::mem::replace(&mut self.top, open));
        Ok(())
    }

    fn pop(&mut self) {
        self.top = self.outer.pop().unwrap_or(Open::Tagged);
    }

    /// Key of the next entry of the innermost open map.
    fn next_key(&mut self) -> Result<Option<&'a str>, Error> {
        match &mut self.top {
            Open::Map { left: 0, .. } => {
                self.pop();
                Ok(None)
            }
            Open::Map { left, .. } => {
                *left -= 1;
                let index = self.size()?;
                match self.keys.get(index) {
                    Some(&key) => Ok(Some(key)),
                    None => Err(self.err("map key index out of range")),
                }
            }
            _ => Err(self.err("no map is open here")),
        }
    }
}

impl Source for Reader<'_> {
    fn peek(&mut self) -> Result<Kind, Error> {
        if let Some(kind) = self.bare() {
            return Ok(kind);
        }
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(&tag) => match shape(tag) {
                Some(kind) => Ok(kind),
                None => Err(self.err(&format!("unknown value tag {tag}"))),
            },
        }
    }

    fn scalar(&mut self, what: &str) -> Result<Scalar<'_>, Error> {
        match self.top {
            Open::Ints => return Ok(Scalar::Int(unzigzag(self.varint()?))),
            Open::Floats => return self.word().map(Scalar::Float),
            Open::Runs { word, in_run, left } => {
                return self.run_word(word, in_run, left).map(Scalar::Float)
            }
            Open::Tagged | Open::Map { .. } => {}
        }
        let tag = self.take(1)?[0];
        Ok(match tag {
            T_NULL => Scalar::Null,
            T_FALSE => Scalar::Bool(false),
            T_TRUE => Scalar::Bool(true),
            T_INT => Scalar::Int(unzigzag(self.varint()?)),
            T_FLOAT => Scalar::Float(self.word()?),
            T_STR => Scalar::Str(self.text()?),
            _ => {
                self.pos -= 1;
                return Err(match shape(tag) {
                    Some(container) => self.err(&Error::mismatch(what, container).0),
                    None => self.err(&format!("unknown value tag {tag}")),
                });
            }
        })
    }

    fn seq_begin(&mut self) -> Result<usize, Error> {
        let (n, open) = match self.container("sequence", Kind::Seq)? {
            T_SEQ => (self.count()?, Open::Tagged),
            T_ISEQ => (self.count()?, Open::Ints),
            T_FSEQ => (self.count()?, Open::Floats),
            _ => {
                let left = self.run_total()?;
                let (word, in_run) = (0.0, 0);
                (left, Open::Runs { word, in_run, left })
            }
        };
        self.push(open)?;
        Ok(n)
    }

    fn seq_end(&mut self) -> Result<(), Error> {
        match self.top {
            Open::Map { .. } => Err(self.err("no sequence is open here")),
            Open::Runs { left, .. } if left != 0 => Err(self.err("bad run length")),
            _ => {
                self.pop();
                Ok(())
            }
        }
    }

    fn map_begin(&mut self) -> Result<usize, Error> {
        self.container("map", Kind::Map)?;
        let left = self.count()?;
        self.push(Open::Map { left, hint: 0 })?;
        Ok(left)
    }

    fn key(&mut self) -> Result<Option<&str>, Error> {
        self.next_key()
    }

    fn field(&mut self, names: &[&str]) -> Result<Option<usize>, Error> {
        while let Some(key) = self.next_key()? {
            let Open::Map { hint, .. } = &mut self.top else {
                unreachable!("`next_key` returned a key of the open map")
            };
            let found = match names.get(*hint) {
                Some(name) if *name == key => Some(*hint),
                _ => names.iter().position(|name| *name == key),
            };
            match found {
                Some(i) => {
                    *hint = i + 1;
                    return Ok(Some(i));
                }
                None => self.skip()?,
            }
        }
        Ok(None)
    }

    fn floats(&mut self, out: &mut Vec<f64>) -> Result<(), Error> {
        match self.bytes.get(self.pos) {
            Some(&T_FSEQ) if self.bare().is_none() => {
                self.pos += 1;
                let n = self.count()?;
                let words = self.take(n.saturating_mul(8))?;
                serde::reserve(out, n)?;
                out.extend(words.chunks_exact(8).map(|w| f64::from_bits(bits(w))));
                Ok(())
            }
            Some(&T_FSEQ_RLE) if self.bare().is_none() => {
                self.pos += 1;
                let total = self.run_total()?;
                serde::reserve(out, total)?;
                while out.len() < total {
                    let (run, word) = self.run(total - out.len())?;
                    out.resize(out.len() + run, word);
                }
                Ok(())
            }
            // Not a float sequence (the empty one is a `T_SEQ`): let the
            // element reads say what is wrong with it.
            _ => {
                let n = self.seq_begin()?;
                serde::reserve(out, n)?;
                for _ in 0..n {
                    out.push(self.number()?);
                }
                self.seq_end()
            }
        }
    }
}

#[cfg(test)]
#[path = "../tests/common/tree_codec.rs"]
mod tree_codec;

#[cfg(test)]
mod tests {
    use super::tree_codec::value_to_vec;
    use super::*;
    use serde::Value;

    fn sample() -> Value {
        Value::Map(vec![
            ("version".into(), Value::Str("v4".into())),
            (
                "rows".into(),
                Value::Seq(vec![
                    // Repetitive floats → RLE.
                    Value::Seq(vec![Value::Float(1.5); 32]),
                    // Distinct floats → packed.
                    Value::Seq((0..8).map(|i| Value::Float(i as f64 * 0.1)).collect()),
                    // Ints → varint sequence.
                    Value::Seq(vec![Value::Int(-3), Value::Int(0), Value::Int(1 << 40)]),
                    // Mixed → generic.
                    Value::Seq(vec![Value::Int(1), Value::Null, Value::Bool(true)]),
                ]),
            ),
            (
                "nested".into(),
                Value::Map(vec![
                    ("version".into(), Value::Int(4)), // repeated key
                    ("empty_seq".into(), Value::Seq(vec![])),
                    ("empty_map".into(), Value::Map(vec![])),
                    ("nan".into(), Value::Float(f64::NAN)),
                    ("neg".into(), Value::Int(i128::MIN + 1)),
                ]),
            ),
        ])
    }

    /// Structural equality on bit patterns (`Value`'s `PartialEq` has
    /// NaN != NaN and 0.0 == -0.0).
    fn eq(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Seq(x), Value::Seq(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| eq(p, q))
            }
            (Value::Map(x), Value::Map(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|((ka, va), (kb, vb))| ka == kb && eq(va, vb))
            }
            _ => a == b,
        }
    }

    fn decode(bytes: &[u8]) -> Result<Value, Error> {
        from_slice(bytes)
    }

    #[test]
    fn round_trips_every_shape() {
        let v = sample();
        let bytes = to_vec(&v);
        assert!(looks_binary(&bytes));
        assert_eq!(bytes, value_to_vec(&v), "the tree encoder's bytes");
        assert!(
            eq(&v, &decode(&bytes).unwrap()),
            "decode reproduces the tree"
        );
    }

    #[test]
    fn rle_beats_packed_on_repetitive_rows() {
        let repetitive = vec![0.25f64; 1024];
        let distinct: Vec<f64> = (0..1024).map(|i| i as f64).collect();
        let rle = to_vec(&repetitive);
        let packed = to_vec(&distinct);
        assert!(
            rle.len() < 64,
            "1024 identical floats must collapse to a handful of bytes, got {}",
            rle.len()
        );
        assert!(packed.len() > 8 * 1024, "distinct floats stay packed");
        for (bytes, floats) in [(rle, repetitive), (packed, distinct)] {
            let back: Vec<f64> = from_slice(&bytes).unwrap();
            assert_eq!((back.capacity(), &back), (floats.len(), &floats));
            // Element by element (what a tree, or a newtype of a float,
            // makes of the same sequence): the same bytes, the same values.
            let tree = floats.to_value();
            assert_eq!(to_vec(&tree), bytes);
            assert_eq!(decode(&bytes).unwrap(), tree);
        }
    }

    #[test]
    fn runs_are_bit_exact() {
        // Mixed-sign zeros are ten runs, not one run of +0.0; two NaN
        // payloads stay apart; identical NaNs merge into one run.
        let zeros: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        let (quiet, payload) = (f64::NAN, f64::from_bits(f64::NAN.to_bits() | 0xbeef));
        let nans = [vec![quiet; 6], vec![payload; 6], vec![quiet; 20]].concat();
        for floats in [zeros, nans] {
            let bits = |fs: &[f64]| fs.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            let back: Vec<f64> = from_slice(&to_vec(&floats)).unwrap();
            assert_eq!(bits(&back), bits(&floats));
            assert_eq!(to_vec(&floats.to_value()), to_vec(&floats), "both paths");
        }
        let merged = to_vec(&vec![f64::NAN; 32]);
        assert!(merged.len() < 32, "identical NaNs are one run: {merged:?}");
    }

    #[test]
    fn json_is_never_mistaken_for_binary() {
        assert!(!looks_binary(b"{\"version\":\"qadaptive-checkpoint-v3\"}"));
        assert!(!looks_binary(b""));
        assert!(!looks_binary(b"QADBIN")); // too short for the version byte
    }

    #[test]
    fn truncation_is_a_clean_error_everywhere() {
        let bytes = to_vec(&sample());
        // Chop at every prefix length; each must error, never panic or
        // silently succeed (except the full length).
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn corrupted_streams_are_clean_errors() {
        let good = to_vec(&sample());
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(decode(&bad).unwrap_err().0.contains("magic"));
        // Future codec version.
        let mut bad = good.clone();
        bad[7] = 99;
        let err = decode(&bad).unwrap_err();
        assert!(err.0.contains("version 99"), "{err}");
        // Flip every single byte after the header; none may panic, and the
        // decoder must either error or produce some tree — never UB/OOM.
        for i in 8..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xff;
            let _ = decode(&bad);
        }
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(decode(&bad).unwrap_err().0.contains("trailing"));
        // Nesting beyond any snapshot type.
        let mut deep = MAGIC.to_vec();
        deep.push(0); // empty dictionary
        for _ in 0..=MAX_DEPTH {
            deep.extend_from_slice(&[T_SEQ, 1]);
        }
        deep.push(T_NULL);
        assert!(decode(&deep).unwrap_err().0.contains("too deep"));
    }

    #[test]
    fn huge_claimed_counts_do_not_allocate() {
        let stream = |tag: u8, payload: &[u128]| {
            let mut bytes = MAGIC.to_vec();
            bytes.push(0); // empty dictionary
            bytes.push(tag);
            for v in payload {
                write_varint(&mut bytes, *v);
            }
            bytes
        };
        // A corrupted count is rejected by the remaining-bytes bound, not
        // fed to an allocation.
        let err = decode(&stream(T_SEQ, &[u64::MAX as u128])).unwrap_err();
        assert!(err.0.contains("count exceeds"), "{err}");
        // The 30-byte file: one run of 2^40 floats. No byte bound applies
        // to run-length totals; the expansion budget does.
        let mut rle = stream(T_FSEQ_RLE, &[1 << 40, 1 << 40]);
        rle.extend_from_slice(&1.0f64.to_le_bytes());
        assert!(rle.len() <= 30);
        for err in [
            decode(&rle).unwrap_err(),
            from_slice::<Vec<f64>>(&rle).unwrap_err(),
        ] {
            assert!(
                err.0.contains("expansion budget") && err.0.contains("at byte 16"),
                "{err}"
            );
        }
        // Counts above 2^64 are refused, not truncated to something small.
        for tag in [T_SEQ, T_ISEQ, T_FSEQ, T_FSEQ_RLE, T_STR, T_MAP] {
            let err = decode(&stream(tag, &[(1 << 64) + 1, 0])).unwrap_err();
            assert!(err.0.contains("does not fit"), "tag {tag}: {err}");
        }
        let mut key = stream(T_MAP, &[1, 1 << 64]);
        key.push(T_NULL);
        assert!(decode(&key).unwrap_err().0.contains("does not fit"));
    }

    #[test]
    fn varints_cover_the_integer_range() {
        for i in [
            0i128,
            1,
            -1,
            127,
            -128,
            i128::from(u64::MAX),
            -i128::from(u64::MAX),
            i128::MAX,
            i128::MIN,
        ] {
            assert_eq!(unzigzag(zigzag(i)), i, "zigzag round trip of {i}");
            assert_eq!(from_slice::<i128>(&to_vec(&i)).unwrap(), i);
        }
        // A 19th byte may carry two bits, not seven.
        let mut wide = MAGIC.to_vec();
        wide.extend_from_slice(&[0, T_INT]);
        wide.extend_from_slice(&[0xff; 18]);
        wide.push(0x04);
        assert!(decode(&wide).unwrap_err().0.contains("overflows"));
    }

    /// The typed shapes whose encoding depends on their values.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Awkward {
        maybe: Vec<Option<u32>>,
        floats: Vec<f64>,
        narrow: Vec<f32>,
        pairs: std::collections::BTreeMap<(u32, u16), Vec<f64>>,
        queue: std::collections::VecDeque<Option<(u64, u8)>>,
        wide: (i128, u64, i64),
        words: [u64; 4],
        name: String,
        kind: AwkwardKind,
        nested: Vec<Vec<Awkward>>,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum AwkwardKind {
        Plain,
        Wrapped(Vec<Option<u32>>),
        Named { weights: Vec<f64>, empty: Vec<u8> },
    }

    /// splitmix64.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `len` floats in `runs` runs: at `runs * 9 == len * 8` ± 1 the
    /// writer's choice between packed and run-length flips.
    fn floats_in_runs(len: usize, runs: usize, state: &mut u64) -> Vec<f64> {
        let mut out = Vec::new();
        for run in 0..runs {
            let left = runs - run - 1;
            let size = if left == 0 { len - out.len() } else { 1 };
            out.extend(std::iter::repeat_n(
                (next(state) >> 12) as f64 + run as f64 * 0.5,
                size,
            ));
        }
        out
    }

    fn awkward(state: &mut u64, depth: usize) -> Awkward {
        let options = |state: &mut u64| match next(state) % 3 {
            0 => vec![],
            1 => vec![Some(7), Some(u32::MAX), Some(0)],
            _ => vec![Some(7), None, Some(0)],
        };
        // 9 elements: 8 runs → 72 >= 72 packed; 7 runs → 63 < 72 RLE.
        let runs = 6 + (next(state) % 4) as usize;
        let kind = match next(state) % 3 {
            0 => AwkwardKind::Plain,
            1 => AwkwardKind::Wrapped(options(state)),
            _ => AwkwardKind::Named {
                weights: floats_in_runs(18, 15 + (next(state) % 3) as usize, state),
                empty: vec![],
            },
        };
        Awkward {
            maybe: options(state),
            floats: floats_in_runs(9, runs, state),
            narrow: vec![0.1, 0.1, f32::MAX, f32::MIN_POSITIVE],
            pairs: (0..next(state) % 3)
                .map(|i| ((i as u32, 9), floats_in_runs(9, runs - 1, state)))
                .collect(),
            queue: [Some((u64::MAX, 0)), None, Some((1, 255))]
                .into_iter()
                .take((next(state) % 4) as usize)
                .collect(),
            wide: (i128::MIN, u64::MAX, i64::MIN),
            words: [next(state), 0, u64::MAX, 1],
            name: ["", "μ-seconds — naïve", "\u{1F980} \"quoted\"\n"][(next(state) % 3) as usize]
                .to_string(),
            kind,
            nested: match depth {
                0 => vec![],
                _ => vec![vec![], vec![awkward(state, depth - 1)]],
            },
        }
    }

    #[test]
    fn awkward_typed_values_encode_as_their_trees_do() {
        let mut state = 0x5eed;
        for case in 0..200 {
            let v = awkward(&mut state, 2);
            let bytes = to_vec(&v);
            assert_eq!(bytes, value_to_vec(&v.to_value()), "case {case}: {v:?}");
            let back: Awkward = from_slice(&bytes).unwrap();
            assert_eq!(back, v, "case {case}");
            assert_eq!(to_vec(&back), bytes, "case {case}");
            // Nothing a reader keeps was grown by doubling.
            assert_eq!(back.floats.capacity(), back.floats.len());
            assert_eq!(back.maybe.capacity(), back.maybe.len());
            assert_eq!(back.queue.capacity(), back.queue.len());
        }
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Reordered {
        second: Option<u8>,
        #[serde(default)]
        third: Vec<u8>,
        first: u8,
    }

    #[test]
    fn fields_are_read_by_name() {
        // Keys in another order, one unknown, one defaulted, one optional.
        let stream = Value::Map(vec![
            ("first".into(), Value::Int(1)),
            ("later".into(), Value::Seq(vec![Value::Float(0.5); 40])),
            ("second".into(), Value::Int(2)),
        ]);
        let back: Reordered = from_slice(&to_vec(&stream)).unwrap();
        let expected = Reordered {
            second: Some(2),
            third: vec![],
            first: 1,
        };
        assert_eq!(back, expected);
        let stream = Value::Map(vec![("first".into(), Value::Int(1))]);
        let back: Reordered = from_slice(&to_vec(&stream)).unwrap();
        assert_eq!(back.second, None);

        // A missing field names its owner and roughly where; a wrong shape
        // names the path and the offset.
        let err = from_slice::<Reordered>(&to_vec(&Value::Map(vec![]))).unwrap_err();
        assert!(
            err.0.contains("Reordered: missing field `first`") && err.0.contains("near byte"),
            "{err}"
        );
        let stream = Value::Map(vec![("first".into(), Value::Str("one".into()))]);
        let err = from_slice::<Reordered>(&to_vec(&stream)).unwrap_err();
        assert!(
            err.0
                .contains("Reordered.first: expected integer, found string")
                && err.0.contains("near byte"),
            "{err}"
        );
    }
}
