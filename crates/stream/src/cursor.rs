//! Serializable paging cursors over the canonical completion order.
//!
//! The canonical order on completions is the lexicographic order of their
//! canonical fingerprints ([`CompletionKey`]): total, deterministic, and
//! independent of how the search tree happens to be walked. A [`Cursor`]
//! names a position in that order — "everything up to and including this
//! fingerprint has been served" — which is exactly keyset pagination: a
//! server can hand the encoded cursor to a client, forget the request, and
//! later resume the enumeration from a *fresh* walk with no retained state
//! beyond the cursor itself.
//!
//! The encoding is a plain ASCII string (relation indices and constant
//! identifiers in decimal), versioned with an `incdbs1:` prefix so future
//! formats can coexist, and strictly validated on decode. It depends on the
//! fingerprint's relation *indices*, which follow the lexicographic
//! relation order of the table — a cursor is only meaningful against the
//! same database schema it was produced from.

use std::fmt::{self, Write as _};
use std::str::FromStr;

use incdb_data::{CompletionKey, Constant};

/// The version prefix of the cursor wire format.
const PREFIX: &str = "incdbs1";

/// A resumable position in the canonical (fingerprint-lexicographic)
/// completion order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cursor {
    /// The fingerprint of the last completion handed out; `None` means the
    /// enumeration has not yielded anything yet.
    after: Option<CompletionKey>,
}

impl Cursor {
    /// The cursor before the first completion.
    pub fn start() -> Cursor {
        Cursor { after: None }
    }

    /// A cursor positioned immediately after the completion with the given
    /// fingerprint.
    pub fn after(key: CompletionKey) -> Cursor {
        Cursor { after: Some(key) }
    }

    /// Returns `true` if no completion was yielded yet.
    pub fn is_start(&self) -> bool {
        self.after.is_none()
    }

    /// The fingerprint of the last yielded completion, if any.
    pub fn last_key(&self) -> Option<&CompletionKey> {
        self.after.as_ref()
    }

    /// Encodes the cursor as a plain ASCII string (see the module docs).
    /// The inverse of [`Cursor::decode`].
    pub fn encode(&self) -> String {
        let Some(key) = &self.after else {
            return format!("{PREFIX}:start");
        };
        // Written straight into the one output string: no per-fact or
        // per-value allocation.
        let mut out = format!("{PREFIX}:after:");
        for (i, (rel, tuple)) in key.iter().enumerate() {
            let sep = if i == 0 { "" } else { ";" };
            write!(out, "{sep}{rel}:").expect("writing to a String cannot fail");
            for (j, c) in tuple.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                write!(out, "{sep}{}", c.0).expect("writing to a String cannot fail");
            }
        }
        out
    }

    /// Decodes a cursor previously produced by [`Cursor::encode`],
    /// rejecting anything malformed.
    ///
    /// The decoder is **strict**: it accepts exactly the image of
    /// [`Cursor::encode`], so `decode(s)` succeeding implies
    /// `decode(s)?.encode() == s`. In particular decimal numbers must be
    /// canonical (no sign, no leading zeros, no whitespace) — two distinct
    /// wire strings never name the same cursor, and nothing a serving
    /// layer hands out can be forged into an equivalent-but-different
    /// ticket.
    pub fn decode(s: &str) -> Result<Cursor, CursorDecodeError> {
        let Some(rest) = s.strip_prefix(PREFIX) else {
            return Err(CursorDecodeError::BadPrefix);
        };
        if rest == ":start" {
            return Ok(Cursor::start());
        }
        let Some(body) = rest.strip_prefix(":after:") else {
            return Err(CursorDecodeError::BadShape);
        };
        if body.is_empty() {
            // The empty fingerprint: a completion with no facts.
            return Ok(Cursor::after(CompletionKey::new()));
        }
        let mut key = CompletionKey::new();
        for fact in body.split(';') {
            let bad = || CursorDecodeError::BadFact {
                fact: fact.to_string(),
            };
            let Some((rel, values)) = fact.split_once(':') else {
                return Err(bad());
            };
            let rel = strict_u64(rel)
                .and_then(|r| usize::try_from(r).ok())
                .ok_or_else(bad)?;
            let mut tuple = Vec::new();
            if !values.is_empty() {
                for value in values.split(',') {
                    tuple.push(Constant(strict_u64(value).ok_or_else(bad)?));
                }
            }
            key.push((rel, tuple));
        }
        // A fingerprint is canonical: sorted and duplicate-free. Reject
        // cursors that could never have been produced by `encode`.
        if key.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(CursorDecodeError::NotCanonical);
        }
        Ok(Cursor::after(key))
    }
}

/// Strict decimal parse: exactly the digit strings [`Cursor::encode`]
/// emits. Rejects what `u64::from_str` would silently admit — a leading
/// `+`, leading zeros — as well as anything non-digit, over-long or
/// overflowing, so the accepted wire language has one spelling per value.
fn strict_u64(s: &str) -> Option<u64> {
    let canonical =
        s == "0" || (!s.is_empty() && !s.starts_with('0') && s.bytes().all(|b| b.is_ascii_digit()));
    if !canonical {
        return None;
    }
    s.parse().ok()
}

impl fmt::Display for Cursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

impl FromStr for Cursor {
    type Err = CursorDecodeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Cursor::decode(s)
    }
}

/// Why a cursor string failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CursorDecodeError {
    /// The string does not start with the `incdbs1` format prefix.
    BadPrefix,
    /// The string is neither a `start` nor an `after` cursor.
    BadShape,
    /// One fact of the fingerprint body failed to parse.
    BadFact {
        /// The offending fact fragment.
        fact: String,
    },
    /// The fact list is not sorted and duplicate-free, so it is not a
    /// canonical fingerprint.
    NotCanonical,
}

impl fmt::Display for CursorDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CursorDecodeError::BadPrefix => {
                write!(f, "cursor does not start with the '{PREFIX}' prefix")
            }
            CursorDecodeError::BadShape => {
                write!(
                    f,
                    "cursor is neither '{PREFIX}:start' nor '{PREFIX}:after:…'"
                )
            }
            CursorDecodeError::BadFact { fact } => {
                write!(f, "unparseable cursor fact {fact:?}")
            }
            CursorDecodeError::NotCanonical => {
                write!(f, "cursor fact list is not sorted and deduplicated")
            }
        }
    }
}

impl std::error::Error for CursorDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(facts: &[(usize, &[u64])]) -> CompletionKey {
        facts
            .iter()
            .map(|(rel, tuple)| (*rel, tuple.iter().map(|&c| Constant(c)).collect()))
            .collect()
    }

    #[test]
    fn roundtrips() {
        for (cursor, wire) in [
            (Cursor::start(), "incdbs1:start"),
            (Cursor::after(CompletionKey::new()), "incdbs1:after:"),
            (Cursor::after(key(&[(0, &[7])])), "incdbs1:after:0:7"),
            (
                Cursor::after(key(&[(0, &[1, 2]), (1, &[]), (3, &[u64::MAX])])),
                "incdbs1:after:0:1,2;1:;3:18446744073709551615",
            ),
        ] {
            let encoded = cursor.encode();
            assert_eq!(encoded, wire);
            assert_eq!(Cursor::decode(&encoded).unwrap(), cursor, "{encoded}");
            assert_eq!(encoded.parse::<Cursor>().unwrap(), cursor);
            assert_eq!(cursor.to_string(), encoded);
        }
        assert!(Cursor::start().is_start());
        assert!(!Cursor::after(key(&[(0, &[7])])).is_start());
    }

    #[test]
    fn rejects_malformed_cursors() {
        assert_eq!(
            Cursor::decode("nonsense"),
            Err(CursorDecodeError::BadPrefix)
        );
        assert_eq!(
            Cursor::decode("incdbs1:resume"),
            Err(CursorDecodeError::BadShape)
        );
        assert!(matches!(
            Cursor::decode("incdbs1:after:0"),
            Err(CursorDecodeError::BadFact { .. })
        ));
        assert!(matches!(
            Cursor::decode("incdbs1:after:x:1"),
            Err(CursorDecodeError::BadFact { .. })
        ));
        assert!(matches!(
            Cursor::decode("incdbs1:after:0:1,oops"),
            Err(CursorDecodeError::BadFact { .. })
        ));
        // Unsorted and duplicated fact lists are not canonical fingerprints.
        assert_eq!(
            Cursor::decode("incdbs1:after:1:1;0:2"),
            Err(CursorDecodeError::NotCanonical)
        );
        assert_eq!(
            Cursor::decode("incdbs1:after:0:1;0:1"),
            Err(CursorDecodeError::NotCanonical)
        );
    }

    /// The strictness invariant the wire format promises: whenever decode
    /// accepts, re-encoding reproduces the input byte for byte. Anything
    /// else means two wire strings name one cursor — a forgeable ticket.
    fn assert_strict(s: &str) {
        if let Ok(cursor) = Cursor::decode(s) {
            assert_eq!(
                cursor.encode(),
                s,
                "decode silently accepted a non-canonical spelling"
            );
        }
    }

    #[test]
    fn rejects_number_spellings_encode_never_emits() {
        // `u64::from_str` accepts all of these; the wire format must not.
        for s in [
            "incdbs1:after:+0:1",
            "incdbs1:after:0:+1",
            "incdbs1:after:00:1",
            "incdbs1:after:0:01",
            "incdbs1:after:0:1,007",
            "incdbs1:after:01:",
        ] {
            assert!(
                matches!(Cursor::decode(s), Err(CursorDecodeError::BadFact { .. })),
                "accepted {s:?}"
            );
        }
        // Overflow is an error, not a wrap or a panic.
        assert!(Cursor::decode("incdbs1:after:0:18446744073709551616").is_err());
        assert!(Cursor::decode("incdbs1:after:99999999999999999999999999:1").is_err());
        // u64::MAX itself is fine.
        assert!(Cursor::decode("incdbs1:after:0:18446744073709551615").is_ok());
    }

    #[test]
    fn truncation_never_panics_or_lies() {
        // Every prefix of every valid encoding either fails to decode or
        // decodes to something that re-encodes to that exact prefix.
        let cursors = [
            Cursor::start(),
            Cursor::after(CompletionKey::new()),
            Cursor::after(key(&[(0, &[7])])),
            Cursor::after(key(&[(0, &[1, 2]), (1, &[]), (3, &[u64::MAX])])),
            Cursor::after(key(&[(10, &[0, 0, 0]), (11, &[100, 200])])),
        ];
        for cursor in &cursors {
            let encoded = cursor.encode();
            for cut in 0..encoded.len() {
                assert_strict(&encoded[..cut]);
            }
        }
    }

    #[test]
    fn corruption_fuzz_never_panics_or_silently_accepts() {
        // Deterministic mutation fuzz over valid encodings: byte
        // substitutions at every position, insertions, deletions, segment
        // duplications and swaps. Strictness must hold for every mutant —
        // and a mutant that still decodes must mean exactly what it says.
        let seeds = [
            Cursor::start().encode(),
            Cursor::after(CompletionKey::new()).encode(),
            Cursor::after(key(&[(0, &[7])])).encode(),
            Cursor::after(key(&[(0, &[1, 2]), (1, &[]), (3, &[u64::MAX])])).encode(),
            Cursor::after(key(&[(2, &[30, 40]), (5, &[9])])).encode(),
        ];
        let alphabet: Vec<char> = "0123456789:;,+- abcièstartafter\u{0}\n".chars().collect();
        let mut fuzzed = 0usize;
        for seed in &seeds {
            for i in 0..seed.len() {
                if !seed.is_char_boundary(i) {
                    continue;
                }
                for &c in &alphabet {
                    // Substitute one character.
                    let mut sub: String = seed[..i].to_string();
                    sub.push(c);
                    sub.extend(seed[i..].chars().skip(1));
                    assert_strict(&sub);
                    // Insert one character.
                    let mut ins: String = seed[..i].to_string();
                    ins.push(c);
                    ins.push_str(&seed[i..]);
                    assert_strict(&ins);
                    fuzzed += 2;
                }
                // Delete one character.
                let mut del: String = seed[..i].to_string();
                del.extend(seed[i..].chars().skip(1));
                assert_strict(&del);
                // Length-lying: duplicate the tail after this position.
                let mut dup = seed.clone();
                dup.push_str(&seed[i..]);
                assert_strict(&dup);
                fuzzed += 2;
            }
            // Segment-level attacks: repeat and reorder `;`-separated facts.
            if let Some(body) = seed.strip_prefix("incdbs1:after:") {
                let facts: Vec<&str> = body.split(';').collect();
                for a in 0..facts.len() {
                    for b in 0..facts.len() {
                        let mut swapped = facts.clone();
                        swapped.swap(a, b);
                        let mut shuffled = swapped.join(";");
                        shuffled.insert_str(0, "incdbs1:after:");
                        assert_strict(&shuffled);
                        fuzzed += 1;
                    }
                }
            }
        }
        assert!(fuzzed > 4000, "the fuzz corpus collapsed ({fuzzed} cases)");
    }

    #[test]
    fn xorshift_fuzz_random_bytes_never_panic() {
        // A deterministic xorshift stream of arbitrary ASCII-and-beyond
        // strings, with and without the magic prefix grafted on: decode
        // must return — never panic, hang or accept non-canonically.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let len = (next() % 40) as usize;
            let raw: String = (0..len)
                .map(|_| char::from_u32((next() % 128) as u32).unwrap_or('?'))
                .collect();
            assert_strict(&raw);
            let grafted = format!("incdbs1:{raw}");
            assert_strict(&grafted);
            let after = format!("incdbs1:after:{raw}");
            assert_strict(&after);
        }
    }
}
