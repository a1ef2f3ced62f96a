//! Deterministic structural fingerprints.
//!
//! Memoization layers (the profiler's step cache, the sweep-cell dedup in
//! `pim-sim`) key on the *structure* of a value, not its address. Rather
//! than deriving `Hash` across every cost-model type — many carry `f64`
//! fields, which have no `Hash` impl — we hash the value's `Debug`
//! rendering. `Debug` output is a pure function of the value for the
//! derive-generated impls used throughout this workspace, and
//! [`DefaultHasher`] uses fixed keys, so the fingerprint is stable within
//! and across processes.

use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Debug, Write};
use std::hash::Hasher;

/// Streams `fmt::Write` text straight into a hasher, so fingerprinting
/// never materializes the formatted string.
struct HashWriter(DefaultHasher);

impl Write for HashWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// A deterministic 64-bit fingerprint of a value's `Debug` rendering.
///
/// # Examples
///
/// ```
/// use pim_common::fingerprint::debug_hash;
/// assert_eq!(debug_hash(&(1, "a")), debug_hash(&(1, "a")));
/// assert_ne!(debug_hash(&(1, "a")), debug_hash(&(2, "a")));
/// ```
pub fn debug_hash<T: Debug + ?Sized>(value: &T) -> u64 {
    let mut w = HashWriter(DefaultHasher::new());
    write!(w, "{value:?}").expect("hashing writer never fails");
    w.0.finish()
}

/// [`debug_hash`] of strings that share a prefix, with the prefix hashed
/// once: [`StrPrefixHash::hash_with`]`(rest)` equals
/// `debug_hash(&(prefix + rest))`.
///
/// A string's `Debug` rendering escapes each character on its own, so the
/// rendering of `prefix + rest` is the rendering of `prefix` without its
/// closing quote followed by that of `rest` without its opening quote, and
/// the hasher, fed a byte stream, does not see where one write ends.
///
/// # Examples
///
/// ```
/// use pim_common::fingerprint::{debug_hash, StrPrefixHash};
/// let head = StrPrefixHash::new("config=\"a\";");
/// assert_eq!(head.hash_with("steps=2"), debug_hash("config=\"a\";steps=2"));
/// ```
#[derive(Debug, Clone)]
pub struct StrPrefixHash(DefaultHasher);

impl StrPrefixHash {
    /// The hasher state after the rendering of `prefix`, up to but not
    /// including its closing quote.
    pub fn new(prefix: &str) -> Self {
        let rendered = format!("{prefix:?}");
        let mut hasher = DefaultHasher::new();
        hasher.write(&rendered.as_bytes()[..rendered.len() - 1]);
        StrPrefixHash(hasher)
    }

    /// `debug_hash` of the prefix followed by `rest`.
    pub fn hash_with(&self, rest: &str) -> u64 {
        /// Drops the opening quote of `rest`'s rendering.
        struct AfterQuote(HashWriter, bool);
        impl Write for AfterQuote {
            fn write_str(&mut self, mut s: &str) -> fmt::Result {
                if self.1 && !s.is_empty() {
                    // The opening quote is one ASCII byte.
                    s = &s[1..];
                    self.1 = false;
                }
                self.0.write_str(s)
            }
        }
        let mut w = AfterQuote(HashWriter(self.0.clone()), true);
        write!(w, "{rest:?}").expect("hashing writer never fails");
        w.0 .0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splitting a string anywhere, escapes and non-ASCII included, hashes
    /// like the whole.
    #[test]
    fn prefix_hash_equals_the_whole_strings_hash() {
        const ALPHABET: [char; 10] = [
            'a', '"', '\\', '\n', '\u{301}', 'é', '{', ';', '\u{7f}', '=',
        ];
        crate::rng::check(200, "prefix_hash", |g| {
            let text: String = g
                .vec(0..24, |g| ALPHABET[g.draw(0..ALPHABET.len())])
                .into_iter()
                .collect();
            let split = text
                .char_indices()
                .map(|(i, _)| i)
                .nth(g.draw(0..=text.chars().count()));
            let (prefix, rest) = text.split_at(split.unwrap_or(text.len()));
            assert_eq!(
                StrPrefixHash::new(prefix).hash_with(rest),
                debug_hash(&text),
                "{prefix:?} + {rest:?}"
            );
        });
    }

    #[test]
    fn identical_values_fingerprint_identically() {
        let a = vec![(1.5f64, "Conv2D"), (2.25, "MatMul")];
        let b = a.clone();
        assert_eq!(debug_hash(&a), debug_hash(&b));
    }

    #[test]
    fn distinct_values_fingerprint_distinctly() {
        assert_ne!(debug_hash(&1.0f64), debug_hash(&2.0f64));
        assert_ne!(debug_hash("x"), debug_hash("y"));
    }
}
