//! Character-level tokenization.
//!
//! The paper deliberately adopts character-level tokenization ("treats
//! numeric values as plain text … generating each number digit by digit") so
//! the SMT-driven transition system can steer generation at digit
//! granularity. A [`Vocab`] is a bijection between the characters observed
//! in a corpus and dense token ids.

#![expect(
    clippy::cast_possible_truncation,
    reason = "TokenId is u32 and every id indexes a vocabulary built from a character corpus of a few hundred symbols"
)]

use std::collections::BTreeMap;

/// A token identifier (an index into the vocabulary).
pub type TokenId = u32;

/// A character-level vocabulary.
#[derive(Clone, Debug)]
pub struct Vocab {
    chars: Vec<char>,
    ids: BTreeMap<char, TokenId>,
}

impl Vocab {
    /// Builds a vocabulary from the set of characters in `corpus`, sorted
    /// for determinism.
    pub fn from_corpus(corpus: &str) -> Vocab {
        let mut chars: Vec<char> = corpus.chars().collect();
        chars.sort_unstable();
        chars.dedup();
        Vocab::from_chars(chars)
    }

    /// Builds a vocabulary from an explicit character list (deduplicated,
    /// order preserved after sorting).
    pub fn from_chars(mut chars: Vec<char>) -> Vocab {
        chars.sort_unstable();
        chars.dedup();
        let ids = chars
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as TokenId))
            .collect();
        Vocab { chars, ids }
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.chars.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.chars.is_empty()
    }

    /// The token id of a character, if present.
    pub fn id_of(&self, c: char) -> Option<TokenId> {
        self.ids.get(&c).copied()
    }

    /// The character of a token id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn char_of(&self, id: TokenId) -> char {
        self.chars[id as usize]
    }

    /// All characters in id order.
    pub fn chars(&self) -> &[char] {
        &self.chars
    }

    /// Encodes a string; characters missing from the vocabulary are an error.
    pub fn encode(&self, text: &str) -> Result<Vec<TokenId>, char> {
        text.chars().map(|c| self.id_of(c).ok_or(c)).collect()
    }

    /// Decodes token ids back to a string.
    pub fn decode(&self, tokens: &[TokenId]) -> String {
        tokens.iter().map(|&t| self.char_of(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let v = Vocab::from_corpus("hello world 0123456789,;|=");
        let enc = v.encode("hello 42").unwrap();
        assert_eq!(v.decode(&enc), "hello 42");
    }

    #[test]
    fn deterministic_ids() {
        let v1 = Vocab::from_corpus("bca");
        let v2 = Vocab::from_corpus("abc");
        assert_eq!(v1.chars(), v2.chars());
        assert_eq!(v1.id_of('a'), Some(0));
        assert_eq!(v1.id_of('b'), Some(1));
        assert_eq!(v1.id_of('c'), Some(2));
    }

    #[test]
    fn unknown_char_errors() {
        let v = Vocab::from_corpus("abc");
        assert_eq!(v.encode("abz"), Err('z'));
    }

    #[test]
    fn from_chars_dedups() {
        let v = Vocab::from_chars(vec!['a', 'a', 'b']);
        assert_eq!(v.len(), 2);
    }
}
