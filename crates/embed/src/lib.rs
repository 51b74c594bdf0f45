//! # sb-embed — sentence embeddings and the discriminative phase
//!
//! The paper uses SentenceBERT embeddings twice: as an automatic metric
//! (Table 3's "SentenceBERT" row) and inside the discriminative phase
//! (Phase 4), which keeps the candidate NL questions closest to the
//! geometric median of all candidates (Equation 1).
//!
//! This crate substitutes a deterministic, dependency-free embedding: each
//! sentence is mapped to a 256-dimensional vector by signed feature hashing
//! of its lower-cased word unigrams, word bigrams, and character trigrams,
//! then L2-normalized. Paraphrases share most n-grams and land close in
//! cosine space, which is the only property the pipeline relies on.

pub mod discriminate;

pub use discriminate::{select_top_k, Discriminator};

/// Embedding dimensionality.
pub const DIM: usize = 256;

/// A dense sentence embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding(pub [f32; DIM]);

impl Embedding {
    /// The zero vector (embedding of an empty sentence).
    pub fn zero() -> Self {
        Embedding([0.0; DIM])
    }

    /// Cosine similarity in `[-1, 1]`; 0 when either vector is zero.
    pub fn cosine(&self, other: &Embedding) -> f32 {
        let mut dot = 0.0f32;
        let mut na = 0.0f32;
        let mut nb = 0.0f32;
        for i in 0..DIM {
            dot += self.0[i] * other.0[i];
            na += self.0[i] * self.0[i];
            nb += other.0[i] * other.0[i];
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            // Clamp away float rounding that can push a self-similarity
            // infinitesimally past 1.
            (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a 64-bit hash, continued from state `h` — stable across
/// platforms and runs, which keeps the whole benchmark build
/// deterministic. Hashing `a` then `b` from [`FNV_OFFSET`] equals hashing
/// their concatenation, which lets [`embed`] hash a feature in pieces.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// [`fnv1a`] over one character's UTF-8 bytes.
fn fnv1a_char(h: u64, ch: char) -> u64 {
    fnv1a(h, ch.encode_utf8(&mut [0; 4]).as_bytes())
}

/// Add a feature by its finished FNV-1a hash.
fn add_feature(v: &mut [f32; DIM], h: u64, weight: f32) {
    let idx = (h % DIM as u64) as usize;
    // The next bit decides the sign: signed hashing keeps the expectation
    // of collisions at zero.
    let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
    v[idx] += sign * weight;
}

/// Lower-case word tokens (alphanumeric runs).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The characters of [`tokenize`]'s tokens, in order, with `None` after
/// each token — the token stream without building a `String`. The
/// bit-identity test compares [`embed`], which walks this, against a
/// reference built on [`tokenize`].
fn for_each_token_char(text: &str, mut f: impl FnMut(Option<char>)) {
    let mut in_token = false;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            in_token = true;
            ch.to_lowercase().for_each(|lc| f(Some(lc)));
        } else if in_token {
            in_token = false;
            f(None);
        }
    }
    if in_token {
        f(None);
    }
}

/// Embed a sentence: signed-hash word unigrams (weight 1.0), word bigrams
/// (0.7) and character trigrams (0.3), then L2-normalize.
///
/// Features are the strings `w:{token}`, `b:{token} {next}` and
/// `c:{trigram}` (character trigrams of the tokens joined by single
/// spaces). Each is hashed by streaming its bytes through FNV-1a rather
/// than formatting it, so embedding allocates nothing. The three feature
/// kinds are added in three passes, in that order, because the float
/// sums (and so the vector's bits) depend on the order of additions.
pub fn embed(text: &str) -> Embedding {
    let mut v = [0.0f32; DIM];
    // Unigrams.
    let w = fnv1a(FNV_OFFSET, b"w:");
    let mut h = w;
    for_each_token_char(text, |ch| match ch {
        Some(ch) => h = fnv1a_char(h, ch),
        None => {
            add_feature(&mut v, h, 1.0);
            h = w;
        }
    });
    // Bigrams: `cur` hashes "b:{token}" for the token being read, which
    // is the prefix of the next bigram; `pair` continues the previous
    // token's prefix through " " and this token.
    let b = fnv1a(FNV_OFFSET, b"b:");
    let mut cur = b;
    let mut pair: Option<u64> = None;
    for_each_token_char(text, |ch| match ch {
        Some(ch) => {
            cur = fnv1a_char(cur, ch);
            pair = pair.map(|p| fnv1a_char(p, ch));
        }
        None => {
            if let Some(p) = pair {
                add_feature(&mut v, p, 0.7);
            }
            pair = Some(fnv1a(cur, b" "));
            cur = b;
        }
    });
    // Character trigrams over the space-joined tokens.
    let c = fnv1a(FNV_OFFSET, b"c:");
    let mut window: [char; 2] = ['\0'; 2];
    let mut seen = 0usize;
    let mut push = |v: &mut [f32; DIM], ch: char| {
        if seen >= 2 {
            let h = fnv1a_char(fnv1a_char(fnv1a_char(c, window[0]), window[1]), ch);
            add_feature(v, h, 0.3);
        }
        window = [window[1], ch];
        seen += 1;
    };
    let mut pending_space = false;
    for_each_token_char(text, |ch| match ch {
        Some(ch) => {
            if pending_space {
                push(&mut v, ' ');
                pending_space = false;
            }
            push(&mut v, ch);
        }
        None => pending_space = true,
    });
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    Embedding(v)
}

/// Mean cosine similarity of aligned sentence pairs — the corpus-level
/// "SentenceBERT score" used in Table 3.
pub fn corpus_similarity(pairs: &[(String, String)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let total: f64 = pairs
        .iter()
        .map(|(a, b)| embed(a).cosine(&embed(b)) as f64)
        .sum();
    total / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original `format!`-based embedding, kept as the reference the
    /// streaming [`embed`] must match bit for bit.
    fn embed_reference(text: &str) -> Embedding {
        fn add(v: &mut [f32; DIM], feature: &str, weight: f32) {
            add_feature(v, fnv1a(FNV_OFFSET, feature.as_bytes()), weight);
        }
        let tokens = tokenize(text);
        let mut v = [0.0f32; DIM];
        for t in &tokens {
            add(&mut v, &format!("w:{t}"), 1.0);
        }
        for pair in tokens.windows(2) {
            add(&mut v, &format!("b:{} {}", pair[0], pair[1]), 0.7);
        }
        let joined = tokens.join(" ");
        let chars: Vec<char> = joined.chars().collect();
        for tri in chars.windows(3) {
            let g: String = tri.iter().collect();
            add(&mut v, &format!("c:{g}"), 0.3);
        }
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        Embedding(v)
    }

    fn assert_bit_identical(text: &str) {
        let got = embed(text);
        let want = embed_reference(text);
        for (i, (g, w)) in got.0.iter().zip(want.0.iter()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{text:?}: dimension {i}");
        }
    }

    #[test]
    fn streaming_embed_is_bit_identical_to_the_format_reference() {
        let fixed = [
            "",
            "a",
            "ab",
            "é",
            "中文",
            "?!",
            "...,;:!?",
            "   ",
            "Find all Starburst-galaxies!",
            "How many EU projects started in 2020?",
            "what is the redshift of galaxies with z > 0.5",
            "Straße und Größe: ÄÖÜ",
            "café naïve résumé",
            "中文 查询 数据库",
            "emoji 🚀 rockets 🌌 and galaxies 🔭",
            "İstanbul ΣΊΣΥΦΟΣ",
            "x y z",
            "a-b c_d 12 3.5",
        ];
        for text in fixed {
            assert_bit_identical(text);
        }
        // 1–2 character strings over a mixed alphabet.
        let alphabet = ['a', 'Z', '7', ' ', '-', 'é', 'ß', '中', '🚀', 'İ'];
        for a in alphabet {
            assert_bit_identical(&a.to_string());
            for b in alphabet {
                assert_bit_identical(&format!("{a}{b}"));
            }
        }
        // Seeded random strings over the same alphabet plus ASCII words.
        let mut state: u64 = 0x9e3779b97f4a7c15;
        let pieces = [
            "galaxy", "Star", " ", " ", "-", "é", "ß", "中文", "🚀", "42", "İ", "?", "ab",
        ];
        for _ in 0..500 {
            let mut text = String::new();
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            for k in 0..(state % 12) {
                text.push_str(pieces[((state >> (4 * k)) % pieces.len() as u64) as usize]);
            }
            assert_bit_identical(&text);
        }
    }

    #[test]
    fn tokenizer_lowercases_and_splits() {
        assert_eq!(
            tokenize("Find all Starburst-galaxies!"),
            vec!["find", "all", "starburst", "galaxies"]
        );
        assert!(tokenize("  ").is_empty());
    }

    #[test]
    fn identical_sentences_have_cosine_one() {
        let a = embed("find all starburst galaxies");
        let b = embed("find all starburst galaxies");
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn paraphrases_are_closer_than_unrelated() {
        let q = embed("Find all the starburst galaxies");
        let para = embed("Return every galaxy in the starburst class");
        let unrelated = embed("How many EU projects started in 2020?");
        assert!(q.cosine(&para) > q.cosine(&unrelated));
    }

    #[test]
    fn embeddings_are_normalized() {
        let e = embed("some sentence with several words");
        let norm: f32 = e.0.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_sentence_is_zero() {
        assert_eq!(embed(""), Embedding::zero());
        assert_eq!(embed("").cosine(&embed("hello")), 0.0);
    }

    #[test]
    fn determinism() {
        let a = embed("right ascension and declination");
        let b = embed("right ascension and declination");
        assert_eq!(a, b);
    }

    #[test]
    fn corpus_similarity_averages() {
        let pairs = vec![
            ("same text".to_string(), "same text".to_string()),
            ("".to_string(), "anything".to_string()),
        ];
        let s = corpus_similarity(&pairs);
        assert!((s - 0.5).abs() < 1e-6);
        assert_eq!(corpus_similarity(&[]), 0.0);
    }

    #[test]
    fn cosine_is_symmetric_and_bounded() {
        let texts = [
            "show the count of spectroscopic objects",
            "what is the redshift of galaxies",
            "list projects funded by the EU",
        ];
        for a in &texts {
            for b in &texts {
                let ea = embed(a);
                let eb = embed(b);
                let s1 = ea.cosine(&eb);
                let s2 = eb.cosine(&ea);
                assert!((s1 - s2).abs() < 1e-6);
                assert!((-1.0..=1.0).contains(&s1));
            }
        }
    }
}
