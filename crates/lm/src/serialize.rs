//! Model persistence: a small, versioned, self-describing binary format
//! for trained [`TinyGpt`] weights.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   b"LEJITGPT"                      8 bytes
//! version u32                              (currently 1)
//! config  d_model, n_layers, n_heads, max_seq_len   4 × u32
//! vocab   count: u32, then count × char as u32 (Unicode scalar values)
//! params  count: u32, then per tensor: rows u32, cols u32, rows·cols × f32
//! ```
//!
//! Loading validates the magic, version, vocabulary and every tensor shape
//! against the declared architecture, so a corrupted or mismatched file is
//! an error — never a silently broken model.

#![expect(
    clippy::cast_possible_truncation,
    reason = "the format stores counts and dimensions as u32; a model past 2^32 parameters or symbols is far outside this tiny GPT"
)]

use std::io::{self, Read, Write};
use std::path::Path;

use crate::gpt::{GptConfig, TinyGpt};
use crate::tensor::Matrix;
use crate::tokenizer::Vocab;
use crate::LanguageModel;

const MAGIC: &[u8; 8] = b"LEJITGPT";
const VERSION: u32 = 1;

/// Errors from loading a model file.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a LeJIT model or is structurally invalid.
    Format(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Format(m) => write!(f, "bad model file: {m}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, LoadError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

impl TinyGpt {
    /// Serializes the model to a writer.
    pub fn save<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        write_u32(w, VERSION)?;
        let cfg = self.config();
        for v in [cfg.d_model, cfg.n_layers, cfg.n_heads, cfg.max_seq_len] {
            write_u32(w, v as u32)?;
        }
        let chars = self.vocab().chars();
        write_u32(w, chars.len() as u32)?;
        for &c in chars {
            write_u32(w, c as u32)?;
        }
        let params = self.raw_params();
        write_u32(w, params.len() as u32)?;
        for p in params {
            write_u32(w, p.rows() as u32)?;
            write_u32(w, p.cols() as u32)?;
            for &v in p.data() {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Serializes the model to a file.
    pub fn save_to_path<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        self.save(&mut f)
    }

    /// Loads a model from a reader, validating structure and shapes.
    pub fn load<R: Read>(r: &mut R) -> Result<TinyGpt, LoadError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(LoadError::Format("wrong magic bytes".into()));
        }
        let version = read_u32(r)?;
        if version != VERSION {
            return Err(LoadError::Format(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let d_model = read_u32(r)? as usize;
        let n_layers = read_u32(r)? as usize;
        let n_heads = read_u32(r)? as usize;
        let max_seq_len = read_u32(r)? as usize;
        if d_model == 0 || n_heads == 0 || !d_model.is_multiple_of(n_heads) || max_seq_len == 0 {
            return Err(LoadError::Format("invalid architecture fields".into()));
        }
        let config = GptConfig {
            d_model,
            n_layers,
            n_heads,
            max_seq_len,
        };

        let vocab_len = read_u32(r)? as usize;
        if vocab_len == 0 || vocab_len > 1 << 20 {
            return Err(LoadError::Format("implausible vocabulary size".into()));
        }
        let mut chars = Vec::with_capacity(vocab_len);
        for _ in 0..vocab_len {
            let cp = read_u32(r)?;
            let c = char::from_u32(cp)
                .ok_or_else(|| LoadError::Format(format!("invalid codepoint {cp}")))?;
            chars.push(c);
        }
        let vocab = Vocab::from_chars(chars.clone());
        if vocab.len() != vocab_len {
            return Err(LoadError::Format("duplicate vocabulary entries".into()));
        }

        let n_params = read_u32(r)? as usize;
        if n_params > 1 << 16 {
            return Err(LoadError::Format("implausible parameter count".into()));
        }
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            let rows = read_u32(r)? as usize;
            let cols = read_u32(r)? as usize;
            if rows.saturating_mul(cols) > 1 << 28 {
                return Err(LoadError::Format("implausible tensor size".into()));
            }
            let mut data = vec![0f32; rows * cols];
            let mut buf = [0u8; 4];
            for v in &mut data {
                r.read_exact(&mut buf)?;
                *v = f32::from_le_bytes(buf);
                if !v.is_finite() {
                    return Err(LoadError::Format("non-finite weight".into()));
                }
            }
            params.push(Matrix::from_vec(rows, cols, data));
        }

        TinyGpt::from_parts(config, vocab, params).map_err(LoadError::Format)
    }

    /// Loads a model from a file.
    pub fn load_from_path<P: AsRef<Path>>(path: P) -> Result<TinyGpt, LoadError> {
        let mut f = io::BufReader::new(std::fs::File::open(path)?);
        TinyGpt::load(&mut f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::AdamConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_model() -> TinyGpt {
        let vocab = Vocab::from_corpus("ab,.");
        let seqs = vec![vocab.encode("ab,ab.").unwrap(); 4];
        let mut m = TinyGpt::new(
            GptConfig {
                d_model: 16,
                n_layers: 1,
                n_heads: 2,
                max_seq_len: 16,
            },
            vocab,
            7,
        );
        let mut rng = StdRng::seed_from_u64(1);
        m.train(&seqs, 10, 2, AdamConfig::default(), &mut rng);
        m
    }

    #[test]
    fn roundtrip_preserves_behaviour() {
        let m = trained_model();
        let mut buf = Vec::new();
        m.save(&mut buf).unwrap();
        let loaded = TinyGpt::load(&mut buf.as_slice()).unwrap();
        let ctx = m.vocab().encode("ab,").unwrap();
        assert_eq!(m.next_logits(&ctx), loaded.next_logits(&ctx));
        assert_eq!(m.num_params(), loaded.num_params());
        assert_eq!(m.vocab().chars(), loaded.vocab().chars());
    }

    #[test]
    fn file_roundtrip() {
        let m = trained_model();
        let dir = std::env::temp_dir().join("lejit_gpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        m.save_to_path(&path).unwrap();
        let loaded = TinyGpt::load_from_path(&path).unwrap();
        let ctx = m.vocab().encode("a").unwrap();
        assert_eq!(m.next_logits(&ctx), loaded.next_logits(&ctx));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut data = b"NOTLEJIT".to_vec();
        data.extend_from_slice(&[0u8; 64]);
        match TinyGpt::load(&mut data.as_slice()) {
            Err(LoadError::Format(m)) => assert!(m.contains("magic")),
            Err(other) => panic!("expected format error, got {other}"),
            Ok(_) => panic!("expected format error, got a model"),
        }
    }

    #[test]
    fn rejects_truncated_file() {
        let m = trained_model();
        let mut buf = Vec::new();
        m.save(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(matches!(
            TinyGpt::load(&mut buf.as_slice()),
            Err(LoadError::Io(_))
        ));
    }

    #[test]
    fn rejects_corrupted_weights() {
        let m = trained_model();
        let mut buf = Vec::new();
        m.save(&mut buf).unwrap();
        // Overwrite the last weight with NaN.
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&f32::NAN.to_le_bytes());
        match TinyGpt::load(&mut buf.as_slice()) {
            Err(LoadError::Format(msg)) => assert!(msg.contains("non-finite")),
            Err(other) => panic!("expected format error, got {other}"),
            Ok(_) => panic!("expected format error, got a model"),
        }
    }

    #[test]
    fn rejects_version_mismatch() {
        let m = trained_model();
        let mut buf = Vec::new();
        m.save(&mut buf).unwrap();
        buf[8..12].copy_from_slice(&99u32.to_le_bytes());
        match TinyGpt::load(&mut buf.as_slice()) {
            Err(LoadError::Format(msg)) => assert!(msg.contains("version")),
            Err(other) => panic!("expected format error, got {other}"),
            Ok(_) => panic!("expected format error, got a model"),
        }
    }
}
