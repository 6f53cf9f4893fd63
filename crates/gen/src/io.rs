//! Corpus persistence: a plain TSV interchange format.
//!
//! One post per line, mirroring the paper's metadata relation plus the
//! text: `sid  uid  lat  lon  kind  rsid  ruid  text`. `kind` is `o`
//! (original), `r` (reply), or `f` (forward); `rsid`/`ruid` are `-` for
//! originals. Text is escaped (`\t`, `\n`, `\\`) so the format round-trips
//! losslessly. The CLI uses this to hand corpora between invocations.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use tklus_geo::Point;
use tklus_model::{Corpus, InteractionKind, Post, ReplyTo, TweetId, UserId};

/// Errors from loading a corpus file.
#[derive(Debug)]
pub enum CorpusIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based number and a description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for CorpusIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusIoError::Io(e) => write!(f, "corpus io error: {e}"),
            CorpusIoError::Parse { line, message } => {
                write!(f, "corpus parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for CorpusIoError {}

impl From<std::io::Error> for CorpusIoError {
    fn from(e: std::io::Error) -> Self {
        CorpusIoError::Io(e)
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\t', "\\t").replace('\n', "\\n")
}

fn unescape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Writes a corpus to `path` in the TSV format.
pub fn save_tsv(corpus: &Corpus, path: &Path) -> Result<(), CorpusIoError> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for post in corpus.posts() {
        let (kind, rsid, ruid) = match post.in_reply_to {
            None => ("o".to_string(), "-".to_string(), "-".to_string()),
            Some(ReplyTo { target, target_user, kind }) => (
                match kind {
                    InteractionKind::Reply => "r".to_string(),
                    InteractionKind::Forward => "f".to_string(),
                },
                target.0.to_string(),
                target_user.0.to_string(),
            ),
        };
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            post.id.0,
            post.user.0,
            post.location.lat(),
            post.location.lon(),
            kind,
            rsid,
            ruid,
            escape(&post.text)
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Loads a corpus from a TSV file written by [`save_tsv`].
pub fn load_tsv(path: &Path) -> Result<Corpus, CorpusIoError> {
    let reader = BufReader::new(std::fs::File::open(path)?);
    let mut posts = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let parse = |message: String| CorpusIoError::Parse { line: lineno, message };
        let fields: Vec<&str> = line.splitn(8, '\t').collect();
        if fields.len() != 8 {
            return Err(parse(format!("expected 8 tab-separated fields, got {}", fields.len())));
        }
        let id: u64 = fields[0].parse().map_err(|e| parse(format!("sid: {e}")))?;
        let uid: u64 = fields[1].parse().map_err(|e| parse(format!("uid: {e}")))?;
        let lat: f64 = fields[2].parse().map_err(|e| parse(format!("lat: {e}")))?;
        let lon: f64 = fields[3].parse().map_err(|e| parse(format!("lon: {e}")))?;
        let location = Point::new(lat, lon).map_err(|e| parse(format!("location: {e}")))?;
        let text = unescape(fields[7]).into();
        let in_reply_to = match fields[4] {
            "o" => None,
            kind @ ("r" | "f") => {
                let target: u64 = fields[5].parse().map_err(|e| parse(format!("rsid: {e}")))?;
                let target_user: u64 =
                    fields[6].parse().map_err(|e| parse(format!("ruid: {e}")))?;
                Some(ReplyTo {
                    target: TweetId(target),
                    target_user: UserId(target_user),
                    kind: if kind == "r" {
                        InteractionKind::Reply
                    } else {
                        InteractionKind::Forward
                    },
                })
            }
            other => return Err(parse(format!("unknown kind {other:?}"))),
        };
        posts.push(Post { id: TweetId(id), user: UserId(uid), location, text, in_reply_to });
    }
    Corpus::new(posts).map_err(|e| CorpusIoError::Parse { line: 0, message: e.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate_corpus, GenConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tklus-io-{}-{name}.tsv", std::process::id()))
    }

    #[test]
    fn roundtrip_generated_corpus() {
        let corpus =
            generate_corpus(&GenConfig { original_posts: 500, users: 100, ..GenConfig::default() });
        let path = tmp("roundtrip");
        save_tsv(&corpus, &path).unwrap();
        let back = load_tsv(&path).unwrap();
        assert_eq!(corpus.len(), back.len());
        assert_eq!(corpus.posts(), back.posts());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn escaping_roundtrips_awkward_text() {
        let posts = vec![
            Post::original(
                TweetId(1),
                UserId(1),
                Point::new_unchecked(1.0, 2.0),
                "tabs\tand\nnewlines and back\\slashes \\t literal",
            ),
            Post::reply(
                TweetId(2),
                UserId(2),
                Point::new_unchecked(1.0, 2.0),
                "",
                TweetId(1),
                UserId(1),
            ),
        ];
        let corpus = Corpus::new(posts).unwrap();
        let path = tmp("escape");
        save_tsv(&corpus, &path).unwrap();
        let back = load_tsv(&path).unwrap();
        assert_eq!(corpus.posts(), back.posts());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_lines_error_with_line_numbers() {
        let path = tmp("bad");
        std::fs::write(&path, "1\t2\tnotanumber\t4\to\t-\t-\thello\n").unwrap();
        let err = load_tsv(&path).unwrap_err();
        assert!(matches!(err, CorpusIoError::Parse { line: 1, .. }), "{err}");
        std::fs::write(&path, "1\t2\t3.0\t4.0\tx\t-\t-\thello\n").unwrap();
        let err = load_tsv(&path).unwrap_err();
        assert!(err.to_string().contains("unknown kind"), "{err}");
        std::fs::write(&path, "1\t2\t3.0\n").unwrap();
        let err = load_tsv(&path).unwrap_err();
        assert!(err.to_string().contains("8 tab-separated"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(load_tsv(Path::new("/nonexistent/tklus.tsv")), Err(CorpusIoError::Io(_))));
    }
}
