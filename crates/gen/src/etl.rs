//! ETL: ingesting Twitter-REST-API-shaped JSON into a [`Corpus`].
//!
//! Figure 3 of the paper: "Twitter Rest API is commonly used to crawl
//! sample data in JSON format from Twitter. After extraction, transform
//! and load (ETL), the metadata of all the tweets is stored in a
//! centralized database." This module is that ETL box: it reads
//! line-delimited JSON tweets (one object per line, the REST API's
//! essential fields), extracts the metadata relation's columns, filters
//! out tweets without coordinates (the paper "focuses on social media
//! posts that have non-empty location fields"), and loads a [`Corpus`].
//!
//! Accepted tweet shape (extra fields are ignored, as in any real crawl):
//!
//! ```json
//! {"id": 123, "user_id": 7, "text": "at the hotel",
//!  "coordinates": {"lat": 43.7, "lon": -79.4},
//!  "in_reply_to_status_id": 100, "in_reply_to_user_id": 3,
//!  "retweeted_status_id": null, "retweeted_user_id": null}
//! ```

use serde_json::Value;
use std::io::{BufRead, BufReader, Read};
use tklus_geo::Point;
use tklus_model::{Corpus, Post, TweetId, UserId};

/// The subset of the REST API tweet object the ETL extracts.
#[derive(Debug)]
struct RawTweet {
    id: u64,
    user_id: u64,
    text: String,
    coordinates: Option<RawCoordinates>,
    in_reply_to_status_id: Option<u64>,
    in_reply_to_user_id: Option<u64>,
    retweeted_status_id: Option<u64>,
    retweeted_user_id: Option<u64>,
}

#[derive(Debug)]
struct RawCoordinates {
    lat: f64,
    lon: f64,
}

/// A tweet id field: missing or `null` is `None`; present but not a
/// non-negative integer is a shape mismatch (the record is malformed).
fn opt_u64(obj: &Value, key: &str) -> Result<Option<u64>, ()> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) if v.is_null() => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or(()),
    }
}

impl RawTweet {
    /// Extracts the metadata columns from one parsed JSON object.
    /// `Err(())` means the record's shape doesn't match the REST API
    /// contract (wrong types, missing required ids) — counted as
    /// malformed by the caller, exactly like a derive-based decode error.
    fn from_value(v: &Value) -> Result<Self, ()> {
        let id = v.get("id").and_then(Value::as_u64).ok_or(())?;
        let user_id = v.get("user_id").and_then(Value::as_u64).ok_or(())?;
        let text = match v.get("text") {
            None => String::new(),
            Some(t) => t.as_str().ok_or(())?.to_string(),
        };
        let coordinates = match v.get("coordinates") {
            None => None,
            Some(c) if c.is_null() => None,
            Some(c) => Some(RawCoordinates {
                lat: c.get("lat").and_then(Value::as_f64).ok_or(())?,
                lon: c.get("lon").and_then(Value::as_f64).ok_or(())?,
            }),
        };
        Ok(Self {
            id,
            user_id,
            text,
            coordinates,
            in_reply_to_status_id: opt_u64(v, "in_reply_to_status_id")?,
            in_reply_to_user_id: opt_u64(v, "in_reply_to_user_id")?,
            retweeted_status_id: opt_u64(v, "retweeted_status_id")?,
            retweeted_user_id: opt_u64(v, "retweeted_user_id")?,
        })
    }
}

/// Outcome of an ETL run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EtlReport {
    /// JSON lines read (excluding blanks).
    pub lines: usize,
    /// Tweets loaded into the corpus.
    pub loaded: usize,
    /// Tweets dropped for missing coordinates (the paper's "<1% are
    /// geo-tagged" reality — the ETL's main filter).
    pub dropped_no_location: usize,
    /// Tweets dropped for invalid coordinates.
    pub dropped_bad_location: usize,
    /// Lines that failed to parse as JSON.
    pub dropped_malformed: usize,
    /// Tweets dropped as duplicates of an earlier id.
    pub dropped_duplicate: usize,
}

/// Errors that abort an ETL run (I/O only — malformed records are counted
/// and skipped, like any production crawler does).
#[derive(Debug)]
pub enum EtlError {
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for EtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EtlError::Io(e) => write!(f, "etl io error: {e}"),
        }
    }
}

impl std::error::Error for EtlError {}

impl From<std::io::Error> for EtlError {
    fn from(e: std::io::Error) -> Self {
        EtlError::Io(e)
    }
}

/// Runs the ETL over line-delimited JSON, returning the geo-tagged corpus
/// and a report of what was kept and dropped.
///
/// ```
/// use tklus_gen::etl_json;
///
/// let jsonl = r#"{"id": 1, "user_id": 7, "text": "at the hotel", "coordinates": {"lat": 43.7, "lon": -79.4}}
/// {"id": 2, "user_id": 8, "text": "no geo tag"}"#;
/// let (corpus, report) = etl_json(jsonl.as_bytes()).unwrap();
/// assert_eq!(report.loaded, 1);
/// assert_eq!(report.dropped_no_location, 1);
/// assert_eq!(corpus.len(), 1);
/// ```
pub fn etl_json<R: Read>(reader: R) -> Result<(Corpus, EtlReport), EtlError> {
    let mut report = EtlReport::default();
    let mut posts: Vec<Post> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for line in BufReader::new(reader).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        report.lines += 1;
        let raw = match serde_json::from_str(&line)
            .map_err(|_| ())
            .and_then(|v| RawTweet::from_value(&v))
        {
            Ok(t) => t,
            Err(()) => {
                report.dropped_malformed += 1;
                continue;
            }
        };
        let Some(coords) = raw.coordinates else {
            report.dropped_no_location += 1;
            continue;
        };
        let Ok(location) = Point::new(coords.lat, coords.lon) else {
            report.dropped_bad_location += 1;
            continue;
        };
        if !seen.insert(raw.id) {
            report.dropped_duplicate += 1;
            continue;
        }
        // Replies take precedence over retweets when both are present
        // (the REST API never sets both on real tweets).
        let post = match (raw.in_reply_to_status_id, raw.in_reply_to_user_id) {
            (Some(rsid), Some(ruid)) => Post::reply(
                TweetId(raw.id),
                UserId(raw.user_id),
                location,
                raw.text,
                TweetId(rsid),
                UserId(ruid),
            ),
            _ => match (raw.retweeted_status_id, raw.retweeted_user_id) {
                (Some(rsid), Some(ruid)) => Post::forward(
                    TweetId(raw.id),
                    UserId(raw.user_id),
                    location,
                    raw.text,
                    TweetId(rsid),
                    UserId(ruid),
                ),
                _ => Post::original(TweetId(raw.id), UserId(raw.user_id), location, raw.text),
            },
        };
        posts.push(post);
        report.loaded += 1;
    }
    let corpus = Corpus::new(posts).expect("duplicates filtered above");
    Ok((corpus, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tklus_model::InteractionKind;

    fn run(input: &str) -> (Corpus, EtlReport) {
        etl_json(input.as_bytes()).expect("in-memory io cannot fail")
    }

    #[test]
    fn loads_geo_tagged_tweets() {
        let input = r#"
{"id": 1, "user_id": 7, "text": "at the hotel", "coordinates": {"lat": 43.7, "lon": -79.4}}
{"id": 2, "user_id": 8, "text": "no location here", "coordinates": null}
{"id": 3, "user_id": 9, "text": "reply!", "coordinates": {"lat": 43.71, "lon": -79.41}, "in_reply_to_status_id": 1, "in_reply_to_user_id": 7}
"#;
        let (corpus, report) = run(input);
        assert_eq!(report.lines, 3);
        assert_eq!(report.loaded, 2);
        assert_eq!(report.dropped_no_location, 1);
        assert_eq!(corpus.len(), 2);
        let reply = corpus.get(TweetId(3)).unwrap();
        let rt = reply.in_reply_to.unwrap();
        assert_eq!(rt.target, TweetId(1));
        assert_eq!(rt.kind, InteractionKind::Reply);
    }

    #[test]
    fn retweets_become_forwards() {
        let input = r#"{"id": 5, "user_id": 2, "text": "RT", "coordinates": {"lat": 1.0, "lon": 2.0}, "retweeted_status_id": 4, "retweeted_user_id": 1}"#;
        let (corpus, _) = run(input);
        assert_eq!(
            corpus.get(TweetId(5)).unwrap().in_reply_to.unwrap().kind,
            InteractionKind::Forward
        );
    }

    #[test]
    fn malformed_and_invalid_records_are_counted_not_fatal() {
        let input = r#"
this is not json
{"id": 1, "user_id": 7, "text": "bad lat", "coordinates": {"lat": 99.0, "lon": 0.0}}
{"id": 2, "user_id": 7, "text": "ok", "coordinates": {"lat": 10.0, "lon": 20.0}}
{"id": 2, "user_id": 7, "text": "dup", "coordinates": {"lat": 10.0, "lon": 20.0}}
{"not_even_a_tweet": true}
"#;
        let (corpus, report) = run(input);
        assert_eq!(report.dropped_malformed, 2, "non-JSON line and shape-mismatched object");
        assert_eq!(report.dropped_bad_location, 1);
        assert_eq!(report.dropped_duplicate, 1);
        assert_eq!(report.loaded, 1);
        assert_eq!(corpus.len(), 1);
    }

    #[test]
    fn extra_fields_are_ignored() {
        let input = r#"{"id": 1, "user_id": 7, "text": "hi", "coordinates": {"lat": 1.0, "lon": 2.0}, "lang": "en", "favorite_count": 12, "entities": {"hashtags": []}}"#;
        let (corpus, report) = run(input);
        assert_eq!(report.loaded, 1);
        assert_eq!(corpus.get(TweetId(1)).unwrap().text.as_ref(), "hi");
    }

    #[test]
    fn empty_input_yields_empty_corpus() {
        let (corpus, report) = run("");
        assert!(corpus.is_empty());
        assert_eq!(report, EtlReport::default());
    }

    #[test]
    fn etl_feeds_the_index_pipeline() {
        // End-to-end smoke: ETL output is a corpus the engine accepts.
        let input = r#"
{"id": 1, "user_id": 7, "text": "great hotel downtown", "coordinates": {"lat": 43.70, "lon": -79.40}}
{"id": 2, "user_id": 8, "text": "hotel again", "coordinates": {"lat": 43.71, "lon": -79.39}}
"#;
        let (corpus, _) = run(input);
        let (index, report) =
            tklus_index::build_index(corpus.posts(), &tklus_index::IndexBuildConfig::default());
        assert_eq!(report.posts, 2);
        assert!(index.vocab().get("hotel").is_some());
    }
}
