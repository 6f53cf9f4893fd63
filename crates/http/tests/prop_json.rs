//! JSON body decoder robustness properties (DESIGN.md §16).
//!
//! `prop_parser.rs` fuzzes the framing; this suite fuzzes what the
//! framing hands over. A request body is whatever a client sent, up to
//! `max_body_bytes` of it, so the three decoders must hold, for arbitrary
//! bytes, JSON-shaped soup, deep nesting and mutated valid bodies:
//!
//! * **no panic, no abort** — every input yields a value or a
//!   [`BadRequest`], nesting depth included (a recursive parser without a
//!   depth cap turns a megabyte of `[` into a stack overflow);
//! * **typed rejection** — a rejected body carries a message to put in
//!   the 400;
//! * **accepted means valid** — every accepted query satisfies the
//!   invariants `TklusQuery::new` (and the time-window and recency
//!   builders) enforce, every accepted batch respects the cap, every
//!   accepted post has a real coordinate.
//!
//! The wire half — a garbage body answers a typed 400 and the same
//! connection then serves the next request — is
//! `garbage_body_is_a_typed_400_and_the_connection_keeps_serving` in
//! `http_e2e.rs`, where the socket harness lives.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use proptest::prelude::*;
use tklus_geo::Point;
use tklus_http::{parse_batch_body, parse_ingest_body, parse_query_body, BadRequest, QuerySpec};
use tklus_model::TklusQuery;

const MAX_BATCH: usize = 8;

fn check_rejection(bad: &BadRequest) -> Result<(), TestCaseError> {
    prop_assert!(!bad.message.is_empty(), "a 400 must say what was wrong");
    Ok(())
}

/// An accepted spec passes the validating constructors again, field for
/// field: the decoder let nothing through that they would refuse.
fn check_spec(spec: &QuerySpec) -> Result<(), TestCaseError> {
    let q = &spec.query;
    prop_assert!(Point::new(q.location.lat(), q.location.lon()).is_ok(), "{:?}", q.location);
    let rebuilt = TklusQuery::new(q.location, q.radius_km, q.keywords.clone(), q.k, q.semantics);
    prop_assert!(rebuilt.is_ok(), "accepted {q:?} but TklusQuery::new says {rebuilt:?}");
    let rebuilt = rebuilt.unwrap();
    if let Some((start, end)) = q.time_range {
        prop_assert!(rebuilt.clone().with_time_range(start, end).is_ok(), "{start}..{end}");
    }
    if let Some(recency) = q.recency {
        prop_assert!(rebuilt.with_recency(recency.now, recency.half_life).is_ok(), "{recency:?}");
    }
    Ok(())
}

/// Runs `body` through all three decoders.
fn decode_all(body: &[u8]) -> Result<(), TestCaseError> {
    match parse_query_body(body) {
        Ok(spec) => check_spec(&spec)?,
        Err(bad) => check_rejection(&bad)?,
    }
    match parse_batch_body(body, MAX_BATCH) {
        Ok(specs) => {
            prop_assert!((1..=MAX_BATCH).contains(&specs.len()), "batch of {}", specs.len());
            for spec in &specs {
                check_spec(spec)?;
            }
        }
        Err(bad) => check_rejection(&bad)?,
    }
    match parse_ingest_body(body) {
        Ok(post) => {
            prop_assert!(Point::new(post.location.lat(), post.location.lon()).is_ok());
        }
        Err(bad) => check_rejection(&bad)?,
    }
    Ok(())
}

/// JSON fragments a hostile or sloppy client puts where a field goes:
/// wrong types, boundary numbers, non-finite floats, empties.
const FRAGMENTS: [&str; 20] = [
    "null",
    "true",
    "0",
    "-0",
    "-1",
    "1.5",
    "1e999",
    "-1e999",
    "91",
    "18446744073709551615",
    "18446744073709551616",
    "\"\"",
    "\"and\"",
    "\"max_hot\"",
    "[]",
    "[1,2]",
    "[9,3]",
    "{}",
    "{\"now\":5,\"half_life\":0}",
    "[\"a\",7]",
];

fn arb_fragment() -> impl Strategy<Value = String> {
    (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string())
}

/// A body as ordered `key: raw JSON` members, so a mutation can swap one
/// member's value for a fragment without re-implementing a writer.
#[derive(Debug, Clone)]
struct Members(Vec<(String, String)>);

impl Members {
    fn serialize(&self) -> String {
        let members: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", members.join(","))
    }

    fn with(mut self, overrides: Vec<(usize, String)>) -> Self {
        for (at, raw) in overrides {
            let at = at % self.0.len();
            self.0[at].1 = raw;
        }
        self
    }
}

fn opt_member(key: &'static str, raw: Option<String>) -> Option<(String, String)> {
    raw.map(|raw| (key.to_string(), raw))
}

/// A structurally valid `/query` body exercising every optional field.
fn arb_query_members() -> impl Strategy<Value = Members> {
    let required = (
        -90.0f64..=90.0,
        -180.0f64..=180.0,
        0.001f64..500.0,
        proptest::collection::vec("[a-z]{1,8}", 1..4),
        1u64..50,
    );
    let envelope = (
        proptest::option::of((0usize..4).prop_map(|i| ["or", "and", "OR", "AND"][i])),
        proptest::option::of((0usize..4).prop_map(|i| ["sum", "max", "max_global", "max_hot"][i])),
        proptest::option::of((0usize..3).prop_map(|i| ["low", "normal", "high"][i])),
        proptest::option::of(0u64..10_000),
    );
    let budget = (
        proptest::option::of(0u64..10_000),
        proptest::option::of(0u64..64),
        proptest::option::of((0u64..1_000, 0u64..1_000)),
        proptest::option::of((0u64..1_000, 1u64..1_000)),
    );
    (required, envelope, budget).prop_map(
        |(
            (lat, lon, radius, keywords, k),
            (semantics, ranking, priority, deadline_ms),
            (timeout_ms, max_cells, window, recency),
        )| {
            let keywords: Vec<String> = keywords.iter().map(|w| format!("\"{w}\"")).collect();
            let mut members = vec![
                ("lat".to_string(), lat.to_string()),
                ("lon".to_string(), lon.to_string()),
                ("radius_km".to_string(), radius.to_string()),
                ("keywords".to_string(), format!("[{}]", keywords.join(","))),
                ("k".to_string(), k.to_string()),
            ];
            members.extend(
                [
                    opt_member("semantics", semantics.map(|s| format!("\"{s}\""))),
                    opt_member("ranking", ranking.map(|s| format!("\"{s}\""))),
                    opt_member("priority", priority.map(|s| format!("\"{s}\""))),
                    opt_member("deadline_ms", deadline_ms.map(|v| v.to_string())),
                    opt_member("timeout_ms", timeout_ms.map(|v| v.to_string())),
                    opt_member("max_cells", max_cells.map(|v| v.to_string())),
                    opt_member(
                        "time_range",
                        window.map(|(start, len)| format!("[{start},{}]", start + len)),
                    ),
                    opt_member(
                        "recency",
                        recency
                            .map(|(now, half)| format!("{{\"now\":{now},\"half_life\":{half}}}")),
                    ),
                ]
                .into_iter()
                .flatten(),
            );
            Members(members)
        },
    )
}

/// A structurally valid `/ingest` body, original or reply/forward.
fn arb_ingest_members() -> impl Strategy<Value = Members> {
    (
        any::<u64>(),
        any::<u64>(),
        -90.0f64..=90.0,
        -180.0f64..=180.0,
        "[ -~]{0,40}",
        proptest::option::of((any::<u64>(), any::<u64>(), proptest::option::of(any::<bool>()))),
    )
        .prop_map(|(id, user, lat, lon, text, reply_to)| {
            let text = text.replace('\\', "\\\\").replace('"', "\\\"");
            let mut members = vec![
                ("id".to_string(), id.to_string()),
                ("user".to_string(), user.to_string()),
                ("lat".to_string(), lat.to_string()),
                ("lon".to_string(), lon.to_string()),
                ("text".to_string(), format!("\"{text}\"")),
            ];
            if let Some((rid, ruser, kind)) = reply_to {
                let kind = match kind {
                    None => String::new(),
                    Some(true) => ",\"kind\":\"reply\"".to_string(),
                    Some(false) => ",\"kind\":\"forward\"".to_string(),
                };
                members.push((
                    "reply_to".to_string(),
                    format!("{{\"id\":{rid},\"user\":{ruser}{kind}}}"),
                ));
            }
            Members(members)
        })
}

/// Byte-level damage to a serialized body: flips, a splice of JSON
/// punctuation, and a truncation.
fn damage(mut raw: Vec<u8>, flips: &[(usize, u8)], splice: (usize, &[u8]), cut: usize) -> Vec<u8> {
    for &(at, byte) in flips {
        let at = at % raw.len();
        raw[at] = byte;
    }
    let at = splice.0 % (raw.len() + 1);
    raw.splice(at..at, splice.1.iter().copied());
    raw.truncate(cut % (raw.len() + 1));
    raw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any bytes at all: a value or a typed rejection, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(raw in proptest::collection::vec(any::<u8>(), 0..400)) {
        decode_all(&raw)?;
    }

    /// Bytes drawn from JSON's own alphabet get far deeper into the value
    /// parser than uniform noise does.
    #[test]
    fn json_shaped_soup_never_panics(
        raw in proptest::collection::vec(
            (0usize..32).prop_map(|i| b"{}[]\":,0123456789.eE-+ \\utfnalsk"[i]),
            0..300,
        ),
    ) {
        decode_all(&raw)?;
    }

    /// Nesting far past any honest body — up to the whole default
    /// `max_body_bytes` of one opener — is refused, not recursed into
    /// until the stack runs out.
    #[test]
    fn deep_nesting_is_refused_not_overflowed(
        depth in prop_oneof![1usize..300, 100_000usize..1_000_000],
        opener in (0usize..3).prop_map(|i| ["[", "{\"a\":", "{\"queries\":["][i]),
        closed in any::<bool>(),
    ) {
        let mut body = opener.repeat(depth);
        if closed {
            body.push('1');
            for _ in 0..depth {
                body.push_str(match opener { "[" => "]", "{\"a\":" => "}", _ => "]}" });
            }
        }
        decode_all(body.as_bytes())?;
    }

    /// A generated valid query decodes, and decodes to what was written.
    #[test]
    fn valid_query_bodies_are_accepted(members in arb_query_members()) {
        let body = members.serialize();
        let spec = parse_query_body(body.as_bytes());
        prop_assert!(spec.is_ok(), "{body} rejected: {spec:?}");
        let spec = spec.unwrap();
        check_spec(&spec)?;
        let written = |key: &str| members.0.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
        prop_assert_eq!(Some(spec.query.k.to_string()), written("k"));
        prop_assert_eq!(Some(spec.query.radius_km.to_string()), written("radius_km"));
        prop_assert_eq!(spec.query.time_range.is_some(), written("time_range").is_some());
        prop_assert_eq!(spec.query.recency.is_some(), written("recency").is_some());
        prop_assert_eq!(spec.deadline.is_some(), written("deadline_ms").is_some());

        // The same object is a valid one-element batch, and too many of it
        // is refused by the cap, not truncated.
        let batch = |n: usize| format!("{{\"queries\":[{}]}}", vec![body.as_str(); n].join(","));
        let one = parse_batch_body(batch(1).as_bytes(), MAX_BATCH);
        prop_assert_eq!(one.as_ref().map(|specs| specs.as_slice()), Ok(std::slice::from_ref(&spec)));
        prop_assert!(parse_batch_body(batch(MAX_BATCH + 1).as_bytes(), MAX_BATCH).is_err());
    }

    /// A generated valid post decodes to the ids and text that were sent.
    #[test]
    fn valid_ingest_bodies_are_accepted(members in arb_ingest_members()) {
        let body = members.serialize();
        let post = parse_ingest_body(body.as_bytes());
        prop_assert!(post.is_ok(), "{body} rejected: {post:?}");
        let post = post.unwrap();
        prop_assert_eq!(&post.id.0.to_string(), &members.0[0].1);
        prop_assert_eq!(&post.user.0.to_string(), &members.0[1].1);
        prop_assert_eq!(post.in_reply_to.is_some(), members.0.len() == 6);
    }

    /// Valid bodies with members swapped for wrong-typed, boundary and
    /// non-finite fragments: whatever still decodes is still valid.
    #[test]
    fn wrong_typed_members_reject_or_stay_valid(
        query in arb_query_members(),
        ingest in arb_ingest_members(),
        overrides in proptest::collection::vec((any::<usize>(), arb_fragment()), 1..4),
    ) {
        let query = query.with(overrides.clone()).serialize();
        decode_all(query.as_bytes())?;
        decode_all(format!("{{\"queries\":[{query},{query}]}}").as_bytes())?;
        decode_all(ingest.with(overrides).serialize().as_bytes())?;
    }

    /// Valid bodies with bytes flipped, punctuation spliced in and the
    /// tail cut off.
    #[test]
    fn damaged_valid_bodies_never_panic(
        query in arb_query_members(),
        ingest in arb_ingest_members(),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        splice_at in any::<usize>(),
        splice in proptest::collection::vec((0usize..8).prop_map(|i| b"{}[]\":,\\"[i]), 0..6),
        cut in any::<usize>(),
    ) {
        for raw in [query.serialize().into_bytes(), ingest.serialize().into_bytes()] {
            decode_all(&damage(raw.clone(), &flips, (splice_at, &splice), usize::MAX))?;
            decode_all(&damage(raw, &flips, (splice_at, &splice), cut))?;
        }
    }
}
