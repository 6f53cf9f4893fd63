//! The social media post of Definition 1, plus the reply/forward
//! back-pointer from the Section IV-A metadata relation.

use crate::ids::{TweetId, UserId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tklus_geo::Point;

/// How a post refers to its target: Definition 2 distinguishes "reply"
/// edges (`E_reply`) from "forward" edges (`E_forward`). Thread
/// construction (Algorithm 1) treats both uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InteractionKind {
    /// `u1` replies to `u2` in this post.
    Reply,
    /// `u1` forwards (retweets) `u2`'s post.
    Forward,
}

/// A reply/forward back-pointer: the `(rsid, ruid)` columns of the
/// metadata relation plus the edge kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplyTo {
    /// The post being replied to / forwarded (`rsid`).
    pub target: TweetId,
    /// That post's author (`ruid`).
    pub target_user: UserId,
    /// Reply or forward.
    pub kind: InteractionKind,
}

/// A geo-tagged social media post.
///
/// Definition 1's 4-tuple `(uid, t, l, W)` with `t` folded into the id (ids
/// are timestamps), plus the optional `(ruid, rsid)` pair recording which
/// post (and whose) this one replies to or forwards — the columns the
/// metadata database stores and thread construction (Algorithm 1) queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Post {
    /// Tweet id (`sid`); equals the publication timestamp.
    pub id: TweetId,
    /// Author (`uid`).
    pub user: UserId,
    /// Publication location (`lat`, `lon`). This reproduction only models
    /// posts with non-empty locations, as the paper's problem setting does.
    pub location: Point,
    /// Raw text content; tokenization/stemming happens at index build.
    /// Shared, so cloning a post (a compaction snapshot, a corpus built
    /// from acked records) copies its fixed-size fields and bumps a
    /// reference count instead of copying the text.
    pub text: Arc<str>,
    /// The post this one replies to or forwards (`rsid`, `ruid`), if any.
    pub in_reply_to: Option<ReplyTo>,
}

impl Post {
    /// Creates an original (non-reply) post.
    pub fn original(id: TweetId, user: UserId, location: Point, text: impl Into<Arc<str>>) -> Self {
        Self { id, user, location, text: text.into(), in_reply_to: None }
    }

    /// Creates a reply to `target` (a post by `target_user`).
    pub fn reply(
        id: TweetId,
        user: UserId,
        location: Point,
        text: impl Into<Arc<str>>,
        target: TweetId,
        target_user: UserId,
    ) -> Self {
        Self {
            id,
            user,
            location,
            text: text.into(),
            in_reply_to: Some(ReplyTo { target, target_user, kind: InteractionKind::Reply }),
        }
    }

    /// Creates a forward (retweet) of `target` (a post by `target_user`).
    pub fn forward(
        id: TweetId,
        user: UserId,
        location: Point,
        text: impl Into<Arc<str>>,
        target: TweetId,
        target_user: UserId,
    ) -> Self {
        Self {
            id,
            user,
            location,
            text: text.into(),
            in_reply_to: Some(ReplyTo { target, target_user, kind: InteractionKind::Forward }),
        }
    }

    /// Whether this post replies to or forwards another.
    pub fn is_reply(&self) -> bool {
        self.in_reply_to.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Point {
        Point::new_unchecked(43.7, -79.4)
    }

    #[test]
    fn original_has_no_reply_target() {
        let post = Post::original(TweetId(1), UserId(9), p(), "I'm at Clarion Hotel");
        assert!(!post.is_reply());
        assert_eq!(post.in_reply_to, None);
    }

    #[test]
    fn reply_records_target() {
        let post = Post::reply(TweetId(2), UserId(3), p(), "nice!", TweetId(1), UserId(9));
        assert!(post.is_reply());
        let rt = post.in_reply_to.unwrap();
        assert_eq!(
            (rt.target, rt.target_user, rt.kind),
            (TweetId(1), UserId(9), InteractionKind::Reply)
        );
    }

    #[test]
    fn forward_records_kind() {
        let post = Post::forward(TweetId(5), UserId(4), p(), "RT", TweetId(1), UserId(9));
        assert_eq!(post.in_reply_to.unwrap().kind, InteractionKind::Forward);
    }
}
