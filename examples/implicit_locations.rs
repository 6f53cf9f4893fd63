//! Recovering implicit locations (the paper's Section VIII extension):
//! tweets without geo-tags that *mention* a place still carry spatial
//! signal. This example strips the geo-tags from part of a synthetic
//! corpus, recovers city-level locations with the gazetteer, and shows
//! (a) recovery rate and error, and (b) that a TkLUS query over the
//! augmented corpus finds local users whose tweets would otherwise be
//! invisible.
//!
//! Run with: `cargo run --release --example implicit_locations`

use tklus::core::{BoundsMode, EngineConfig, Ranking, TklusEngine};
use tklus::gen::{generate_corpus, GenConfig};
use tklus::geo::{Gazetteer, Point};
use tklus::model::{Corpus, Post, Semantics, TklusQuery, TweetId, UserId};

fn main() {
    let corpus =
        generate_corpus(&GenConfig { original_posts: 4_000, users: 1_200, ..GenConfig::default() });
    let gazetteer = Gazetteer::builtin();

    // Simulate the real-world split: only a sliver of tweets carry GPS
    // coordinates. Every third original tweet "loses" its geo-tag but
    // gains a city mention in its text (people often name where they are).
    let mut tagged: Vec<Post> = Vec::new();
    let mut untagged: Vec<(Post, Point)> = Vec::new(); // (post sans tag, true location)
    for post in corpus.posts() {
        if !post.is_reply() && post.id.0 % 3 == 0 {
            // Find which generator city this post belongs to.
            let city = tklus::gen::CityModel::default_world()
                .cities()
                .iter()
                .min_by(|a, b| {
                    a.center
                        .euclidean_km(&post.location)
                        .partial_cmp(&b.center.euclidean_km(&post.location))
                        .unwrap()
                })
                .map(|c| c.name.to_string())
                .unwrap();
            let mut p = post.clone();
            p.text = format!("{} {}", p.text, city.to_lowercase()).into();
            untagged.push((p, post.location));
        } else {
            tagged.push(post.clone());
        }
    }
    println!(
        "{} tweets keep their geo-tag; {} lost it (but mention a city)",
        tagged.len(),
        untagged.len()
    );

    // Recover locations from text.
    let mut recovered = 0usize;
    let mut total_error_km = 0.0;
    let mut augmented = tagged.clone();
    for (post, true_loc) in &untagged {
        if let Some(inf) = gazetteer.infer(&post.text) {
            recovered += 1;
            total_error_km += inf.location.euclidean_km(true_loc);
            let mut p = post.clone();
            p.location = inf.location;
            augmented.push(p);
        }
    }
    println!(
        "recovered {}/{} locations, mean error {:.1} km (city-level, as expected)",
        recovered,
        untagged.len(),
        total_error_km / recovered.max(1) as f64
    );

    // A user who ONLY posts untagged tweets exists solely in the
    // augmented corpus.
    let ghost = UserId(999_999);
    let toronto = Point::new_unchecked(43.6532, -79.3832);
    let mut ghost_posts = Vec::new();
    for i in 0..4u64 {
        let mut p = Post::original(
            TweetId(10_000_000 + i),
            ghost,
            toronto, // placeholder, replaced by inference below
            "the best hidden sushi sushi bar in toronto, ask me where",
        );
        let inf = gazetteer.infer(&p.text).expect("mentions toronto");
        p.location = inf.location;
        ghost_posts.push(p);
    }
    // The ghost's recommendations spark conversation (replies are
    // geo-tagged; only the expert's own tweets lost their tags).
    for j in 0..10u64 {
        ghost_posts.push(Post::reply(
            TweetId(10_000_100 + j),
            UserId(900_000 + j),
            Point::new_unchecked(43.66 + (j as f64) * 0.001, -79.39),
            "where exactly? sounds great",
            TweetId(10_000_000),
            ghost,
        ));
    }
    augmented.extend(ghost_posts);

    let tagged_corpus = Corpus::new(tagged).unwrap();
    let augmented_corpus = Corpus::new(augmented).unwrap();

    let query = TklusQuery::new(toronto, 20.0, vec!["sushi".into()], 10, Semantics::Or).unwrap();
    let (engine_tagged, _) = TklusEngine::build(&tagged_corpus, &EngineConfig::default());
    let (engine_aug, _) = TklusEngine::build(&augmented_corpus, &EngineConfig::default());

    let (top_tagged, _) = engine_tagged.query(&query, Ranking::Max(BoundsMode::HotKeywords));
    let (top_aug, _) = engine_aug.query(&query, Ranking::Max(BoundsMode::HotKeywords));

    let in_tagged = top_tagged.iter().any(|r| r.user == ghost);
    let in_aug = top_aug.iter().any(|r| r.user == ghost);
    println!("\nquery: 'sushi' within 20 km of Toronto, top-10");
    println!("  geo-tagged corpus only : ghost user found = {in_tagged}");
    println!("  + recovered locations  : ghost user found = {in_aug}");
    assert!(!in_tagged && in_aug, "recovery must surface the untagged local expert");
    println!("\nimplicit-location recovery surfaced a local expert invisible to the geo-tagged-only index.");
}
