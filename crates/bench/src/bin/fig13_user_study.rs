//! Figure 13 — user study (simulated judging panel).
//!
//! The paper's six human participants judge top-10 result lines
//! `(userId, tweet content)`, four votes per line, user relevant at ≥ 2
//! votes. The reproduction computes each line's latent relevance from
//! ground truth (does the exemplar tweet really carry the query keywords,
//! and how close to the query was it posted?) and passes it through a
//! noisy simulated panel with the same protocol.
//!
//! Paper shape: precision 60–80% at ranges ≤ 10 km, decreasing as the
//! range grows; top-5 precision consistently above top-10.

use std::collections::HashSet;
use tklus_bench::{
    banner, build_engine, csv_row, parse_flags, query_workload, standard_corpus, to_query,
};
use tklus_core::{BoundsMode, RankedUser, Ranking};
use tklus_gen::QuerySpec;
use tklus_metrics::{precision_at_k, JudgePanel, StudyLine, Summary};
use tklus_model::{Corpus, Semantics, UserId};
use tklus_text::TextPipeline;

/// Builds the study line for one returned user: the exemplar tweet is the
/// user's keyword-matching post closest to the query location.
fn study_line(
    corpus: &Corpus,
    pipeline: &TextPipeline,
    spec: &QuerySpec,
    user: UserId,
) -> StudyLine {
    let stems: Vec<String> =
        spec.keywords.iter().filter_map(|k| pipeline.normalize_keyword(k)).collect();
    let mut best: Option<(f64, StudyLine)> = None;
    for post in corpus.posts_of(user) {
        let terms = pipeline.terms(&post.text);
        let matched = stems.iter().filter(|s| terms.contains(s)).count();
        let keyword_match =
            if stems.is_empty() { 0.0 } else { matched as f64 / stems.len() as f64 };
        let d = spec.location.euclidean_km(&post.location);
        // Prefer keyword-matching posts, then proximity.
        let rank = (if matched > 0 { 0.0 } else { 1e6 }) + d;
        if best.as_ref().is_none_or(|(r, _)| rank < *r) {
            best = Some((rank, StudyLine { user, tweet_location: post.location, keyword_match }));
        }
    }
    best.map(|(_, l)| l).expect("returned users have posts")
}

fn main() {
    let flags = parse_flags();
    banner("Figure 13: simulated user study", &flags);
    let corpus = standard_corpus(&flags);
    let (engine, _) = build_engine(&corpus, 4);
    let pipeline = TextPipeline::new();
    // "A total of 30 queries with one to three keywords": 10 per bucket.
    let all_specs = query_workload(&corpus);
    let specs: Vec<QuerySpec> =
        (0..3).flat_map(|b| all_specs[b * 30..b * 30 + 10].to_vec()).collect();
    let radii = [5.0, 10.0, 15.0, 20.0];
    let mut panel = JudgePanel::new(0.1, 0xF16);
    println!("{:<10} {:<9} {:>14} {:>14}", "radius km", "method", "precision@5", "precision@10");
    for &radius in &radii {
        for (name, ranking) in
            [("sum", Ranking::Sum), ("max", Ranking::Max(BoundsMode::HotKeywords))]
        {
            let mut p5s = Vec::new();
            let mut p10s = Vec::new();
            for spec in &specs {
                let q = to_query(spec, radius, 10, Semantics::Or);
                let (top, _) = engine.query(&q, ranking);
                if top.is_empty() {
                    continue;
                }
                let users: Vec<UserId> = top.iter().map(|r: &RankedUser| r.user).collect();
                let mut relevant: HashSet<UserId> = HashSet::new();
                for &user in &users {
                    let line = study_line(&corpus, &pipeline, spec, user);
                    if panel.judge(&spec.location, radius, &line) {
                        relevant.insert(user);
                    }
                }
                p5s.push(precision_at_k(&users, &relevant, 5));
                p10s.push(precision_at_k(&users, &relevant, 10));
            }
            if p5s.is_empty() {
                continue;
            }
            let p5 = Summary::of(&p5s).mean;
            let p10 = Summary::of(&p10s).mean;
            println!("{:<10} {:<9} {:>14.3} {:>14.3}", radius, name, p5, p10);
            csv_row(&[
                radius.to_string(),
                name.to_string(),
                format!("{p5:.4}"),
                format!("{p10:.4}"),
            ]);
        }
    }
    println!(
        "\npaper shape: precision 60-80% at <=10 km, decreasing with radius; top-5 above top-10"
    );
}
