//! Figure 7 — effect of geohash encoding length on query processing.
//!
//! Paper shape: for city-scale radii (5–20 km), longer encodings win —
//! shorter encodings mean giant cells whose postings are mostly outside
//! the query circle, so the processor wades through far more candidates.
//! The reproduction runs the same random queries against indexes built at
//! lengths 1–4 and reports mean query time and candidate counts.
//!
//! The candidates are counted twice. "Before" is the paper's count: every
//! post under a cover cell that matches a keyword, which is what the
//! cover's geohash length alone decides. The index then drops each
//! posting whose refined cell (three characters finer) cannot reach the
//! circle ("refined out"); "looked up" is what is left, the candidates
//! whose metadata row is read.
//!
//! Every query's `in_radius` is checked against a brute-force count over
//! the corpus — the posts within the radius that match a keyword — so a
//! run of this binary checks the refinement's soundness end to end.

use tklus_bench::{
    banner, build_engine, csv_row, ms, parse_flags, query_workload, standard_corpus, to_query,
};
use tklus_core::Ranking;
use tklus_geo::{circle_cover, encode};
use tklus_metrics::Summary;
use tklus_model::Semantics;
use tklus_text::TextPipeline;

fn main() {
    let flags = parse_flags();
    banner("Figure 7: effect of geohash encoding length", &flags);
    let corpus = standard_corpus(&flags);
    let specs = query_workload(&corpus);
    let radii = [5.0, 10.0, 15.0, 20.0];
    let pipeline = TextPipeline::new();
    let terms: Vec<Vec<String>> = corpus
        .posts()
        .iter()
        .map(|p| {
            let mut t = pipeline.terms(&p.text);
            t.sort_unstable();
            t.dedup();
            t
        })
        .collect();
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>12} {:>10} {:>10} {:>12}",
        "length",
        "radius km",
        "mean ms",
        "before",
        "refined out",
        "looked up",
        "in radius",
        "cover cells"
    );
    for len in 1..=4usize {
        let (engine, _) = build_engine(&corpus, len);
        let metric = engine.scoring().metric;
        let cells: Vec<_> = corpus
            .posts()
            .iter()
            .map(|p| encode(&p.location, len).expect("valid length"))
            .collect();
        for &radius in &radii {
            let mut rows: [Vec<f64>; 6] = Default::default();
            for spec in specs.iter().take(flags.queries) {
                let q = to_query(spec, radius, 5, Semantics::Or);
                let (_, stats) = engine.query(&q, Ranking::Sum);
                let stems: Vec<String> =
                    q.keywords.iter().filter_map(|k| pipeline.normalize_keyword(k)).collect();
                let cover = circle_cover(&q.location, radius, len, metric).expect("valid length");
                let (mut before, mut inside) = (0usize, 0usize);
                for (i, post) in corpus.posts().iter().enumerate() {
                    if !stems.iter().any(|s| terms[i].binary_search(s).is_ok()) {
                        continue;
                    }
                    before += usize::from(cover.binary_search(&cells[i]).is_ok());
                    inside += usize::from(q.location.distance_km(&post.location, metric) <= radius);
                }
                assert_eq!(
                    stats.in_radius, inside,
                    "length {len}, {radius} km, {:?} at {}: the engine's in-radius count is not \
                     the corpus's",
                    q.keywords, q.location
                );
                assert!(stats.candidates <= before && inside <= stats.candidates);
                for (row, value) in rows.iter_mut().zip([
                    ms(stats.elapsed),
                    before as f64,
                    stats.refined_out as f64,
                    stats.candidates as f64,
                    stats.in_radius as f64,
                    stats.cover_cells as f64,
                ]) {
                    row.push(value);
                }
            }
            let [t, before, refined, looked, inside, cells] = rows.map(|r| Summary::of(&r).mean);
            println!(
                "{:<8} {:>10} {:>10.2} {:>10.0} {:>12.0} {:>10.0} {:>10.0} {:>12.0}",
                len, radius, t, before, refined, looked, inside, cells
            );
            csv_row(&[
                len.to_string(),
                radius.to_string(),
                format!("{t:.4}"),
                format!("{before:.0}"),
                format!("{refined:.0}"),
                format!("{looked:.0}"),
                format!("{inside:.0}"),
                format!("{cells:.0}"),
            ]);
        }
    }
    println!(
        "\npaper shape: longer encodings process fewer out-of-range candidates (before) and \
         answer faster at 5-20 km radii"
    );
    println!("every query's in-radius count equals a brute-force count over the corpus");
}
