//! Row-by-row regeneration of the paper's Tables I–III.
//!
//! Every function returns the measured columns plus the paper's published
//! column for side-by-side comparison. The absolute scores are ours (the
//! datasets are synthetic stand-ins — see DESIGN.md); the comparison
//! target is the *shape*: which algorithm surfaces which kind of node.

use crate::Column;
use relcore::Query;
use reldata::fixtures::{self, Language, Scenario};
use std::sync::Arc;

/// One reproduced query: measured columns + the paper's rows per column.
pub struct TableBlock {
    /// Query caption (e.g. `Freddie Mercury`).
    pub caption: String,
    /// Measured columns, in paper order.
    pub measured: Vec<Column>,
    /// The paper's published entries, aligned with `measured`.
    pub paper: Vec<(&'static str, Vec<&'static str>)>,
}

/// The paper's Table I published rows.
pub const TABLE1_PAPER_PR: [&str; 5] =
    ["United States", "Animal", "Arthropod", "Association football", "Insect"];

/// Table I, "Freddie Mercury" CycleRank column (rows 2-5; row 1 is the
/// reference itself).
pub const TABLE1_PAPER_CR_FREDDIE: [&str; 5] =
    ["Freddie Mercury", "Queen (band)", "Brian May", "Roger Taylor", "John Deacon"];

/// Table I, "Freddie Mercury" PPR column.
pub const TABLE1_PAPER_PPR_FREDDIE: [&str; 5] =
    ["Freddie Mercury", "Queen (band)", "The FM Tribute Concert", "HIV/AIDS", "Queen II"];

/// Table I, "Pasta" CycleRank column.
pub const TABLE1_PAPER_CR_PASTA: [&str; 5] =
    ["Pasta", "Italian cuisine", "Italy", "Spaghetti", "Flour"];

/// Table I, "Pasta" PPR column.
pub const TABLE1_PAPER_PPR_PASTA: [&str; 5] =
    ["Pasta", "Bolognese sauce", "Carbonara", "Durum", "Italy"];

/// Reproduces one half of Table I (or Table II via different params).
/// Every algorithm runs through the registry-backed [`Query`] front door —
/// the same code path as the engine, server, and CLI.
fn scenario_block(
    sc: &Scenario,
    k: u32,
    ppr_alpha: f64,
    pr_paper: &'static [&'static str],
    cr_paper: &'static [&'static str],
    ppr_paper: &'static [&'static str],
) -> TableBlock {
    // Fixture scenarios are a few hundred nodes; cloning into an Arc once
    // per block costs microseconds and keeps `Query` on the shared path.
    let g = Arc::new(sc.graph.clone());
    let r = sc.reference_node();
    let pr = Query::on(&g).algorithm("pagerank").alpha(0.85).run().expect("pagerank");
    let cr = Query::on(&g).algorithm("cyclerank").reference(r).k(k).run().expect("cyclerank");
    let ppr = Query::on(&g).algorithm("ppr").alpha(ppr_alpha).reference(r).run().expect("ppr");

    TableBlock {
        caption: sc.reference.to_string(),
        measured: vec![
            Column::from_scores("PageRank (α=0.85)", &g, pr.scores().expect("scores"), 5),
            Column::from_scores(
                format!("Cyclerank (K={k}, σ=e⁻ⁿ)"),
                &g,
                cr.scores().expect("scores"),
                5,
            ),
            Column::from_scores(
                format!("Pers.PageRank (α={ppr_alpha})"),
                &g,
                ppr.scores().expect("scores"),
                5,
            ),
        ],
        paper: vec![
            ("PageRank", pr_paper.to_vec()),
            ("Cyclerank", cr_paper.to_vec()),
            ("Pers.PageRank", ppr_paper.to_vec()),
        ],
    }
}

/// Table I: enwiki 2018-03-01, references "Freddie Mercury" and "Pasta";
/// PR α=0.85, CR K=3 σ=exp, PPR α=0.3.
pub fn table1() -> Vec<TableBlock> {
    vec![
        scenario_block(
            &fixtures::enwiki_2018(),
            3,
            0.3,
            &TABLE1_PAPER_PR,
            &TABLE1_PAPER_CR_FREDDIE,
            &TABLE1_PAPER_PPR_FREDDIE,
        ),
        scenario_block(
            &fixtures::enwiki_2018_pasta(),
            3,
            0.3,
            &TABLE1_PAPER_PR,
            &TABLE1_PAPER_CR_PASTA,
            &TABLE1_PAPER_PPR_PASTA,
        ),
    ]
}

/// The paper's Table II published rows.
pub const TABLE2_PAPER_PR: [&str; 5] =
    ["Good to Great", "The Catcher in the Rye", "DSM-IV", "The Great Gatsby", "Lord of the Flies"];

/// Table II, "1984" CycleRank column.
pub const TABLE2_PAPER_CR_1984: [&str; 5] = [
    "Animal Farm",
    "Fahrenheit 451",
    "The Catcher in the Rye",
    "Brave New World",
    "Lord of the Flies",
];

/// Table II, "1984" PPR column.
pub const TABLE2_PAPER_PPR_1984: [&str; 5] = [
    "The Catcher in the Rye",
    "Lord of the Flies",
    "Animal Farm",
    "Fahrenheit 451",
    "To Kill a Mockingbird",
];

/// Table II, "Fellowship" CycleRank column.
pub const TABLE2_PAPER_CR_FELLOWSHIP: [&str; 5] = [
    "The Hobbit",
    "The Return of the King",
    "The Silmarillion",
    "The Two Towers",
    "Unfinished Tales",
];

/// Table II, "Fellowship" PPR column.
pub const TABLE2_PAPER_PPR_FELLOWSHIP: [&str; 5] = [
    "The Silmarillion",
    "The Hobbit",
    "Harry Potter (Book 1)",
    "Harry Potter (Book 2)",
    "The Return of the King",
];

/// Table II: Amazon co-purchase, references "1984" and "The Fellowship of
/// the Ring"; PR α=0.85, CR K=5 σ=exp, PPR α=0.85.
///
/// Note: the paper's Table II lists the top-5 *excluding* the reference
/// for these columns; we drop the leading reference row to align.
pub fn table2() -> Vec<TableBlock> {
    let mut blocks = vec![
        scenario_block(
            &fixtures::amazon_books(),
            5,
            0.85,
            &TABLE2_PAPER_PR,
            &TABLE2_PAPER_CR_1984,
            &TABLE2_PAPER_PPR_1984,
        ),
        scenario_block(
            &fixtures::amazon_books_fellowship(),
            5,
            0.85,
            &TABLE2_PAPER_PR,
            &TABLE2_PAPER_CR_FELLOWSHIP,
            &TABLE2_PAPER_PPR_FELLOWSHIP,
        ),
    ];
    for b in &mut blocks {
        // Drop the reference itself from the personalized columns, as the
        // paper does for Table II.
        for col in &mut b.measured[1..] {
            if col.entries.first().map(|e| *e == b.caption).unwrap_or(false) {
                col.entries.remove(0);
                let g = match b.caption.as_str() {
                    "1984" => fixtures::amazon_books(),
                    _ => fixtures::amazon_books_fellowship(),
                };
                // Refill to 5 rows.
                refill(col, &g, b.caption.as_str());
            }
        }
    }
    blocks
}

fn refill(col: &mut Column, sc: &Scenario, reference: &str) {
    if col.entries.len() >= 5 {
        return;
    }
    // Recompute with a larger k and take the first 5 non-reference rows.
    let g = Arc::new(sc.graph.clone());
    let r = sc.reference_node();
    let query = if col.header.starts_with("Cyclerank") {
        Query::on(&g).algorithm("cyclerank").reference(r).k(5)
    } else {
        Query::on(&g).algorithm("ppr").alpha(0.85).reference(r)
    };
    let entries: Vec<String> =
        query.top(6).run().unwrap().top_entries().into_iter().map(|(l, _)| l).collect();
    col.entries = entries.into_iter().filter(|e| e != reference).take(5).collect();
}

/// The paper's Table III published columns (per language, rows 1-5; short
/// columns are padded with "-" in the paper).
pub fn table3_paper(lang: Language) -> Vec<&'static str> {
    lang.fake_news_neighbours().to_vec()
}

/// Table III: CycleRank (K=3, σ=exp) per language edition.
pub fn table3() -> Vec<(Language, Column)> {
    Language::ALL
        .into_iter()
        .map(|lang| {
            let sc = fixtures::fakenews(lang);
            let result = Query::on(&sc.graph)
                .algorithm("cyclerank")
                .reference(sc.reference_node())
                .k(3)
                .run()
                .expect("cyclerank");
            // Drop the reference row; Table III lists neighbours only.
            let mut col = Column::from_scores(
                format!("Fake news ({lang})"),
                &sc.graph,
                result.scores().expect("scores"),
                1 + lang.fake_news_neighbours().len(),
            );
            col.entries.retain(|e| e != sc.reference);
            (lang, col)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_paper_columns_exactly() {
        let blocks = table1();
        assert_eq!(blocks.len(), 2);
        for (block, (cr_paper, ppr_paper)) in blocks.iter().zip([
            (&TABLE1_PAPER_CR_FREDDIE, &TABLE1_PAPER_PPR_FREDDIE),
            (&TABLE1_PAPER_CR_PASTA, &TABLE1_PAPER_PPR_PASTA),
        ]) {
            assert_eq!(block.measured[0].entries, TABLE1_PAPER_PR.to_vec(), "PR column");
            assert_eq!(block.measured[1].entries, cr_paper.to_vec(), "{} CR", block.caption);
            assert_eq!(block.measured[2].entries, ppr_paper.to_vec(), "{} PPR", block.caption);
        }
    }

    #[test]
    fn table2_pr_column_exact_and_cr_sets_match() {
        let blocks = table2();
        for block in &blocks {
            assert_eq!(block.measured[0].entries, TABLE2_PAPER_PR.to_vec());
            // CycleRank column: same 5 items as the paper (order may differ
            // in the middle; the measured order is in
            // `tests/golden/reproduce.txt`, and the README gives the
            // `reproduce` command that prints it).
            let paper: std::collections::HashSet<&str> = block.paper[1].1.iter().copied().collect();
            let measured: std::collections::HashSet<&str> =
                block.measured[1].entries.iter().map(String::as_str).collect();
            assert_eq!(measured, paper, "{} CR set", block.caption);
            assert_eq!(block.measured[1].entries.len(), 5);
        }
    }

    #[test]
    fn table3_reproduces_all_columns_exactly() {
        for (lang, col) in table3() {
            assert_eq!(col.entries, table3_paper(lang), "{lang}");
        }
    }
}
