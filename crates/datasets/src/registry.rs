//! The catalog of 50 pre-loaded datasets.
//!
//! The demo ships 50 datasets; this registry reproduces that catalog with
//! deterministic synthetic stand-ins:
//!
//! * 36 WikiLinkGraphs snapshots — 9 languages (`de, en, es, fr, it, nl,
//!   pl, ru, sv`) × 4 yearly snapshots (`2003, 2008, 2013, 2018`), sized
//!   per language and year. The 2018 snapshots of the six Table III
//!   languages embed the labelled "Fake news" neighbourhood so the paper's
//!   dataset-comparison query runs on them directly;
//! * 1 Amazon co-purchase graph;
//! * 2 Twitter interaction networks (`cop27`, `8m`);
//! * 2 table fixtures (`fixture-enwiki-2018`, `fixture-amazon-books`) — the
//!   exact graphs behind Tables I and II;
//! * 6 language fixtures (`fixture-fakenews-XX`) — the exact graphs behind
//!   Table III;
//! * 3 synthetic benchmark graphs (Erdős–Rényi, preferential attachment,
//!   bidirectional ring).
//!
//! Every dataset is generated from a seed derived from its id, so
//! `load_dataset` is reproducible across runs.

use crate::fixtures::{self, Language};
use crate::{amazon, classic, twitter, wikilink};
use relgraph::{DirectedGraph, GraphBuilder, NodeOrdering};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Dataset family, mirroring the demo's three sources plus internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DatasetKind {
    /// WikiLinkGraphs-like snapshot.
    Wikipedia,
    /// Amazon co-purchase-like graph.
    Amazon,
    /// Twitter interaction network.
    Twitter,
    /// Hand-labelled table fixture.
    Fixture,
    /// Synthetic benchmark graph.
    Synthetic,
}

/// Catalog entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Stable identifier, e.g. `wiki-en-2018`.
    pub id: String,
    /// Human-readable name as shown in the demo's dataset picker.
    pub name: String,
    /// Family.
    pub kind: DatasetKind,
    /// One-line description.
    pub description: String,
    /// Approximate node count (informational).
    pub approx_nodes: u32,
    /// Cache-locality node ordering applied at load time (`None` keeps
    /// generation order). Invisible to consumers addressing nodes the
    /// supported ways: labeled nodes keep their labels, and **unlabeled**
    /// nodes are labeled with their original index before reordering, so
    /// numeric-string references to them resolve unchanged. The one
    /// unsupported addressing mode is referring to a *labeled* node by
    /// its raw generation-order index — a node can carry only one label,
    /// so that spelling falls through to the post-reorder id space;
    /// address labeled nodes by label (see [`apply_reorder`]).
    #[serde(default)]
    pub reorder: Option<NodeOrdering>,
}

const LANGS: [&str; 9] = ["de", "en", "es", "fr", "it", "nl", "pl", "ru", "sv"];
const YEARS: [u32; 4] = [2003, 2008, 2013, 2018];

fn lang_base_size(lang: &str) -> u32 {
    match lang {
        "en" => 4000,
        "de" => 2600,
        "fr" => 2300,
        "es" => 2100,
        "it" => 1900,
        "ru" => 1700,
        "nl" => 1500,
        "pl" => 1400,
        "sv" => 1200,
        _ => 1000,
    }
}

fn year_factor(year: u32) -> f64 {
    match year {
        2003 => 0.15,
        2008 => 0.4,
        2013 => 0.7,
        _ => 1.0,
    }
}

fn wiki_nodes(lang: &str, year: u32) -> u32 {
    (lang_base_size(lang) as f64 * year_factor(year)) as u32
}

fn table3_language(lang: &str) -> Option<Language> {
    match lang {
        "de" => Some(Language::De),
        "en" => Some(Language::En),
        "fr" => Some(Language::Fr),
        "it" => Some(Language::It),
        "nl" => Some(Language::Nl),
        "pl" => Some(Language::Pl),
        _ => None,
    }
}

/// FNV-1a hash of the id: the per-dataset generation seed.
fn seed_for(id: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in id.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The catalog, built once per process: entries in display order plus
/// an id → position index, shared by [`catalog`] and [`spec`].
struct Catalog {
    entries: Vec<DatasetSpec>,
    by_id: HashMap<String, usize>,
}

fn built_catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let entries = build_entries();
        let by_id = entries.iter().enumerate().map(|(i, s)| (s.id.clone(), i)).collect();
        Catalog { entries, by_id }
    })
}

/// The full 50-entry catalog, in display order.
pub fn catalog() -> Vec<DatasetSpec> {
    built_catalog().entries.clone()
}

fn build_entries() -> Vec<DatasetSpec> {
    let mut out = Vec::with_capacity(50);
    for lang in LANGS {
        for year in YEARS {
            out.push(DatasetSpec {
                id: format!("wiki-{lang}-{year}"),
                name: format!("{lang}wiki {year}-03-01"),
                kind: DatasetKind::Wikipedia,
                description: format!(
                    "WikiLinkGraphs-like snapshot of the {lang} Wikipedia as of {year}"
                ),
                approx_nodes: wiki_nodes(lang, year),
                // Web-like degree distribution: hubs-first keeps the hot
                // score entries of every pull sweep cache-resident.
                reorder: Some(NodeOrdering::DegreeDescending),
            });
        }
    }
    out.push(DatasetSpec {
        id: "amazon-copurchase".into(),
        name: "Amazon co-purchase".into(),
        kind: DatasetKind::Amazon,
        description: "co-purchased products (books, music CDs, DVDs)".into(),
        approx_nodes: 20_000,
        // Clustered genres: BFS/RCM numbering keeps each cluster's ids
        // contiguous, shrinking the gather span of every adjacency row.
        reorder: Some(NodeOrdering::Bfs),
    });
    for (id, name, users) in
        [("twitter-cop27", "Twitter cop27", 5000u32), ("twitter-8m", "Twitter 8m", 4000)]
    {
        out.push(DatasetSpec {
            id: id.into(),
            name: name.into(),
            kind: DatasetKind::Twitter,
            description: "users interacting via retweet/reply/quote/mention".into(),
            approx_nodes: users,
            reorder: Some(NodeOrdering::DegreeDescending),
        });
    }
    out.push(DatasetSpec {
        id: "fixture-enwiki-2018".into(),
        name: "Table I fixture (enwiki)".into(),
        kind: DatasetKind::Fixture,
        description: "labelled Freddie Mercury / Pasta neighbourhoods (paper Table I)".into(),
        approx_nodes: 400,
        reorder: None,
    });
    out.push(DatasetSpec {
        id: "fixture-amazon-books".into(),
        name: "Table II fixture (Amazon)".into(),
        kind: DatasetKind::Fixture,
        description: "labelled 1984 / Fellowship of the Ring neighbourhoods (paper Table II)"
            .into(),
        approx_nodes: 350,
        reorder: None,
    });
    for lang in Language::ALL {
        out.push(DatasetSpec {
            id: format!("fixture-fakenews-{lang}"),
            name: format!("Table III fixture ({lang})"),
            kind: DatasetKind::Fixture,
            description: format!("labelled Fake-news neighbourhood, {lang} edition (Table III)"),
            approx_nodes: 300,
            reorder: None,
        });
    }
    for (id, name, desc, nodes, reorder) in [
        (
            "synthetic-er",
            "Erdős–Rényi G(2000, 0.005)",
            "uniform random directed graph",
            2000u32,
            Some(NodeOrdering::Bfs),
        ),
        (
            "synthetic-ba",
            "Preferential attachment (5000, m=5)",
            "heavy-tailed scale-free-like directed graph",
            5000,
            Some(NodeOrdering::DegreeDescending),
        ),
        (
            "synthetic-ring",
            "Bidirectional ring (1000)",
            "every adjacent pair mutually linked: CycleRank's best case",
            1000,
            // Already the optimal (banded) numbering.
            None,
        ),
    ] {
        out.push(DatasetSpec {
            id: id.into(),
            name: name.into(),
            kind: DatasetKind::Synthetic,
            description: desc.into(),
            approx_nodes: nodes,
            reorder,
        });
    }
    out
}

/// Looks up a catalog entry by id.
pub fn spec(id: &str) -> Option<DatasetSpec> {
    let catalog = built_catalog();
    catalog.by_id.get(id).map(|&i| catalog.entries[i].clone())
}

/// Generates the graph for a dataset id. Returns `None` for unknown ids.
///
/// Datasets whose catalog entry sets [`DatasetSpec::reorder`] are
/// relabeled for cache locality at load time, with node identity pinned
/// by labels (see [`apply_reorder`]).
pub fn load_dataset(id: &str) -> Option<DirectedGraph> {
    let g = load_raw(id)?;
    match spec(id).and_then(|s| s.reorder) {
        Some(ordering) => Some(apply_reorder(g, ordering)),
        None => Some(g),
    }
}

/// Reorders a freshly generated dataset for serving, making the
/// permutation invisible to label-based and numeric-string references:
/// before relabeling, any node without a label is labeled with its
/// **original index** (unless that string already names another node,
/// whose label-first resolution wins today anyway), so both label
/// references and numeric-string references to unlabeled nodes keep
/// resolving to the same conceptual node after the ids move. Nodes that
/// already carry a label keep only that label (one label per node), so
/// they must be addressed by it — see [`DatasetSpec::reorder`].
pub fn apply_reorder(mut g: DirectedGraph, ordering: NodeOrdering) -> DirectedGraph {
    let unlabeled: Vec<relgraph::NodeId> =
        g.nodes().filter(|&u| g.labels().get(u).is_none()).collect();
    for u in unlabeled {
        let idx = u.raw().to_string();
        if g.node_by_label(&idx).is_none() {
            g.labels_mut().set(u, idx);
        }
    }
    let (g, _inverse) =
        g.reordered_by(ordering).expect("registry datasets fit the u32 node-id space");
    g
}

/// Generates the graph for a dataset id in raw generation order.
fn load_raw(id: &str) -> Option<DirectedGraph> {
    let seed = seed_for(id);
    // Fixtures.
    match id {
        "fixture-enwiki-2018" => return Some(fixtures::enwiki_2018().graph),
        "fixture-amazon-books" => return Some(fixtures::amazon_books().graph),
        "amazon-copurchase" => {
            return Some(amazon::generate(&amazon::AmazonConfig::default(), seed))
        }
        "twitter-cop27" => {
            return Some(twitter::generate(&twitter::TwitterConfig::default(), seed))
        }
        "twitter-8m" => {
            let cfg = twitter::TwitterConfig::default().with_users(4000);
            return Some(twitter::generate(&cfg, seed));
        }
        "synthetic-er" => return Some(classic::erdos_renyi(2000, 0.005, seed)),
        "synthetic-ba" => return Some(classic::preferential_attachment(5000, 5, 0.9, seed)),
        "synthetic-ring" => return Some(classic::bidirectional_ring(1000)),
        _ => {}
    }
    if let Some(lang) = id.strip_prefix("fixture-fakenews-") {
        let lang = table3_language(lang)?;
        return Some(fixtures::fakenews(lang).graph);
    }
    // wiki-{lang}-{year}
    let rest = id.strip_prefix("wiki-")?;
    let (lang, year) = rest.split_once('-')?;
    let year: u32 = year.parse().ok()?;
    if !LANGS.contains(&lang) || !YEARS.contains(&year) {
        return None;
    }
    let cfg = wikilink::WikilinkConfig::default().with_nodes(wiki_nodes(lang, year));
    let base = wikilink::generate(&cfg, seed);
    // 2018 snapshots of the Table III languages embed the labelled
    // Fake-news neighbourhood, so the paper's query runs on them directly.
    if year == 2018 {
        if let Some(l) = table3_language(lang) {
            return Some(merge(base, fixtures::fakenews(l).graph));
        }
    }
    Some(base)
}

/// Merges two graphs: `extra`'s nodes are appended after `base`'s (ids
/// shifted), labels carried over, and no cross edges are added — the
/// embedded neighbourhood keeps its engineered cycle structure.
fn merge(base: DirectedGraph, extra: DirectedGraph) -> DirectedGraph {
    let offset = base.node_count() as u32;
    let total = base.node_count() + extra.node_count();
    let mut b = GraphBuilder::with_capacity(total, base.edge_count() + extra.edge_count());
    if total > 0 {
        b.ensure_node(total as u32 - 1);
    }
    for (u, v) in base.edges() {
        b.add_edge(u, v);
    }
    for (u, v) in extra.edges() {
        b.add_edge_indices(u.raw() + offset, v.raw() + offset);
    }
    let mut g = b.build();
    for (u, l) in base.labels().iter() {
        g.labels_mut().set(u, l.to_owned());
    }
    for (u, l) in extra.labels().iter() {
        g.labels_mut().set(relgraph::NodeId::new(u.raw() + offset), l.to_owned());
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_exactly_fifty() {
        let c = catalog();
        assert_eq!(c.len(), 50);
        // Ids are unique.
        let mut ids: Vec<&str> = c.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 50);
    }

    #[test]
    fn kind_counts_match_paper_sources() {
        let c = catalog();
        let count = |k: DatasetKind| c.iter().filter(|s| s.kind == k).count();
        assert_eq!(count(DatasetKind::Wikipedia), 36);
        assert_eq!(count(DatasetKind::Amazon), 1);
        assert_eq!(count(DatasetKind::Twitter), 2);
        assert_eq!(count(DatasetKind::Fixture), 8);
        assert_eq!(count(DatasetKind::Synthetic), 3);
    }

    #[test]
    fn every_catalog_entry_loads() {
        // Load the small ones fully; spot-check one large per family.
        for s in catalog() {
            if s.approx_nodes <= 1500 {
                let g = load_dataset(&s.id).unwrap_or_else(|| panic!("{} failed", s.id));
                assert!(!g.is_empty(), "{} empty", s.id);
            }
        }
        assert!(load_dataset("wiki-en-2018").is_some());
        assert!(load_dataset("amazon-copurchase").is_some());
        assert!(load_dataset("twitter-cop27").is_some());
    }

    #[test]
    fn unknown_ids_rejected() {
        assert!(load_dataset("nope").is_none());
        assert!(load_dataset("wiki-xx-2018").is_none());
        assert!(load_dataset("wiki-en-1999").is_none());
        assert!(load_dataset("fixture-fakenews-es").is_none());
    }

    #[test]
    fn spec_lookup() {
        let s = spec("wiki-en-2018").unwrap();
        assert_eq!(s.kind, DatasetKind::Wikipedia);
        assert!(spec("bogus").is_none());
        // The indexed lookup answers exactly what a scan of the catalog
        // would, for every entry — and nothing for an upload's id.
        for entry in catalog() {
            assert_eq!(spec(&entry.id), Some(entry));
        }
        assert!(spec("upload-0193a5c2").is_none());
    }

    #[test]
    fn loading_is_deterministic() {
        let a = load_dataset("wiki-sv-2003").unwrap();
        let b = load_dataset("wiki-sv-2003").unwrap();
        assert_eq!(a.edge_count(), b.edge_count());
        for u in a.nodes() {
            assert_eq!(a.out_neighbors(u), b.out_neighbors(u));
        }
    }

    #[test]
    fn different_datasets_differ() {
        let a = load_dataset("wiki-sv-2003").unwrap();
        let b = load_dataset("wiki-pl-2003").unwrap();
        assert_ne!(a.node_count(), b.node_count());
    }

    #[test]
    fn year_scales_size() {
        let old = load_dataset("wiki-sv-2003").unwrap();
        let new = load_dataset("wiki-sv-2013").unwrap();
        assert!(new.node_count() > old.node_count() * 3);
    }

    #[test]
    fn wiki_2018_embeds_fakenews_neighbourhood() {
        for lang in Language::ALL {
            let id = format!("wiki-{}-2018", lang.code());
            let g = load_dataset(&id).unwrap();
            let title = lang.fake_news_title();
            assert!(g.node_by_label(title).is_some(), "{id}: {title} missing");
            for m in lang.fake_news_neighbours() {
                assert!(g.node_by_label(m).is_some(), "{id}: {m} missing");
            }
        }
        // Non-Table-III language: no embedding.
        let g = load_dataset("wiki-es-2018").unwrap();
        assert!(g.node_by_label("Fake news").is_none());
    }

    #[test]
    fn reordered_dataset_is_invisible_through_references() {
        // synthetic-er opts into BFS reordering; node identity must
        // survive through original-index labels.
        assert_eq!(spec("synthetic-er").unwrap().reorder, Some(NodeOrdering::Bfs));
        let raw = load_raw("synthetic-er").unwrap();
        let served = load_dataset("synthetic-er").unwrap();
        assert_eq!(served.node_count(), raw.node_count());
        assert_eq!(served.edge_count(), raw.edge_count());
        // Every original index resolves as a label on the served graph,
        // and the resolved node has exactly the original adjacency.
        for u in [0u32, 1, 42, 1999] {
            let s = served.node_by_label(&u.to_string()).unwrap_or_else(|| panic!("{u} lost"));
            let raw_u = relgraph::NodeId::new(u);
            assert_eq!(served.out_degree(s), raw.out_degree(raw_u), "node {u}");
            for &v in raw.out_neighbors(raw_u) {
                let sv = served.node_by_label(&v.raw().to_string()).unwrap();
                assert!(served.has_edge(s, sv), "{u}->{} lost", v.raw());
            }
        }
    }

    #[test]
    fn partially_labeled_reordered_dataset_keeps_both_reference_kinds() {
        // wiki-it-2018 merges the labeled Fake-news fixture into an
        // otherwise unlabeled snapshot, then reorders degree-first.
        let raw = load_raw("wiki-it-2018").unwrap();
        let served = load_dataset("wiki-it-2018").unwrap();
        // Labeled nodes: addressed by label, adjacency intact.
        let r = served.node_by_label("Fake news").unwrap();
        let first = served.node_by_label("Disinformazione").unwrap();
        assert!(served.has_edge(r, first) && served.has_edge(first, r));
        // Unlabeled nodes: numeric-string references stay pinned to the
        // original generation-order node via the auto index label.
        for u in [0u32, 7, 123] {
            if raw.labels().get(relgraph::NodeId::new(u)).is_some() {
                continue;
            }
            let s = served.node_by_label(&u.to_string()).unwrap();
            assert_eq!(served.out_degree(s), raw.out_degree(relgraph::NodeId::new(u)), "{u}");
        }
    }

    #[test]
    fn degree_reordered_dataset_puts_hubs_first() {
        let g = load_dataset("synthetic-ba").unwrap();
        let first = relgraph::NodeId::new(0);
        let max_deg = g.nodes().map(|u| g.out_degree(u) + g.in_degree(u)).max().unwrap();
        assert_eq!(g.out_degree(first) + g.in_degree(first), max_deg, "node 0 must be the hub");
    }

    #[test]
    fn fixtures_keep_generation_order() {
        for s in catalog() {
            if s.kind == DatasetKind::Fixture {
                assert_eq!(s.reorder, None, "{}", s.id);
            }
        }
    }

    #[test]
    fn merge_preserves_cycles_of_embedded_fixture() {
        let g = load_dataset("wiki-it-2018").unwrap();
        let r = g.node_by_label("Fake news").unwrap();
        let first = g.node_by_label("Disinformazione").unwrap();
        assert!(g.has_edge(r, first) && g.has_edge(first, r));
    }
}
