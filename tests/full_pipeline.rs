//! Cross-crate integration: file formats → graph substrate → algorithms →
//! engine, end to end.

use cyclerank_platform::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A user uploads a graph file (as the demo supports), the platform parses
/// it, runs every algorithm on it, and the rankings are consistent across
/// the format round-trip.
#[test]
fn uploaded_graph_roundtrips_through_all_formats_and_algorithms() {
    // Build a small labelled community graph and serialize it as Pajek
    // (the only format carrying labels).
    let mut b = GraphBuilder::new();
    b.add_labeled_edge("center", "a");
    b.add_labeled_edge("a", "center");
    b.add_labeled_edge("center", "b");
    b.add_labeled_edge("b", "center");
    b.add_labeled_edge("a", "b");
    b.add_labeled_edge("b", "a");
    b.add_labeled_edge("center", "popular");
    b.add_labeled_edge("a", "popular");
    b.add_labeled_edge("b", "popular");
    b.add_labeled_edge("popular", "elsewhere");
    b.add_labeled_edge("elsewhere", "popular");
    let original = b.build();

    let pajek = cyclerank_platform::formats::write_graph_to_string(
        &original,
        cyclerank_platform::formats::Format::Pajek,
    );
    let loaded = cyclerank_platform::formats::load_graph_from_str(
        &pajek,
        Some(cyclerank_platform::formats::Format::Pajek),
    )
    .expect("parse own output");

    let original = Arc::new(original);
    let loaded = Arc::new(loaded);
    for algo in Algorithm::ALL {
        let a = Query::on(&original)
            .algorithm(algo)
            .reference("center")
            .run()
            .expect("algorithm on original");
        let b = Query::on(&loaded)
            .algorithm(algo)
            .reference("center")
            .run()
            .expect("algorithm on loaded");
        // Same labels in the same ranked order.
        let la: Vec<String> = a.ranking().top_k_labeled(&original, 5);
        let lb: Vec<String> = b.ranking().top_k_labeled(&loaded, 5);
        assert_eq!(la, lb, "{algo} ranking differs across format round-trip");
    }
}

/// Registry datasets work through the whole stack, including the weighted
/// Twitter graphs.
#[test]
fn weighted_twitter_dataset_through_engine() {
    let engine = Scheduler::builder().workers(1).build();
    let id = engine.submit(
        TaskBuilder::new("twitter-cop27").algorithm(Algorithm::PageRank).top_k(10).build().unwrap(),
    );
    let r = engine.wait(&id, Duration::from_secs(120)).unwrap();
    assert_eq!(r.top.len(), 10);
    // Celebrities (ids 0..5) dominate PageRank on the interaction network.
    let top_ids: Vec<u32> = r.top.iter().filter_map(|(l, _)| l.parse().ok()).collect();
    assert!(
        top_ids.iter().filter(|&&i| i < 5).count() >= 3,
        "expected celebrity accounts in the top-10, got {top_ids:?}"
    );
}

/// The dataset-comparison use case across snapshots of the same language
/// (the "compare a graph at different points in time" functionality).
#[test]
fn temporal_snapshots_differ_but_both_answer() {
    let engine = Scheduler::builder().workers(2).build();
    let sizes: Vec<usize> = ["wiki-sv-2003", "wiki-sv-2018"]
        .iter()
        .map(|ds| {
            let id = engine.submit(
                TaskBuilder::new(*ds).algorithm(Algorithm::PageRank).top_k(5).build().unwrap(),
            );
            let r = engine.wait(&id, Duration::from_secs(120)).unwrap();
            assert_eq!(r.top.len(), 5, "{ds}");
            r.nodes
        })
        .collect();
    assert!(sizes[1] > sizes[0] * 3, "2018 snapshot should dwarf 2003: {sizes:?}");
}
