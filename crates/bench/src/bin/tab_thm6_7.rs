//! Experiment `tab_thm6_7`: transposition-network (and bubble-sort)
//! embeddings. Measured dilation vs the claims — TN→MS/Complete-RS: 5 when
//! `l = 2`, 7 when `l >= 3`; TN→IS: 6; TN→MIS/Complete-RIS: O(1) — plus a
//! histogram of expansion lengths over the six cases of Theorem 6.

use scg_bench::{f3, Table};
use scg_core::{BubbleSortGraph, CayleyNetwork, SuperCayleyGraph, TranspositionNetwork};
use scg_embed::CayleyEmbedding;

fn main() {
    const CAP: u64 = 50_000;
    let mut t = Table::new(&[
        "guest",
        "host",
        "dilation",
        "claimed",
        "mean path",
        "congestion",
        "load",
        "expansion",
    ]);
    println!("== Theorems 6-7: transposition-network embeddings ==\n");
    let cases: Vec<(String, SuperCayleyGraph, &str)> = vec![
        (
            "7-TN".into(),
            SuperCayleyGraph::macro_star(2, 3).unwrap(),
            "5 (l=2)",
        ),
        (
            "7-TN".into(),
            SuperCayleyGraph::macro_star(3, 2).unwrap(),
            "7 (l>=3)",
        ),
        (
            "7-TN".into(),
            SuperCayleyGraph::complete_rotation_star(2, 3).unwrap(),
            "5 (l=2)",
        ),
        (
            "7-TN".into(),
            SuperCayleyGraph::complete_rotation_star(3, 2).unwrap(),
            "7 (l>=3)",
        ),
        (
            "7-TN".into(),
            SuperCayleyGraph::insertion_selection(7).unwrap(),
            "6",
        ),
        (
            "7-TN".into(),
            SuperCayleyGraph::macro_is(3, 2).unwrap(),
            "O(1)",
        ),
        (
            "7-TN".into(),
            SuperCayleyGraph::complete_rotation_is(3, 2).unwrap(),
            "O(1)",
        ),
    ];
    for (gname, host, claim) in &cases {
        let tn = TranspositionNetwork::new(host.degree_k()).unwrap();
        let ce = CayleyEmbedding::build(&tn, host, CAP).unwrap();
        let e = ce.embedding();
        t.row(&[
            gname.clone(),
            host.name(),
            e.dilation().to_string(),
            (*claim).to_string(),
            f3(e.mean_path_length()),
            e.congestion().to_string(),
            e.load().to_string(),
            f3(e.expansion()),
        ]);
    }
    // Bubble-sort graphs are TN subgraphs → same constants apply.
    for host in [
        SuperCayleyGraph::macro_star(3, 2).unwrap(),
        SuperCayleyGraph::insertion_selection(7).unwrap(),
    ] {
        let bs = BubbleSortGraph::new(host.degree_k()).unwrap();
        let ce = CayleyEmbedding::build(&bs, &host, CAP).unwrap();
        let e = ce.embedding();
        t.row(&[
            "7-bubble-sort".into(),
            host.name(),
            e.dilation().to_string(),
            "<= TN claim".into(),
            f3(e.mean_path_length()),
            e.congestion().to_string(),
            e.load().to_string(),
            f3(e.expansion()),
        ]);
    }
    print!("{}", t.render());

    // Six-case expansion-length histogram for Theorem 6 on MS(3,2).
    let host = SuperCayleyGraph::macro_star(3, 2).unwrap();
    let plan = scg_core::route_plan(&host).unwrap();
    let k = host.degree_k();
    let mut hist = std::collections::BTreeMap::new();
    for i in 1..=k {
        for j in i + 1..=k {
            let len = plan.tn_link(i, j).unwrap().len();
            *hist.entry(len).or_insert(0usize) += 1;
        }
    }
    println!("\nExpansion-length histogram for all T_{{i,j}} on MS(3,2):");
    for (len, count) in hist {
        println!("  length {len}: {count} link types");
    }
}
