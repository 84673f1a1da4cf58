//! The paper's figures and tables as checked artifacts.
//!
//! Each function below measures one artifact, renders the text kept in
//! `results/<id>.txt`, and records as a [`Claim`] every result its
//! "claimed" / "bound" columns and its caption state. [`TABLES`] is the only
//! registry: the `reproduce` binary writes every artifact from it, and the
//! `reproduce` integration test asserts every claim and compares every text
//! byte for byte with `results/`.
//!
//! A deviation from the paper that a table already footnotes is pinned at
//! its exact value in a named exception list, so any new deviation fails.

use std::collections::{BTreeMap, HashSet};
use std::error::Error;
use std::fmt::{self, Display, Write};
use std::path::PathBuf;

use scg_bag::BagGame;
use scg_comm::{
    gather_all_port, mnb_all_port, mnb_sdc, scatter_all_port, snb_all_port, te_all_port, te_sdc,
    CommError, MnbReport, TeReport,
};
use scg_core::{
    materialize, route_faulty, route_plan, star_diameter, BubbleSortGraph, CayleyNetwork,
    CoreError, FaultScratch, NetworkReport, ScgClass, StarGraph, SuperCayleyGraph,
    TranspositionNetwork, SMALL_NET_CAP,
};
use scg_embed::{
    cube_dimension_for, factorial_mesh_into_scg, factorial_mesh_into_tn, hypercube_into_scg,
    hypercube_into_star, hypercube_into_tn, linear_array_into_star, mesh2d_into_scg,
    mesh2d_into_tn, reembed_scg, reembed_scg_rebalanced, tree_into_scg, tree_into_star,
    CayleyEmbedding, EmbedError, Embedding,
};
use scg_emu::{
    pipelined_dimension_cost, run_chaos, AllPortSchedule, ChaosConfig, Packet, PortModel,
    SdcReport, SyncSim, TableRouter, TrafficSummary,
};
use scg_graph::{
    moore_diameter_lower_bound, DenseGraph, DistanceStats, FaultSchedule, FaultSet, NodeId,
    SearchBudget, SurvivorView,
};
use scg_perm::{factorial, group_order, XorShift64};

use crate::{all_class_hosts_k5, f3, host, hosts, nets, Table};

/// Node cap for every materialization in the tables (the largest is 7!).
const CAP: u64 = 50_000;

/// One claim an artifact checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// The claim as a sentence, naming the measured value.
    pub what: String,
    /// Whether the measurement bears the claim out.
    pub holds: bool,
}

/// A rendered artifact and the claims checked while measuring it.
#[derive(Debug, Clone, Default)]
pub struct Artifact {
    /// The text, byte for byte the content of `results/<id>.txt`.
    pub text: String,
    /// Every claim the table or its caption makes.
    pub claims: Vec<Claim>,
}

impl Artifact {
    /// The claims the measurement does not bear out.
    pub fn failed(&self) -> impl Iterator<Item = &Claim> {
        self.claims.iter().filter(|c| !c.holds)
    }

    fn claim(&mut self, what: String, holds: bool) {
        self.claims.push(Claim { what, holds });
    }

    fn claim_eq<T: PartialEq + Display>(&mut self, of: &str, what: &str, got: T, want: T) {
        let holds = got == want;
        self.claim(format!("{of}: {what} = {want} (measured {got})"), holds);
    }

    fn claim_le<T: PartialOrd + Display>(&mut self, of: &str, what: &str, got: T, bound: T) {
        let holds = got <= bound;
        self.claim(format!("{of}: {what} <= {bound} (measured {got})"), holds);
    }

    fn claim_ge<T: PartialOrd + Display>(&mut self, of: &str, what: &str, got: T, bound: T) {
        let holds = got >= bound;
        self.claim(format!("{of}: {what} >= {bound} (measured {got})"), holds);
    }
}

impl Write for Artifact {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.text.push_str(s);
        Ok(())
    }
}

/// Measures and renders one artifact.
pub type Render = fn() -> Result<Artifact, Box<dyn Error>>;

/// Every checked artifact, by id: the file stem under `results/`.
pub const TABLES: &[(&str, Render)] = &[
    ("fig1", fig1),
    ("tab_networks", tab_networks),
    ("tab_dist", tab_dist),
    ("tab_thm1_3", tab_thm1_3),
    ("tab_thm4_5", tab_thm4_5),
    ("tab_thm6_7", tab_thm6_7),
    ("tab_cor4", tab_cor4),
    ("tab_cor5", tab_cor5),
    ("tab_cor6_7", tab_cor6_7),
    ("tab_mnb", tab_mnb),
    ("tab_te", tab_te),
    ("tab_snb", tab_snb),
    ("tab_traffic", tab_traffic),
    ("tab_group", tab_group),
    ("tab_bag", tab_bag),
    ("tab_faults", tab_faults),
    ("tab_embed", tab_embed),
    ("tab_chaos", tab_chaos),
];

/// The directory holding the reference text of every artifact.
#[must_use]
pub fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

/// A table whose header is written as it renders: `"network | k | N"`.
fn table(header: &str) -> Table {
    Table::new(&header.split(" | ").collect::<Vec<_>>())
}

/// The value pinned for `name` in a named exception list, if any.
fn pinned<T: Copy>(exceptions: &[(&str, T)], name: &str) -> Option<T> {
    exceptions.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// The longest `T_{i,j}` expansion on `host`: its transposition-network
/// dilation (Theorems 6–7).
fn tn_dilation(host: &SuperCayleyGraph) -> Result<usize, CoreError> {
    let plan = route_plan(host)?;
    let k = host.degree_k();
    let mut worst = 0;
    for i in 1..=k {
        for j in i + 1..=k {
            worst = worst.max(plan.tn_link(i, j)?.len());
        }
    }
    Ok(worst)
}

/// Figure 1: the all-port schedules emulating a 13-star on MS(4,3) /
/// Complete-RS(4,3) (1a) and a 16-star on MS(5,3) / Complete-RS(5,3) (1b),
/// with the caption's claims: makespan 6 (Theorem 4's bound), a generator
/// at most once per row, and for 1b links fully used through step 5 and
/// 39 of 42 link-steps busy (93%).
fn fig1() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    a.text
        .push_str("== Figure 1: all-port star emulation schedules ==\n\n");
    let tags = ["Figure 1a", "Figure 1a'", "Figure 1b", "Figure 1b'"];
    let cases = hosts("MS(4,3) Complete-RS(4,3) MS(5,3) Complete-RS(5,3)")?;
    for (tag, host) in tags.into_iter().zip(&cases) {
        let s = AllPortSchedule::build(host)?;
        let bound = s.theoretical_bound().ok_or("no Theorem 4 bound")?;
        let valid = s.validate().is_ok();
        a.claim(format!("{tag}: the schedule validates"), valid);
        a.claim_eq(tag, "makespan", s.makespan(), 6);
        a.claim_eq(tag, "Theorem 4 bound", bound, 6);
        if tag.starts_with("Figure 1b") {
            let busy = format!("{}/{}", s.total_hops(), s.links().len() * s.makespan());
            a.claim_eq(tag, "busy link-steps", busy.as_str(), "39/42");
            a.claim_eq(tag, "fully used through step", s.fully_used_through(), 5);
        }
        writeln!(a, "--- {tag} ---")?;
        a.text.push_str(&s.render());
        writeln!(
            a,
            "makespan {} vs Theorem 4 bound {:?}; paper caption: '93%' for 1b (measured {:.1}%)\n",
            s.makespan(),
            s.theoretical_bound(),
            100.0 * s.utilization()
        )?;
    }
    Ok(a)
}

/// §2's topology table: size, degree, measured diameter and mean distance,
/// the Moore bound `DL(d, N)`, directedness and vertex transitivity for
/// the reference Cayley networks and every class; the star diameter is
/// `⌊3(k−1)/2⌋`, and MS(3,2)'s all-pairs statistics equal its
/// single-source figures.
fn tab_networks() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    let mut reports = Vec::new();
    for k in 4..=7 {
        let r = NetworkReport::measure(&StarGraph::new(k)?, CAP)?;
        a.claim_eq(&r.name, "diameter ⌊3(k-1)/2⌋", r.diameter, star_diameter(k));
        reports.push(r);
    }
    for k in 4..=6 {
        reports.push(NetworkReport::measure(&BubbleSortGraph::new(k)?, CAP)?);
        reports.push(NetworkReport::measure(&TranspositionNetwork::new(k)?, CAP)?);
    }
    // All ten classes at k = 5, then the undirected emulation-capable
    // classes at k = 7.
    let k7 = hosts(
        "MS(3,2) MS(2,3) RS(3,2) Complete-RS(3,2) IS(7) MIS(3,2) RIS(3,2) Complete-RIS(3,2)",
    )?;
    for host in all_class_hosts_k5()?.iter().chain(&k7) {
        reports.push(NetworkReport::measure(host, CAP)?);
    }
    let mut t =
        table("network | k | N | degree | diameter | mean dist | DL(d,N) | links | transitive");
    for r in &reports {
        a.claim(format!("{}: vertex-transitive", r.name), r.transitive_check);
        a.claim_ge(&r.name, "diameter (DL(d,N))", r.diameter, r.moore_bound);
        t.row(&[
            r.name.clone(),
            r.k.to_string(),
            r.num_nodes.to_string(),
            r.degree.to_string(),
            r.diameter.to_string(),
            f3(r.mean_distance),
            r.moore_bound.to_string(),
            if r.inverse_closed {
                "undirected"
            } else {
                "directed"
            }
            .to_string(),
            if r.transitive_check { "yes" } else { "NO" }.to_string(),
        ]);
    }
    a.text.push_str("== Network properties (paper §2) ==\n\n");
    a.text.push_str(&t.render());
    a.text.push_str(
        "\nDL(d,N) is the directed Moore diameter lower bound; the paper's\n\
         'optimal diameter' claims mean diameter = Θ(DL) with small constants.\n",
    );

    // Single-source statistics (used above via transitivity) equal the full
    // all-pairs statistics, computed in parallel, on a 5040-node instance.
    let mat = materialize(&k7[0], CAP)?;
    let one = DistanceStats::single_source(mat.graph(), 0);
    let all = DistanceStats::all_pairs_parallel(mat.graph(), 8);
    a.claim_eq("MS(3,2)", "all-pairs diameter", all.diameter, one.diameter);
    let same_mean = (all.mean - one.mean).abs() < 1e-9;
    a.claim(
        format!("MS(3,2): all-pairs mean {} = {}", all.mean, one.mean),
        same_mean,
    );
    writeln!(
        a,
        "\nall-pairs cross-check on MS(3,2): diameter {} and mean {:.3} match the\nsingle-source figures (vertex transitivity confirmed exactly).",
        all.diameter, all.mean
    )?;
    Ok(a)
}

/// Distance distributions behind the §2 diameter claims, as CSV: the node
/// count at each distance from the identity. Each row's last non-zero
/// column is the network's diameter as [`NetworkReport`] measures it.
fn tab_dist() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    a.text.push_str("network,count_at_distance_0,1,2,...\n");
    let stars = nets("4-star 5-star 6-star 7-star")?;
    let k5 = all_class_hosts_k5()?
        .into_iter()
        .map(|h| Box::new(h) as Box<dyn CayleyNetwork>);
    let k7 = nets("MS(3,2) MS(2,3) Complete-RS(3,2) IS(7) MIS(3,2)")?;
    for net in stars.into_iter().chain(k5).chain(k7) {
        let mat = materialize(net.as_ref(), CAP)?;
        let hist = DistanceStats::single_source(mat.graph(), 0).histogram;
        write!(a, "{}", net.name())?;
        for c in &hist {
            write!(a, ",{c}")?;
        }
        writeln!(a)?;
        let last = hist.iter().rposition(|&c| c != 0).unwrap_or(0);
        let diameter = NetworkReport::measure(net.as_ref(), CAP)?.diameter as usize;
        a.claim_eq(&net.name(), "last non-zero column", last, diameter);
    }
    Ok(a)
}

/// Theorems 1–3's congestion read on the merged `I_2`/`I_2^{-1}` link (the
/// table's footnote): IS reads 2 for 1, MIS / Complete-RIS `2l` for
/// `max(2n, l)`.
const MERGED_I2_CONGESTION: &[(&str, usize)] =
    &[("IS(7)", 2), ("MIS(3,2)", 6), ("Complete-RIS(3,2)", 6)];

/// Theorems 1–3, SDC emulation of the 7-star: worst slowdown (= the
/// embedding's dilation) 3 on MS / Complete-RS, 2 on IS, 4 on MIS /
/// Complete-RIS, `2⌊l/2⌋+1` on RS, `2⌊l/2⌋+2` on RIS and `2·trip + n` on
/// the rotator extension rows; load and expansion 1; congestion
/// `max(2n, l)` (1 on IS) except [`MERGED_I2_CONGESTION`]; per-dimension
/// congestion ≤ 2, which is also each pipelined stream's bottleneck.
fn tab_thm1_3() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    let star = StarGraph::new(7)?;
    let mut t = table(
        "host | slowdown (worst) | claimed | slowdown (mean) | congestion | claimed max(2n,l) \
         | per-dim congestion | claimed",
    );
    a.text
        .push_str("== Theorems 1-3: star-graph emulation under the SDC model ==\n\n");
    let theorems = hosts(
        "MS(3,2) MS(2,3) RS(3,2) Complete-RS(3,2) Complete-RS(2,3) IS(7) MIS(3,2) RIS(3,2) \
         Complete-RIS(3,2)",
    )?;
    // The rotator-nucleus classes have no theorem in the paper: extension
    // rows routed via T_x = I_{x-1}^{x-2} o I_x.
    let extension = hosts("MR(3,2) RR(3,2) Complete-RR(3,2)")?;
    let mut dim_congestion = Vec::new();
    let rows = theorems.iter().map(|h| (h, false));
    for (host, ext) in rows.chain(extension.iter().map(|h| (h, true))) {
        let sdc = SdcReport::measure(host)?;
        let ce = CayleyEmbedding::build(&star, host, CAP)?;
        let e = ce.embedding();
        let (l, n, name) = (host.levels(), host.box_size(), host.name());
        let (slowdown, rule) = match host.class() {
            ScgClass::MacroStar | ScgClass::CompleteRotationStar => (3, ""),
            ScgClass::InsertionSelection => (2, ""),
            ScgClass::MacroIs | ScgClass::CompleteRotationIs => (4, ""),
            ScgClass::RotationStar => (2 * (l / 2) + 1, " (2⌊l/2⌋+1)"),
            ScgClass::RotationIs => (2 * (l / 2) + 2, " (2⌊l/2⌋+2)"),
            ScgClass::RotationRotator => (2 * (l / 2) + n, " (2 trip+n)"),
            _ => (2 + n, " (2 trip+n)"),
        };
        let congestion = match host.class() {
            ScgClass::InsertionSelection => Some(1),
            ScgClass::MacroStar
            | ScgClass::CompleteRotationStar
            | ScgClass::MacroIs
            | ScgClass::CompleteRotationIs => Some((2 * n).max(l)),
            _ => None,
        };
        let dim = ce.max_dimension_congestion();
        a.claim_eq(&name, "worst SDC slowdown", sdc.worst_slowdown, slowdown);
        a.claim_eq(&name, "star-embedding dilation", e.dilation(), slowdown);
        a.claim_eq(&name, "load", e.load(), 1);
        a.claim_eq(&name, "expansion", e.expansion(), 1.0);
        match (congestion, pinned(MERGED_I2_CONGESTION, &name)) {
            (Some(_), Some(merged)) => {
                a.claim_eq(&name, "congestion (merged I_2)", e.congestion(), merged);
            }
            (Some(c), None) => a.claim_eq(&name, "congestion", e.congestion(), c),
            (None, _) => {}
        }
        if !ext {
            a.claim_le(&name, "per-dimension congestion", dim, 2);
            dim_congestion.push(dim);
        }
        t.row(&[
            if ext { format!("{name} (ext)") } else { name },
            sdc.worst_slowdown.to_string(),
            format!("{slowdown}{rule}"),
            f3(sdc.mean_slowdown),
            e.congestion().to_string(),
            match congestion {
                Some(1) => "1*".to_string(),
                Some(c) => c.to_string(),
                None => "-".to_string(),
            },
            dim.to_string(),
            if ext { "-" } else { "<= 2" }.to_string(),
        ]);
    }
    a.text.push_str(&t.render());

    // §3's wormhole/pipelining remark: amortized slowdown for streaming
    // 1000 packets per node along the worst dimension.
    a.text.push_str(
        "\nPipelined (wormhole-style) amortized slowdown, 1000 packets/node\n\
         (paper §3: ~2 when the bring/return link repeats; measured: exactly the\n\
         per-dimension congestion — 2 for swaps and l=2 rotations, 1 for distinct\n\
         complete-rotation bring/return links and for IS):\n",
    );
    for (host, dim) in theorems.iter().zip(dim_congestion) {
        let (mut worst, mut bottleneck) = (0.0f64, 0);
        for j in 2..=host.degree_k() {
            let cost = pipelined_dimension_cost(host, j, 1000)?;
            worst = worst.max(cost.amortized_slowdown());
            bottleneck = bottleneck.max(cost.bottleneck);
        }
        a.claim_eq(&host.name(), "pipelined bottleneck", bottleneck, dim);
        writeln!(a, "  {:<18} {:.3}", host.name(), worst)?;
    }
    a.text.push_str(
        "\n(*) the paper counts I_2 and I_2^{-1} as parallel links of a directed\n\
         multigraph; our link-traffic accounting merges each pair, so IS reads 2\n\
         instead of 1 and MIS/Complete-RIS read 2l instead of max(2n,l) on the\n\
         merged I_2 link. Unmerged per-generator loads match the claims exactly.\n\
         All embeddings have load 1 and expansion 1 by construction (checked).\n",
    );
    Ok(a)
}

/// Theorem 5 shapes one step over the bound (the table's note): the single
/// box's 4-hop chain pins the swap link to times {1, 4}.
const THM5_LOOSE: &[(&str, usize)] = &[("MIS(2,2)", 5), ("Complete-RIS(2,2)", 5)];

/// Theorems 4–5, all-port emulation over a grid of `(l, n)` shapes,
/// including those that are not `rn + 1`: every schedule validates and its
/// makespan meets `max(2n, l+1)` (MS / Complete-RS), `max(2n, l+2)` (MIS /
/// Complete-RIS) or 2 (IS) exactly, except [`THM5_LOOSE`].
fn tab_thm4_5() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    let mut grid = Vec::new();
    for class in [
        ScgClass::MacroStar,
        ScgClass::CompleteRotationStar,
        ScgClass::MacroIs,
        ScgClass::CompleteRotationIs,
    ] {
        for (n, max_l) in [(2, 5), (3, 6), (4, 4)] {
            for l in 2..=max_l {
                grid.push(SuperCayleyGraph::new(class, l, n)?);
            }
        }
    }
    grid.extend(hosts("IS(4) IS(7) IS(10) IS(13)")?);
    let mut t = table("host | k | makespan | theorem bound | tight? | hops | utilization");
    a.text
        .push_str("== Theorems 4-5: all-port star emulation slowdown ==\n\n");
    for host in &grid {
        let s = AllPortSchedule::build(host)?;
        let name = s.host_name().to_string();
        let bound = s.theoretical_bound().ok_or("no closed-form bound")?;
        let want = pinned(THM5_LOOSE, &name).unwrap_or(bound);
        let valid = s.validate().is_ok();
        a.claim(format!("{name}: the schedule validates"), valid);
        a.claim_eq(&name, "makespan", s.makespan(), want);
        t.row(&[
            name,
            host.degree_k().to_string(),
            s.makespan().to_string(),
            bound.to_string(),
            if s.makespan() == bound {
                "yes".into()
            } else {
                format!("NO ({:+})", s.makespan() as i64 - bound as i64)
            },
            s.total_hops().to_string(),
            f3(s.utilization()),
        ]);
    }
    a.text.push_str(&t.render());
    a.text.push_str(
        "\nNote: MIS(2,2)/Complete-RIS(2,2) exceed the Theorem 5 constant by 1 —\n\
         the single box's 4-hop chain pins the swap link to times {1,4}, leaving\n\
         no interior pair for the second chain (the theorem's constant is loose\n\
         at this smallest shape; every other shape is tight).\n",
    );
    Ok(a)
}

/// Theorems 6–7, transposition-network (and bubble-sort) embeddings: TN
/// dilation 5 on MS / Complete-RS at `l = 2`, 7 at `l ≥ 3`, 6 on IS; the
/// O(1) on MIS / Complete-RIS is the composition through the star,
/// `(i j) = (1 i)(1 j)(1 i)`, at most 3 × the star dilation; the
/// bubble-sort graph, a TN subgraph, stays within the TN dilation. Then
/// the lengths of all `T_{i,j}` expansions on MS(3,2).
fn tab_thm6_7() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    let mut t =
        table("guest | host | dilation | claimed | mean path | congestion | load | expansion");
    a.text
        .push_str("== Theorems 6-7: transposition-network embeddings ==\n\n");
    let row = |t: &mut Table, guest: &str, host: &str, claim: &str, e: &Embedding| {
        t.row(&[
            guest.into(),
            host.into(),
            e.dilation().to_string(),
            claim.into(),
            f3(e.mean_path_length()),
            e.congestion().to_string(),
            e.load().to_string(),
            f3(e.expansion()),
        ]);
    };
    let mut tn_dil = BTreeMap::new();
    for host in
        hosts("MS(2,3) MS(3,2) Complete-RS(2,3) Complete-RS(3,2) IS(7) MIS(3,2) Complete-RIS(3,2)")?
    {
        let tn = TranspositionNetwork::new(host.degree_k())?;
        let ce = CayleyEmbedding::build(&tn, &host, CAP)?;
        let (e, name) = (ce.embedding(), host.name());
        let claim = match host.class() {
            ScgClass::InsertionSelection => Some((6, "6")),
            ScgClass::MacroStar | ScgClass::CompleteRotationStar if host.levels() == 2 => {
                Some((5, "5 (l=2)"))
            }
            ScgClass::MacroStar | ScgClass::CompleteRotationStar => Some((7, "7 (l>=3)")),
            _ => None,
        };
        match claim {
            Some((d, _)) => a.claim_eq(&name, "7-TN dilation", e.dilation(), d),
            None => {
                let bound = 3 * route_plan(&host)?.star_dilation();
                a.claim_le(&name, "7-TN dilation (O(1): 3 x star)", e.dilation(), bound);
            }
        }
        let label = claim.map_or("O(1)", |(_, label)| label);
        row(&mut t, "7-TN", &name, label, e);
        tn_dil.insert(name, e.dilation());
    }
    // Bubble-sort graphs are TN subgraphs, so the same constants apply.
    for host in hosts("MS(3,2) IS(7)")? {
        let bs = BubbleSortGraph::new(host.degree_k())?;
        let ce = CayleyEmbedding::build(&bs, &host, CAP)?;
        let (e, name) = (ce.embedding(), host.name());
        let tn = tn_dil.get(&name).copied().unwrap_or(0);
        a.claim_le(&name, "7-bubble-sort dilation (TN)", e.dilation(), tn);
        row(&mut t, "7-bubble-sort", &name, "<= TN claim", e);
    }
    a.text.push_str(&t.render());

    // Six-case expansion-length histogram for Theorem 6 on MS(3,2).
    let plan = route_plan(&host("MS(3,2)")?)?;
    let mut hist = BTreeMap::new();
    for i in 1..=7 {
        for j in i + 1..=7 {
            *hist.entry(plan.tn_link(i, j)?.len()).or_insert(0usize) += 1;
        }
    }
    a.text
        .push_str("\nExpansion-length histogram for all T_{i,j} on MS(3,2):\n");
    for (len, count) in hist {
        writeln!(a, "  length {len}: {count} link types")?;
    }
    Ok(a)
}

/// Corollary 4, complete binary trees: exact search certifies the premise
/// that a tree of height ≤ `2k − 5` embeds in the `k`-star with dilation 1;
/// composed, the dilation is 2 into IS, 3 into MS / Complete-RS and 4 into
/// MIS / Complete-RIS.
fn tab_cor4() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    a.text
        .push_str("== Corollary 4: complete binary trees ==\n\n");
    let mut t = table("tree height | nodes | host | dilation | status");
    for (height, k) in [(2, 4), (3, 5), (4, 5), (5, 5), (5, 6), (6, 6), (7, 6)] {
        let found = tree_into_star(height, k, &mut SearchBudget::new(2_000_000_000));
        let nodes = ((1u64 << (height + 1)) - 1).to_string();
        let (nodes, dilation, status) = match &found {
            Ok(e) => (nodes, e.dilation().to_string(), "found (certified)".into()),
            Err(EmbedError::Unsupported { .. }) => {
                (nodes, "-".into(), "none exists (exhausted)".into())
            }
            Err(EmbedError::SearchInconclusive) => {
                (nodes, "-".into(), "inconclusive (budget)".into())
            }
            Err(e) => (String::new(), "-".into(), format!("error: {e}")),
        };
        let tree = format!("height-{height} tree into the {k}-star ({status})");
        a.claim_eq(&tree, "dilation", dilation.as_str(), "1");
        t.row(&[
            height.to_string(),
            nodes,
            format!("{k}-star"),
            dilation,
            status,
        ]);
    }
    a.text.push_str(&t.render());
    a.text.push_str(
        "\npaper premise [5]: height 2k-5 embeds in the k-star with dilation 1 —\n\
         certified here for k = 5 (height 5) and k = 6 (height 7).\n\n",
    );

    // Composition into super Cayley hosts.
    let mut t2 = table("tree height | host | dilation | claimed");
    let claims = [2, 3, 3, 4, 4];
    for (host, claim) in hosts("IS(5) MS(2,2) Complete-RS(2,2) MIS(2,2) Complete-RIS(2,2)")?
        .iter()
        .zip(claims)
    {
        let e = tree_into_scg(4, host, &mut SearchBudget::new(2_000_000_000))?;
        a.claim_eq(&host.name(), "height-4 tree dilation", e.dilation(), claim);
        t2.row(&[
            "4".into(),
            host.name(),
            e.dilation().to_string(),
            claim.to_string(),
        ]);
    }
    a.text.push_str(&t2.render());
    Ok(a)
}

/// Corollary 5, hypercubes: the `⌊(k−1)/2⌋`-cube (disjoint transpositions)
/// embeds with dilation 1 into the TN and 3 into the star, and composed
/// through the Theorem 6–7 TN embedding, within the host's TN dilation.
fn tab_cor5() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    a.text
        .push_str("== Corollary 5: hypercube embeddings ==\n\n");
    let mut t = table("guest | host | dilation | load | expansion | congestion");
    let mut row = |cube: &str, host: String, e: &Embedding| {
        t.row(&[
            cube.into(),
            host,
            e.dilation().to_string(),
            e.load().to_string(),
            f3(e.expansion()),
            e.congestion().to_string(),
        ]);
    };
    for k in [5, 7] {
        let cube = format!("{}-cube", cube_dimension_for(k));
        let e = hypercube_into_tn(k, CAP)?;
        a.claim_eq(
            &format!("{cube} into the {k}-TN"),
            "dilation",
            e.dilation(),
            1,
        );
        row(&cube, format!("{k}-TN"), &e);
        let e = hypercube_into_star(k, CAP)?;
        a.claim_eq(
            &format!("{cube} into the {k}-star"),
            "dilation",
            e.dilation(),
            3,
        );
        row(&cube, format!("{k}-star"), &e);
    }
    for host in hosts("MS(2,2) MS(3,2) Complete-RS(3,2) IS(7) MIS(3,2)")? {
        let cube = format!("{}-cube", cube_dimension_for(host.degree_k()));
        let e = hypercube_into_scg(&host, CAP)?;
        let of = format!("{cube} into {}", host.name());
        a.claim_le(
            &of,
            "dilation (TN dilation)",
            e.dilation(),
            tn_dilation(&host)?,
        );
        row(&cube, host.name(), &e);
    }
    a.text.push_str(&t.render());
    a.text
        .push_str("\nAll dilations are O(1), per Corollary 5 (composition through Thm 6/7).\n");
    Ok(a)
}

/// Corollaries 6–7, meshes and linear arrays: the `k!`-node linear array on
/// a Hamiltonian path of the star (dilation 1); the `2×3×⋯×k` mesh and
/// `m1 × m2 = k!` splits into the `k`-TN with dilation ≤ 2 (the Gray-coded
/// map substituted for Latifi–Srimani's dilation 1), so composed into a
/// host within 2 × its TN dilation — on MS(2,2), twice the paper's 5.
fn tab_cor6_7() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    a.text
        .push_str("== Corollaries 6-7: mesh embeddings ==\n\n");
    let mut t = table("guest | host | dilation | claimed | load | expansion | congestion");
    let mut row = |guest: &str, host: String, claimed: &str, e: &Embedding| {
        t.row(&[
            guest.into(),
            host,
            e.dilation().to_string(),
            claimed.into(),
            e.load().to_string(),
            f3(e.expansion()),
            e.congestion().to_string(),
        ]);
    };
    // Linear arrays (Hamiltonian paths).
    for k in [4, 5] {
        let e = linear_array_into_star(k, CAP, &mut SearchBudget::new(500_000_000))?;
        let guest = format!("{}-node linear array", e.guest().num_nodes());
        a.claim_eq(
            &format!("{guest} into the {k}-star"),
            "dilation",
            e.dilation(),
            1,
        );
        row(&guest, format!("{k}-star"), "1", &e);
    }
    // Factorial meshes (Corollary 7 guest), then 2-D splits m1 × m2 = k!
    // (Corollary 6 guest), into TNs.
    for k in [5, 6] {
        let e = factorial_mesh_into_tn(k, CAP)?;
        let guest = format!("2x3x..x{k} mesh");
        a.claim_le(
            &format!("{guest} into the {k}-TN"),
            "dilation",
            e.dilation(),
            2,
        );
        row(&guest, format!("{k}-TN"), "<= 2 (paper: 1 via [12])", &e);
    }
    for (k, rows, label) in [
        (5, vec![5], "5 x 24"),
        (5, vec![2, 3], "6 x 20"),
        (6, vec![4, 5], "20 x 36"),
    ] {
        let e = mesh2d_into_tn(k, &rows, CAP)?;
        let guest = format!("{label} mesh");
        a.claim_le(
            &format!("{guest} into the {k}-TN"),
            "dilation",
            e.dilation(),
            2,
        );
        row(&guest, format!("{k}-TN"), "<= 2", &e);
    }
    // Composed into super Cayley hosts.
    for host in hosts("MS(2,2) Complete-RS(2,2) IS(5) MIS(2,2)")? {
        let (name, bound) = (host.name(), 2 * tn_dilation(&host)?);
        let e = factorial_mesh_into_scg(&host, CAP)?;
        let of = format!("2x3x4x5 mesh into {name}");
        a.claim_le(&of, "dilation (2 x TN dilation)", e.dilation(), bound);
        row("2x3x4x5 mesh", name.clone(), "O(1)", &e);
        let e = mesh2d_into_scg(&host, &[5], CAP)?;
        let of = format!("5 x 24 mesh into {name}");
        a.claim_le(&of, "dilation (2 x TN dilation)", e.dilation(), bound);
        if host.class() == ScgClass::MacroStar {
            a.claim_le(&of, "dilation (2 x the paper's 5)", e.dilation(), 10);
        }
        row("5 x 24 mesh", name, "O(1) (paper: 5 on MS(2,n))", &e);
    }
    a.text.push_str(&t.render());
    a.text.push_str(
        "\nSubstitution note: the paper reaches dilation 1 into the TN via the\n\
         Latifi-Srimani construction; our Gray-coded map gives dilation <= 2,\n\
         so composed constants are at most 2x the paper's (still O(1)).\n",
    );
    Ok(a)
}

/// All-port MNB runs that finish above `⌈(N−1)/d⌉`, at their exact steps.
const MNB_ABOVE_BOUND: &[(&str, u64)] = &[("Complete-RS(3,2)", 1261)];

/// SDC MNB cases whose Hamiltonian-word search exhausts its 500 M budget.
const MNB_SDC_UNSOLVED: &[&str] = &["Complete-RS(2,2)"];

/// Corollary 2, multinode broadcast: all-port MNB meets `⌈(N−1)/d⌉`
/// except [`MNB_ABOVE_BOUND`], and the strictly optimal SDC MNB via a
/// Hamiltonian generator word takes `N − 1` steps wherever a word is found
/// (all cases but [`MNB_SDC_UNSOLVED`]).
fn tab_mnb() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    a.text
        .push_str("== Corollary 2: multinode broadcast ==\n\n");
    let mut t = table("network | N | degree | model | steps | lower bound | ratio");
    let row = |a: &mut Artifact, t: &mut Table, r: &MnbReport, model: &str| {
        a.claim_ge(&r.network, "steps (lower bound)", r.steps, r.lower_bound);
        t.row(&[
            r.network.clone(),
            r.num_nodes.to_string(),
            r.degree.to_string(),
            model.into(),
            r.steps.to_string(),
            r.lower_bound.to_string(),
            f3(r.optimality_ratio()),
        ]);
    };
    for net in nets("5-star 6-star 7-star MS(2,2) MS(3,2) Complete-RS(3,2) IS(5) IS(7) MIS(3,2)")? {
        let r = mnb_all_port(net.as_ref(), CAP)?;
        let want = pinned(MNB_ABOVE_BOUND, &r.network).unwrap_or(r.lower_bound);
        a.claim_eq(&r.network, "all-port steps", r.steps, want);
        row(&mut a, &mut t, &r, "all-port");
    }
    // SDC (strictly optimal N-1 where the Hamiltonian word is found).
    for net in nets("4-star 5-star IS(5) Complete-RS(2,2)")? {
        let name = net.name();
        let unsolved = MNB_SDC_UNSOLVED.contains(&name.as_str());
        match mnb_sdc(net.as_ref(), CAP, &mut SearchBudget::new(500_000_000)) {
            Ok(r) => {
                a.claim_eq(&name, "SDC steps (N-1)", r.steps, r.num_nodes - 1);
                a.claim(format!("{name}: SDC word found"), !unsolved);
                row(&mut a, &mut t, &r, "SDC");
            }
            Err(e) => {
                let exhausted = matches!(e, CommError::SearchInconclusive);
                a.claim(
                    format!("{name}: SDC search ends in ({e})"),
                    unsolved && exhausted,
                );
                let (n, d) = (net.num_nodes(), net.node_degree());
                t.row(&[
                    name,
                    n.to_string(),
                    d.to_string(),
                    "SDC".into(),
                    format!("({e})"),
                ]);
            }
        }
    }
    a.text.push_str(&t.render());
    a.text.push_str(
        "\nSDC steps = N-1 reproduces the strictly optimal k!-1 of Mišić-Jovanović;\n\
         all-port ratios near 1 reproduce the Θ(N/d) optimality of Corollary 2.\n",
    );
    Ok(a)
}

/// Corollary 3, total exchange: SDC runs meet the distance-sum optimum
/// `Σ_w dist(w)`, on the star within Mišić–Jovanović's `(k+1)!`; all-port
/// runs on the store-and-forward simulator are no faster than
/// `⌈Σ_w dist(w)/d⌉`; at equal `N` and model every star and IS row
/// finishes before every MS-family row; and direct TE on MS(2,2) is within
/// the emulation bound (star TE steps × all-port slowdown).
fn tab_te() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    a.text.push_str("== Corollary 3: total exchange ==\n\n");
    let mut t = table("network | N | degree | model | steps | lower bound | ratio | reference");
    let mut rows: Vec<(TeReport, &str)> = Vec::new();
    let mut row = |t: &mut Table, r: TeReport, model: &'static str, reference: String| {
        t.row(&[
            r.network.clone(),
            r.num_nodes.to_string(),
            r.degree.to_string(),
            model.into(),
            r.steps.to_string(),
            r.lower_bound.to_string(),
            f3(r.optimality_ratio()),
            reference,
        ]);
        rows.push((r, model));
    };
    // SDC optima, with the (k+1)! reference constant on the stars.
    for net in nets("4-star 5-star 6-star MS(2,2) MS(3,2) IS(6)")? {
        let r = te_sdc(net.as_ref(), CAP)?;
        a.claim_eq(
            &r.network,
            "SDC steps (distance sum)",
            r.steps,
            r.lower_bound,
        );
        let mut reference = String::new();
        if r.network.ends_with("-star") {
            let f = factorial(net.degree_k() + 1);
            a.claim_le(&r.network, "SDC steps ((k+1)!)", r.steps, f);
            reference = format!("(k+1)! = {f}");
        }
        row(&mut t, r, "SDC", reference);
    }
    // All-port, simulated (N <= 720 keeps the packet count tractable).
    for net in nets("5-star 6-star MS(2,2) Complete-RS(2,2) IS(5) IS(6) MIS(2,2)")? {
        let r = te_all_port(net.as_ref(), 1_000, 10_000_000)?;
        a.claim_ge(
            &r.network,
            "all-port steps (volume)",
            r.steps,
            r.lower_bound,
        );
        let hops = format!("{} hops", r.transmissions);
        row(&mut t, r, "all-port", hops);
    }
    a.text.push_str(&t.render());
    a.text.push_str(
        "\nShape check (Corollary 3): at equal N, higher-degree hosts (star, IS)\n\
         finish faster; the low-degree MS pays the Θ(√(log N/log log N)) factor.\n",
    );
    let fast = |n: &str| n.ends_with("-star") || n.starts_with("IS(");
    let slow = |n: &str| n.starts_with("MS(") || n.starts_with("Complete-RS(");
    for (f, model) in rows.iter().filter(|(r, _)| fast(&r.network)) {
        let peers = rows
            .iter()
            .filter(|(r, m)| m == model && r.num_nodes == f.num_nodes);
        for (s, _) in peers.filter(|(r, _)| slow(&r.network)) {
            let (n, fs, ss) = (f.num_nodes, f.steps, s.steps);
            let (fast, slow) = (&f.network, &s.network);
            a.claim(
                format!("{model} TE at N = {n}: {fast} ({fs}) beats {slow} ({ss})"),
                fs < ss,
            );
        }
    }

    // Emulation prediction (Theorem 4 → Corollary 3): the star's all-port
    // TE run through the MS(2,2) schedule costs star-steps × makespan;
    // direct shortest-path routing on the host beats that upper bound.
    let ms22 = host("MS(2,2)")?;
    let star_te = te_all_port(&StarGraph::new(5)?, 1_000, 1_000_000)?;
    let ms_te = te_all_port(&ms22, 1_000, 1_000_000)?;
    let makespan = AllPortSchedule::build(&ms22)?.makespan() as u64;
    let bound = star_te.steps * makespan;
    a.claim_le(
        "MS(2,2)",
        "direct TE steps (emulation bound)",
        ms_te.steps,
        bound,
    );
    writeln!(
        a,
        "\nemulation upper bound on MS(2,2): star TE {} steps × slowdown {} = {};",
        star_te.steps, makespan, bound
    )?;
    writeln!(
        a,
        "direct host TE measures {} steps — within the emulation bound, {:.1}x better.",
        ms_te.steps,
        bound as f64 / ms_te.steps as f64
    )?;
    Ok(a)
}

/// The single-source prototype tasks (single-node broadcast, scatter,
/// gather): SNB time is the source eccentricity — the diameter, by vertex
/// transitivity — and no less than `DL(d, N)`; scatter and gather are no
/// faster than the source-link volume bound `⌈(N−1)/d⌉`.
fn tab_snb() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    let mut t = table("network | N | degree | SNB steps | DL(d,N) | scatter | ⌈(N-1)/d⌉ | gather");
    a.text
        .push_str("== Single-source prototype tasks (SNB / scatter / gather) ==\n\n");
    for net in nets("5-star 6-star MS(2,2) MS(3,2) Complete-RS(3,2) IS(6) MIS(2,2) MR(2,2)")? {
        let snb = snb_all_port(net.as_ref(), CAP)?;
        let report = NetworkReport::measure(net.as_ref(), CAP)?;
        let name = snb.network.as_str();
        a.claim(
            format!("{name}: vertex-transitive"),
            report.transitive_check,
        );
        let diameter = u64::from(report.diameter);
        a.claim_eq(name, "SNB steps (diameter)", snb.steps, diameter);
        a.claim_ge(name, "SNB steps (DL(d,N))", snb.steps, snb.lower_bound);
        let volume = (snb.num_nodes - 1).div_ceil(snb.degree as u64);
        let (scatter, gather) = if net.num_nodes() <= 1_000 {
            let s = scatter_all_port(net.as_ref(), CAP, 1_000_000)?.steps;
            let g = gather_all_port(net.as_ref(), CAP, 1_000_000)?.steps;
            a.claim_ge(name, "scatter steps (⌈(N-1)/d⌉)", s, volume);
            a.claim_ge(name, "gather steps (⌈(N-1)/d⌉)", g, volume);
            (s.to_string(), g.to_string())
        } else {
            ("-".into(), "-".into())
        };
        t.row(&[
            snb.network.clone(),
            snb.num_nodes.to_string(),
            snb.degree.to_string(),
            snb.steps.to_string(),
            snb.lower_bound.to_string(),
            scatter,
            volume.to_string(),
            gather,
        ]);
    }
    a.text.push_str(&t.render());
    a.text.push_str(
        "\nSNB time equals the source eccentricity (= diameter, by transitivity);\n\
         scatter/gather track the source-link volume bound ⌈(N-1)/d⌉.\n",
    );
    Ok(a)
}

/// Balance ratios above 2, at their exact rendered value. All are on
/// IS-family hosts, whose `I_2`/`I_2^{-1}` pair is one merged link
/// (EXPERIMENTS.md, F3).
const BALANCE_ABOVE_2: &[(&str, &str)] = &[
    ("star embedding IS(7)", "2.182"),
    ("star embedding MIS(3,2)", "2.118"),
    ("total exchange (sim) IS(5)", "2.018"),
];

/// The paper's closing claim: *"the traffic on all the links of suitably
/// constructed super Cayley graphs is uniform within a constant factor for
/// all algorithms considered in this paper"*. The max/mean link-traffic
/// ratio of the star embeddings, the all-port schedules, simulated total
/// exchange and the greedy multinode broadcast is at most 2, except
/// [`BALANCE_ABOVE_2`].
fn tab_traffic() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    let mut t = table("algorithm | host | links | max | mean | balance max/mean");
    let mut row =
        |a: &mut Artifact, algorithm: &str, host: &SuperCayleyGraph, s: TrafficSummary| {
            let (of, ratio) = (
                format!("{algorithm} {}", host.name()),
                f3(s.balance_ratio()),
            );
            match pinned(BALANCE_ABOVE_2, &of) {
                Some(p) => a.claim_eq(&of, "balance (pinned)", ratio.as_str(), p),
                None => a.claim(
                    format!("{of}: balance {ratio} <= 2"),
                    s.balance_ratio() <= 2.0,
                ),
            }
            t.row(&[
                algorithm.into(),
                host.name(),
                s.links.to_string(),
                s.max.to_string(),
                f3(s.mean),
                ratio,
            ]);
        };
    a.text
        .push_str("== Link-traffic uniformity (the paper's balance claim) ==\n\n");
    // (a) Star embedding traffic (all k-1 dimensions used equally often).
    for host in hosts("MS(3,2) Complete-RS(3,2) IS(7) MIS(3,2)")? {
        let star = StarGraph::new(host.degree_k())?;
        let ce = CayleyEmbedding::build(&star, &host, CAP)?;
        let counts = ce.embedding().link_traffic().into_iter().map(|c| c as u64);
        row(
            &mut a,
            "star embedding",
            &host,
            TrafficSummary::from_counts(counts),
        );
    }
    // (b) All-port emulation schedule link loads.
    for host in hosts("MS(5,3) Complete-RS(5,3) MIS(4,3)")? {
        let loads = AllPortSchedule::build(&host)?.link_loads();
        row(
            &mut a,
            "all-port schedule",
            &host,
            TrafficSummary::from_counts(loads),
        );
    }
    // (c) Simulated total exchange.
    for host in hosts("MS(2,2) IS(5)")? {
        let r = te_all_port(&host, 1_000, 1_000_000)?;
        let s = r.traffic.ok_or("all-port TE records traffic")?;
        row(&mut a, "total exchange (sim)", &host, s);
    }
    // (d) Greedy MNB generator usage (per-link by vertex symmetry).
    for host in hosts("MS(3,2) IS(7)")? {
        let uses = mnb_all_port(&host, CAP)?.generator_uses;
        row(
            &mut a,
            "multinode broadcast",
            &host,
            TrafficSummary::from_counts(uses),
        );
    }
    a.text.push_str(&t.render());
    a.text.push_str(
        "\nBalance ratios stay below ~2 across algorithms and hosts, matching\n\
         the paper's 'uniform within a constant factor' claim.\n",
    );
    Ok(a)
}

/// Connectivity certified beyond materialization: the Schreier–Sims chain
/// of each class's largest shape with `k ≤ 20` has order `k!`, and every
/// class/shape combination with `k ≤ 13` generates `S_k` (BFS could check
/// this only to `k! ≈ 10^7`).
fn tab_group() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    let mut t = table("network | k | N = k! | degree | DL(d,N) | generates S_k");
    a.text
        .push_str("== Group-theoretic connectivity certification (Schreier-Sims) ==\n\n");
    // The largest shape of each class that fits k <= 20.
    for net in hosts(
        "MS(6,3) MS(9,2) RS(9,2) Complete-RS(6,3) MR(6,3) RR(9,2) Complete-RR(6,3) IS(20) \
         MIS(6,3) RIS(9,2) Complete-RIS(6,3)",
    )? {
        let (k, d) = (net.degree_k(), net.node_degree() as u64);
        let gens: Result<Vec<_>, _> = net.generators().iter().map(|g| g.as_perm(k)).collect();
        let order = group_order(&gens?);
        a.claim_eq(&net.name(), "group order (k!)", order, factorial(k));
        t.row(&[
            net.name(),
            k.to_string(),
            factorial(k).to_string(),
            d.to_string(),
            moore_diameter_lower_bound(d, factorial(k)).to_string(),
            if order == factorial(k) {
                "yes (certified)"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    // Every class × every shape with k <= 13: exhaustive certification.
    let (mut count, mut failing) = (0usize, Vec::new());
    for class in ScgClass::ALL {
        for l in 1..=12usize {
            for n in 1..=12usize {
                let Ok(net) = SuperCayleyGraph::new(class, l, n) else {
                    continue;
                };
                if net.degree_k() > 13 {
                    continue;
                }
                count += 1;
                if !net.generates_symmetric_group() {
                    failing.push(net.name());
                }
            }
        }
    }
    let of = format!("{count} class/shape combinations with k <= 13");
    a.claim(
        format!("all {of} generate S_k (failing: {failing:?})"),
        failing.is_empty(),
    );
    a.text.push_str(&t.render());
    let verdict = if failing.is_empty() {
        "all generate S_k (all networks connected)"
    } else {
        "FAILURES found"
    };
    writeln!(a, "\nExhaustive sweep: {of} — {verdict}")?;
    Ok(a)
}

/// §2's ball-arrangement game made executable: for each class at `k = 5`,
/// random scrambles solved by the network router and by exact BFS. Every
/// solution replays to the sorted configuration, no router solution beats
/// the optimum, every optimal move count is the network distance to the
/// identity, and the game's God's number ([`BagGame::gods_number`]) is the
/// network diameter.
fn tab_bag() -> Result<Artifact, Box<dyn Error>> {
    const TRIALS: usize = 30;
    let mut a = Artifact::default();
    let mut rng = XorShift64::new(1999);
    let mut t = table(
        "game rules | balls | boxes | scrambles | router moves (mean) | optimal moves (mean) \
         | God's number | = diameter?",
    );
    a.text
        .push_str("== §2: ball-arrangement game ↔ routing correspondence ==\n\n");
    for host in all_class_hosts_k5()? {
        let name = host.name();
        let diameter = NetworkReport::measure(&host, CAP)?.diameter;
        let mat = materialize(&host, CAP)?;
        // Configuration → solved distances: BFS on the reverse graph from
        // the identity, node 0.
        let to_solved = mat.graph().reversed().bfs_distances(0);
        let game = BagGame::new(host.clone());
        let gods = game.gods_number(CAP)?;
        let (mut router_total, mut optimal_total) = (0usize, 0usize);
        let (mut replayed, mut no_shorter, mut exact) = (true, true, true);
        for _ in 0..TRIALS {
            let c = game.scramble(25, &mut rng);
            let sol = game.solve(&c)?;
            let opt = game.solve_optimal(&c, 1_000_000)?;
            replayed &= game.replay(&c, &sol)?.is_solved() && game.replay(&c, &opt)?.is_solved();
            no_shorter &= opt.len() <= sol.len();
            exact &= opt.len() as u32 == to_solved[mat.node_id(c.as_perm())? as usize];
            router_total += sol.len();
            optimal_total += opt.len();
        }
        a.claim(format!("{name}: every solution sorts the balls"), replayed);
        a.claim(
            format!("{name}: no router solution beats the optimum"),
            no_shorter,
        );
        a.claim(
            format!("{name}: optimal move counts are network distances"),
            exact,
        );
        a.claim_eq(&name, "God's number (diameter)", gods, diameter);
        t.row(&[
            name,
            host.degree_k().to_string(),
            host.levels().to_string(),
            TRIALS.to_string(),
            f3(router_total as f64 / TRIALS as f64),
            f3(optimal_total as f64 / TRIALS as f64),
            gods.to_string(),
            if gods == diameter { "yes" } else { "NO" }.to_string(),
        ]);
    }
    a.text.push_str(&t.render());
    a.text.push_str(
        "\nEvery solver output was replayed and verified to sort the balls;\n\
         optimal move counts are exact BFS distances in the network.\n",
    );
    Ok(a)
}

/// The graph-theoretic degree: node 0's distinct out-neighbours (the
/// IS family duplicates `I_2`), uniform by vertex transitivity.
fn distinct_degree(graph: &DenseGraph) -> usize {
    let mut v = graph.out_neighbors(0).to_vec();
    v.sort_unstable();
    v.dedup();
    v.len()
}

/// Sampled live pairs per fault count in [`tab_faults`].
const FAULT_PAIRS: usize = 40;

/// Graceful degradation under fail-stop node faults, for every class at
/// `k = 5` and every fault count `0 .. degree`: survivor connectivity, the
/// simulator's delivered ratio with stale routing tables (built fault-free,
/// deflection retries only) and with refreshed survivor tables, and
/// `route_faulty`'s stretch over the survivor-graph shortest path.
/// Connectivity equals the degree, so every row stays connected; refreshed
/// tables deliver 100%; stale tables drop but never hang.
fn tab_faults() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    a.text
        .push_str("== Fault sweep: delivered ratio and stretch, 0..degree node faults ==\n\n");
    let mut t = table(
        "network | deg | faults | connected | stale dlvr | stale retry | fresh dlvr | stretch \
         | detours | fallbacks",
    );
    for net in all_class_hosts_k5()? {
        let mat = materialize(&net, SMALL_NET_CAP)?;
        let graph = mat.graph();
        let degree = distinct_degree(graph);
        let stale = TableRouter::new(graph)?;
        let plan = route_plan(&net)?;
        for f in 0..degree {
            let of = format!("{} with {f} faults", net.name());
            let mut rng = XorShift64::new(0xFA57 + f as u64);
            let faults = FaultSet::random_nodes(mat.num_nodes(), f, &[], &mut rng);
            let view = SurvivorView::new(graph, &faults);
            let connected = view.is_strongly_connected();
            a.claim(format!("{of}: survivors stay connected"), connected);

            // Sampled live pairs, shared by all three measurements.
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(FAULT_PAIRS);
            while pairs.len() < FAULT_PAIRS {
                let s = rng.gen_range(mat.num_nodes()) as NodeId;
                let d = rng.gen_range(mat.num_nodes()) as NodeId;
                if s != d && view.is_alive(s) && view.is_alive(d) {
                    pairs.push((s, d));
                }
            }

            let run = |router: &TableRouter| -> Result<_, Box<dyn Error>> {
                let mut sim = SyncSim::new(graph, PortModel::AllPort);
                for &node in &faults.failed_nodes() {
                    sim.fail_node(node)?;
                }
                for &(s, d) in &pairs {
                    let pkt = Packet {
                        src: s,
                        dst: d,
                        payload: 0,
                    };
                    if sim.inject(s, pkt, router).is_err() {
                        // Unreachable under this router: an undeliverable
                        // sample counts against the ratio as a drop.
                    }
                }
                let injected = sim.in_flight();
                let stats = sim.run(router, 1_000_000)?;
                let lost_at_inject = FAULT_PAIRS as u64 - injected.min(FAULT_PAIRS as u64);
                let total = stats.delivered + stats.dropped + stats.undelivered + lost_at_inject;
                let ratio = if total == 0 {
                    1.0
                } else {
                    stats.delivered as f64 / total as f64
                };
                Ok((ratio, stats))
            };
            let (stale_ratio, stale_stats) = run(&stale)?;
            let hung = stale_stats.undelivered > 0 || stale_stats.livelocked;
            a.claim(format!("{of}: stale tables drop, never hang"), !hung);
            let fresh = TableRouter::new_with_faults(graph, &faults)?;
            let (fresh_ratio, _) = run(&fresh)?;
            a.claim_eq(&of, "refreshed delivered ratio", fresh_ratio, 1.0);

            // route_faulty curves over the same pairs.
            let mut scratch = FaultScratch::new();
            let (mut stretch_sum, mut stretch_n) = (0.0f64, 0u32);
            let (mut detours, mut fallbacks) = (0u32, 0u32);
            for &(s, d) in &pairs {
                let from = mat.node_label(s)?;
                let to = mat.node_label(d)?;
                let Ok(routed) = route_faulty(&plan, &faults, &from, &to, &mut scratch) else {
                    continue; // disconnected pair (only possible if !connected)
                };
                let dist = view.bfs_distances(s)[d as usize];
                if dist > 0 && dist != scg_graph::UNREACHABLE {
                    stretch_sum += routed.len() as f64 / f64::from(dist);
                    stretch_n += 1;
                }
                detours += routed.detours as u32;
                fallbacks += u32::from(routed.fallback_used);
            }
            t.row(&[
                net.name(),
                degree.to_string(),
                f.to_string(),
                if connected { "yes".into() } else { "NO".into() },
                f3(stale_ratio),
                stale_stats.retried.to_string(),
                f3(fresh_ratio),
                f3(stretch_sum / f64::from(stretch_n.max(1))),
                detours.to_string(),
                fallbacks.to_string(),
            ]);
        }
    }
    a.text.push_str(&t.render());
    a.text.push_str(
        "\nConnectivity = degree: every sweep stays connected below degree faults,\n\
         refreshed tables deliver 100%, and stale-table deflection degrades gracefully\n\
         (drops, never hangs). Stretch is vs the survivor-graph shortest path.\n",
    );
    Ok(a)
}

/// Corollary 5's hypercube embeddings under single node faults: for every
/// class at `k = 5`, the cube → 5-TN → host composition's audit, then every
/// single-node fault over the host. A fault on a mapped host is refused
/// with `MappedNodeFailed` naming it; every other fault re-embeds with the
/// node map and load unchanged.
fn tab_embed() -> Result<Artifact, Box<dyn Error>> {
    let mut a = Artifact::default();
    a.text.push_str(
        "== Embedding engine: IR builds, audits, and single-fault re-embedding ==\n\n\
         Corollary 5 hypercube guest (cube -> 5-TN -> host), every\n\
         single-node FaultSet. Faults on a mapped host node are\n\
         refused structurally (MappedNodeFailed); all others must re-embed to a\n\
         validated IR with the node map and load unchanged.\n\n",
    );
    let mut t = table(
        "network | nodes | load | dilation | congestion | expansion | mean len | faults | mapped \
         | reembed ok | max dil after",
    );
    let hosts = all_class_hosts_k5()?;
    a.claim_eq("tab_embed", "classes swept", hosts.len(), 10);
    let (mut worst_before, mut worst_after) = (0, 0);
    for net in &hosts {
        let name = net.name();
        let ir = hypercube_into_scg(net, SMALL_NET_CAP)?.into_ir();
        let audit = ir.audit();
        let mat = materialize(net, SMALL_NET_CAP)?;
        let mapped: HashSet<NodeId> = ir.node_map().iter().copied().collect();
        let (mut reembedded, mut refused, mut max_after) = (0, 0, 0);
        let (mut changed, mut misnamed) = (0, 0);
        let mut other = None;
        let tried = mat.num_nodes();
        for victim in 0..tried as NodeId {
            let mut faults = FaultSet::new();
            faults.fail_node(victim);
            match reembed_scg(&ir, net, &mat, &faults) {
                Ok(r) => {
                    reembedded += 1;
                    changed += usize::from(r.load() != ir.load() || r.node_map() != ir.node_map());
                    max_after = max_after.max(r.dilation());
                }
                Err(EmbedError::MappedNodeFailed { host_node, .. }) => {
                    refused += 1;
                    misnamed += usize::from(host_node != victim || !mapped.contains(&victim));
                }
                Err(e) => {
                    other.get_or_insert(format!("fault {victim}: {e}"));
                }
            }
        }
        a.claim_eq(&name, "single-node faults tried", tried, 120);
        a.claim_eq(&name, "re-embedded + refused", reembedded + refused, tried);
        a.claim_eq(
            &name,
            "re-embeddings changing the load or node map",
            changed,
            0,
        );
        a.claim_eq(&name, "refusals not naming a mapped victim", misnamed, 0);
        let no_other = other
            .as_deref()
            .map_or(String::new(), |e| format!(" ({e})"));
        a.claim(
            format!("{name}: no fault yields another error{no_other}"),
            other.is_none(),
        );
        worst_before = worst_before.max(audit.dilation);
        worst_after = worst_after.max(max_after);
        t.row(&[
            name,
            tried.to_string(),
            audit.load.to_string(),
            audit.dilation.to_string(),
            audit.congestion.to_string(),
            f3(audit.expansion),
            f3(audit.mean_path_length),
            tried.to_string(),
            refused.to_string(),
            reembedded.to_string(),
            max_after.to_string(),
        ]);
    }
    a.text.push_str(&t.render());
    writeln!(
        a,
        "\nAcceptance: every fault handled on all {} classes; worst dilation\n\
         after a single fault: {worst_after} (vs fault-free worst {worst_before}).",
        hosts.len(),
    )?;
    Ok(a)
}

/// The §2 fault-tolerance presumption under a dynamic fault lifecycle: for
/// every class at `k = 5`, four canned [`FaultSchedule`]s (one permanent
/// node fault, a burst of `degree − 1` node faults, a flapping link, a
/// fault-then-repair transient) through the self-healing loop of
/// [`run_chaos`]. Every schedule drains with each packet delivered or
/// dropped; the transient delivers ≥ 99% and recovers in finite cycles.
/// Then two-fault re-embedding of Corollary 5's hypercube: two unmapped
/// faults re-embed with zero remaps, and a dead mapped host is refused by
/// `reembed_scg` and healed by `reembed_scg_rebalanced`.
fn tab_chaos() -> Result<Artifact, Box<dyn Error>> {
    const INJECT_UNTIL: u64 = 400;
    let mut a = Artifact::default();
    writeln!(
        a,
        "== Chaos sweep: canned fault schedules through the self-healing loop ==\n\n\
         4 packets/cycle until cycle {INJECT_UNTIL}, then drain. Schedules: one\n\
         permanent node fault, a burst of degree-1 simultaneous node faults, a\n\
         flapping link (2 flaps), and a fault-then-repair transient, all fired at\n\
         cycle 16. The loop refreshes the table router in place on every fault\n\
         epoch change; stuck packets use exponential backoff (base 1, cap 32,\n\
         8 retries). MTTR = cycles from the event to a current router with no\n\
         packet stranded on a dead link. dip x1000 = lowest windowed delivered\n\
         ratio (window 16).\n"
    )?;
    let mut t = table(
        "network | schedule | events | injected | delivered | dropped | recovered | refreshes \
         | dlvr x1000 | dip x1000 | mttr",
    );
    let hosts = all_class_hosts_k5()?;
    a.claim_eq("tab_chaos", "classes swept", hosts.len(), 10);
    let (mut worst_repair_x1000, mut worst_repair_mttr) = (1000, 0);
    for net in &hosts {
        let name = net.name();
        let mat = materialize(net, SMALL_NET_CAP)?;
        let graph = mat.graph();
        let nodes = mat.num_nodes();
        let degree = distinct_degree(graph);
        let mut rng = XorShift64::new(0xC4_05 ^ nodes as u64 ^ degree as u64);
        let mut distinct = |n: usize| {
            let mut picked: Vec<NodeId> = Vec::with_capacity(n);
            while picked.len() < n {
                let u = rng.gen_range(nodes) as NodeId;
                if !picked.contains(&u) {
                    picked.push(u);
                }
            }
            picked
        };
        let single = distinct(1);
        let burst = distinct(degree - 1);
        let (flap_u, flap_v) = graph.edge_endpoints(rng.gen_range(graph.num_edges()));
        let repair = rng.gen_range(nodes) as NodeId;
        let schedules = [
            ("single", FaultSchedule::single_fault(16, single[0])),
            ("burst", FaultSchedule::burst(16, &burst)),
            (
                "flap",
                FaultSchedule::flapping_link(flap_u, flap_v, 16, 8, 2),
            ),
            ("repair", FaultSchedule::fault_then_repair(repair, 16, 48)),
        ];
        a.claim_eq(&name, "schedules", schedules.len(), 4);
        for (idx, (sched, mut schedule)) in schedules.into_iter().enumerate() {
            let of = format!("{name}/{sched}");
            let config = ChaosConfig {
                model: PortModel::AllPort,
                inject_per_cycle: 4,
                inject_until: INJECT_UNTIL,
                max_cycles: INJECT_UNTIL + 600,
                backoff: (1, 32),
                retry_limit: 8,
                window: 16,
                seed: 0x5C9_CA05 + idx as u64,
            };
            let events = schedule.len();
            let r = run_chaos(graph, &mut schedule, &config)?;
            let s = &r.stats;
            a.claim(format!("{of}: traffic drains"), r.drained);
            a.claim_eq(
                &of,
                "delivered + dropped",
                s.delivered + s.dropped,
                r.injected,
            );
            let x1000 = (s.delivered * 1000)
                .checked_div(s.delivered + s.dropped + s.undelivered)
                .unwrap_or(1000);
            let mttr = r.mttr_max();
            if sched == "repair" {
                a.claim_ge(&of, "delivered x1000", x1000, 990);
                a.claim(format!("{of}: MTTR is finite"), mttr.is_some());
                worst_repair_x1000 = worst_repair_x1000.min(x1000);
                worst_repair_mttr = worst_repair_mttr.max(mttr.unwrap_or(0));
            }
            t.row(&[
                name.clone(),
                sched.into(),
                events.to_string(),
                r.injected.to_string(),
                s.delivered.to_string(),
                s.dropped.to_string(),
                s.recovered.to_string(),
                r.refreshes.to_string(),
                x1000.to_string(),
                r.curve_min_x1000().to_string(),
                mttr.map_or("-".into(), |m| m.to_string()),
            ]);
        }

        // Two-fault re-embedding of the Corollary 5 hypercube.
        let ir = hypercube_into_scg(net, SMALL_NET_CAP)?.into_ir();
        let mapped: HashSet<NodeId> = ir.node_map().iter().copied().collect();
        let mut unmapped = (0..nodes as NodeId).filter(|u| !mapped.contains(u));
        let (Some(u1), Some(u2)) = (unmapped.next(), unmapped.next()) else {
            return Err(format!("{name}: fewer than two unmapped hosts").into());
        };
        let mut faults = FaultSet::new();
        faults.fail_node(u1);
        faults.fail_node(u2);
        let two = reembed_scg_rebalanced(&ir, net, &mat, &faults)
            .map_err(|e| format!("{name}: two unmapped faults: {e}"))?;
        let view = SurvivorView::new(graph, &faults);
        let live =
            (0..two.ir.num_program_edges()).all(|e| view.path_is_live(two.ir.hyperpath_at(e)));
        a.claim_eq(&name, "remaps after two unmapped faults", two.remapped, 0);
        a.claim(
            format!("{name}: every hyperpath live after two unmapped faults"),
            live,
        );

        let victim = *ir.node_map().first().ok_or("empty node map")?;
        let mut faults = FaultSet::new();
        faults.fail_node(victim);
        faults.fail_node(u1);
        let refused = matches!(
            reembed_scg(&ir, net, &mat, &faults),
            Err(EmbedError::MappedNodeFailed { .. })
        );
        a.claim(
            format!("{name}: reembed_scg refuses a dead mapped host"),
            refused,
        );
        let healed = reembed_scg_rebalanced(&ir, net, &mat, &faults)
            .map_err(|e| format!("{name}: mapped-host fault not healed: {e}"))?;
        let view = SurvivorView::new(graph, &faults);
        let alive = healed.ir.node_map().iter().all(|&h| view.is_alive(h));
        let live = (0..healed.ir.num_program_edges())
            .all(|e| view.path_is_live(healed.ir.hyperpath_at(e)));
        a.claim_ge(
            &name,
            "hosts remapped after a mapped-host fault",
            healed.remapped,
            1,
        );
        a.claim(
            format!("{name}: every mapped host alive after rebalancing"),
            alive,
        );
        a.claim(
            format!("{name}: every hyperpath live after rebalancing"),
            live,
        );
    }
    a.text.push_str(&t.render());
    writeln!(
        a,
        "\nAcceptance: fault-then-repair recovers on all {} classes (worst overall\n\
         delivered ratio {}/1000, worst MTTR {} cycles), and 2-fault re-embedding\n\
         holds everywhere: two unmapped faults re-embed with zero remaps; a dead\n\
         mapped host is refused by the fixed-map reembed and healed by remapping.",
        hosts.len(),
        worst_repair_x1000,
        worst_repair_mttr,
    )?;
    Ok(a)
}
