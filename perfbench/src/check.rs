//! Output checks: the program's results must be right, not only fast.
//!
//! Each checked output is one attempted operation; a wrong one is a
//! failed operation and fails the run.

use crate::workload::Spec;
use mc_mem::{Memory, Nanos};
use mc_sim::{RunOutcome, Simulation};
use mc_workloads::graph::{rmat_edges, MemVec};
use mc_workloads::ycsb::YcsbClient;
use std::collections::VecDeque;

/// Bytes of the store's item header in front of each value (key + length).
const ITEM_HEADER: usize = 12;

/// Checked outputs and the failures among them.
#[derive(Debug, Default)]
pub struct Tally {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs found wrong.
    pub failed: u64,
    /// One line per failure kind, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one checked output; `ok == false` records `note`.
    pub fn record(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(note());
            }
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// Reads every loaded key back through the engine's byte store and
/// compares header and value with `YcsbClient::fill_value`.
pub fn ycsb_values(sim: &mut Simulation, client: &YcsbClient, spec: &Spec) -> Tally {
    let mut tally = Tally::default();
    let value_size = spec.scale.value_size;
    let mut expected = vec![0u8; value_size];
    let mut buf = vec![0u8; ITEM_HEADER + value_size];
    for key in 0..spec.scale.records as u64 {
        let Some(addr) = client.store().item_addr(key) else {
            tally.record(false, || format!("ycsb key {key} missing from the store"));
            continue;
        };
        sim.read_bytes(addr, &mut buf);
        YcsbClient::fill_value(key, &mut expected);
        let ok = buf[0..8] == key.to_le_bytes()
            && buf[8..12] == (value_size as u32).to_le_bytes()
            && buf[ITEM_HEADER..] == expected[..];
        tally.record(ok, || format!("ycsb key {key} reads back a wrong item"));
    }
    tally
}

/// Checks each BFS parent array against a host BFS over the same R-MAT
/// edges: the same reached set, every parent an edge of the graph, and
/// every parent one level above its child.
pub fn bfs_trees(spec: &Spec, trees: &[(u32, MemVec<i64>)]) -> Tally {
    let n = 1usize << spec.scale.graph_scale;
    let adj = adjacency(
        n,
        &rmat_edges(
            spec.scale.graph_scale,
            spec.scale.graph_degree,
            spec.scale.seed,
        ),
    );
    let mut tally = Tally::default();
    for (trial, (src, parent)) in trees.iter().enumerate() {
        let ok = tree_is_valid(&adj, *src, parent.as_slice_unaccounted());
        tally.record(ok, || {
            format!("bfs trial {trial} from {src}: parent array is not a BFS tree")
        });
    }
    tally
}

/// Sorted, deduplicated, symmetric adjacency without self loops — the
/// graph `Csr::build` stores.
fn adjacency(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); n];
    for &(u, v) in edges {
        if u != v {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

fn tree_is_valid(adj: &[Vec<u32>], src: u32, parent: &[i64]) -> bool {
    let n = adj.len();
    if parent.len() != n || src as usize >= n {
        return false;
    }
    let mut depth = vec![-1i64; n];
    depth[src as usize] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u as usize] {
            if depth[v as usize] == -1 {
                depth[v as usize] = depth[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    (0..n).all(|v| {
        let p = parent[v];
        if depth[v] == -1 {
            return p == -1;
        }
        if v == src as usize {
            return p == src as i64;
        }
        let Ok(p) = usize::try_from(p) else {
            return false;
        };
        p < n && depth[p] == depth[v] - 1 && adj[p].binary_search(&(v as u32)).is_ok()
    })
}

/// The simulated results the equivalence check compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Requests per virtual second (YCSB); zero for GAPBS.
    pub ops_per_sec: f64,
    /// Mean virtual time per measured trial (GAPBS); zero for YCSB.
    pub trial_time: Nanos,
    /// Pages promoted.
    pub promotions: u64,
    /// Pages demoted.
    pub demotions: u64,
    /// Share of accesses served by fast tiers.
    pub fast_share: Option<f64>,
}

impl Headline {
    fn of(o: &RunOutcome) -> Headline {
        Headline {
            ops_per_sec: o.ops_per_sec,
            trial_time: o.trial_time,
            promotions: o.promotions,
            demotions: o.demotions,
            fast_share: o.top_tier_share,
        }
    }
}

/// Runs the workload through `Experiment::run` and checks that the
/// benchmark's own drive loop reproduced it exactly.
pub fn experiment_equivalence(spec: &Spec, ours: Headline) -> Tally {
    let mut tally = Tally::default();
    match spec.experiment().run() {
        Ok(o) => {
            let theirs = Headline::of(&o);
            tally.record(ours == theirs, || {
                format!("drive loop {ours:?} differs from Experiment::run {theirs:?}")
            });
        }
        Err(e) => tally.record(false, || format!("Experiment::run failed: {e}")),
    }
    tally
}
