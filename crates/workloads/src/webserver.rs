//! A web-server-like workload: multi-component path resolution.
//!
//! The paper motivates the directory-lookup benchmark with web servers,
//! citing Veal and Foong's study of multicore web-server scalability:
//! serving a request means resolving a path like `/a/b/index.html`, i.e.
//! several directory lookups in sequence. This generator models that:
//! each "request" resolves a path of several components, walking from a
//! small set of hot top-level directories into a large set of leaf
//! directories. Every request reads one of the few hot roots, which makes
//! them the read-mostly head that replica serving (Section 6.2) copies.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o2_fs::{lookup_actions_kind, LookupCost};
use o2_runtime::{AccessKind, Action, BehaviourCtx, OpGenerator};

use crate::behaviour::DirectorySet;

/// Traffic mix for a web server serving static files and CGI requests.
///
/// Static requests are pure path resolutions: every component lookup is
/// read-kind, so a replica-serving policy may run them against any copy of
/// the hot root directories. A CGI request resolves the same way but its
/// final component is a write-kind lookup (the script updates state under
/// the leaf directory's lock) followed by the script's compute burst.
#[derive(Debug, Clone, Copy)]
pub struct WebMix {
    /// Fraction of requests that are CGI (`0.0..=1.0`).
    pub cgi_fraction: f64,
    /// Extra compute cycles charged for running the CGI script.
    pub cgi_compute_cycles: u64,
}

impl Default for WebMix {
    fn default() -> Self {
        Self {
            cgi_fraction: 0.05,
            cgi_compute_cycles: 4_000,
        }
    }
}

/// Per-thread generator of path-resolution "requests".
pub struct PathLookupGen {
    dirs: Rc<DirectorySet>,
    cost: LookupCost,
    /// Number of directories treated as top-level (hot) directories.
    top_level_dirs: u32,
    /// Components per path (lookups per request).
    components: u32,
    /// Static/CGI traffic mix; `None` reproduces the original write-kind
    /// stream without consuming any extra randomness.
    mix: Option<WebMix>,
    rng: StdRng,
    max_requests: Option<u64>,
    requests: u64,
    /// Remaining lookups of the request in progress:
    /// (dir index, entry, this lookup is a CGI request's final component).
    pending: Vec<(u32, u32, bool)>,
}

impl PathLookupGen {
    /// Creates a generator resolving `components`-deep paths, with the
    /// first `top_level_dirs` directories acting as the hot root set.
    pub fn new(
        dirs: Rc<DirectorySet>,
        cost: LookupCost,
        top_level_dirs: u32,
        components: u32,
        seed: u64,
        max_requests: Option<u64>,
    ) -> Self {
        Self {
            top_level_dirs: top_level_dirs.max(1),
            components: components.max(1),
            dirs,
            cost,
            mix: None,
            rng: StdRng::seed_from_u64(seed),
            max_requests,
            requests: 0,
            pending: Vec::new(),
        }
    }

    /// Like [`PathLookupGen::new`], but with a static/CGI traffic mix:
    /// static components are read-kind lookups, and a CGI request's final
    /// component is a write-kind lookup plus the script's compute burst.
    #[allow(clippy::too_many_arguments)]
    pub fn new_mixed(
        dirs: Rc<DirectorySet>,
        cost: LookupCost,
        top_level_dirs: u32,
        components: u32,
        mix: WebMix,
        seed: u64,
        max_requests: Option<u64>,
    ) -> Self {
        let mut gen = Self::new(dirs, cost, top_level_dirs, components, seed, max_requests);
        gen.mix = Some(mix);
        gen
    }

    /// Requests fully generated so far.
    pub fn requests_generated(&self) -> u64 {
        self.requests
    }

    fn plan_request(&mut self) {
        let n = self.dirs.len() as u32;
        let top = self.top_level_dirs.min(n);
        self.pending.clear();
        for level in 0..self.components {
            let dir = if level == 0 {
                self.rng.gen_range(0..top)
            } else if top < n {
                self.rng.gen_range(top..n)
            } else {
                self.rng.gen_range(0..n)
            };
            let entries = self.dirs.dirs[dir as usize].entry_count;
            let entry = self.rng.gen_range(0..entries);
            self.pending.push((dir, entry, false));
        }
        if let Some(mix) = self.mix {
            if self.rng.gen::<f64>() < mix.cgi_fraction {
                if let Some(last) = self.pending.last_mut() {
                    last.2 = true;
                }
            }
        }
        // The walk resolves components root-first.
        self.pending.reverse();
        self.requests += 1;
    }
}

impl OpGenerator for PathLookupGen {
    fn next_op(&mut self, _ctx: &BehaviourCtx) -> Vec<Action> {
        if self.dirs.is_empty() {
            return Vec::new();
        }
        if self.pending.is_empty() {
            if let Some(max) = self.max_requests {
                if self.requests >= max {
                    return Vec::new();
                }
            }
            self.plan_request();
        }
        let (dir_idx, entry, cgi_final) = self.pending.pop().expect("planned request");
        let dir = &self.dirs.dirs[dir_idx as usize];
        let lock = self.dirs.locks[dir_idx as usize];
        match self.mix {
            None => lookup_actions_kind(dir, lock, entry, &self.cost, AccessKind::Write),
            Some(mix) if cgi_final => {
                // The script mutates state under the leaf directory, then
                // runs: a write-kind lookup with the compute burst folded
                // into the same annotated operation.
                let mut actions =
                    lookup_actions_kind(dir, lock, entry, &self.cost, AccessKind::Write);
                let end = actions.pop().expect("lookup ends with ct_end");
                actions.push(Action::Compute(mix.cgi_compute_cycles));
                actions.push(end);
                actions
            }
            Some(_) => lookup_actions_kind(dir, lock, entry, &self.cost, AccessKind::Read),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_fs::Volume;
    use o2_sim::SimMemory;

    fn dirs(n: u32) -> Rc<DirectorySet> {
        let mut v = Volume::build_benchmark(n, 50).unwrap();
        let mut mem = SimMemory::new(4, 64);
        v.map_into(&mut mem);
        Rc::new(DirectorySet {
            dirs: v.directories().cloned().collect(),
            locks: (0..n as usize).collect(),
        })
    }

    fn ctx() -> BehaviourCtx {
        BehaviourCtx {
            thread: 0,
            core: 0,
            home_core: 0,
            now: 0,
            ops_completed: 0,
        }
    }

    #[test]
    fn each_request_produces_one_op_per_component() {
        let set = dirs(16);
        let mut gen = PathLookupGen::new(set, LookupCost::default(), 4, 3, 1, Some(5));
        let mut ops = 0;
        loop {
            let op = gen.next_op(&ctx());
            if op.is_empty() {
                break;
            }
            assert!(matches!(op.first(), Some(Action::CtStart(..))));
            ops += 1;
        }
        assert_eq!(ops, 15);
        assert_eq!(gen.requests_generated(), 5);
    }

    #[test]
    fn first_component_comes_from_the_hot_root_set() {
        let set = dirs(16);
        let root_ids: Vec<u64> = set.dirs[0..4].iter().map(|d| d.object_id()).collect();
        let leaf_ids: Vec<u64> = set.dirs[4..].iter().map(|d| d.object_id()).collect();
        let mut gen = PathLookupGen::new(set, LookupCost::default(), 4, 2, 7, Some(20));
        let mut first = true;
        let mut roots_seen = 0;
        loop {
            let op = gen.next_op(&ctx());
            if op.is_empty() {
                break;
            }
            if let Action::CtStart(obj, _) = op[0] {
                if first {
                    assert!(root_ids.contains(&obj), "first component must be a root");
                    roots_seen += 1;
                } else {
                    assert!(leaf_ids.contains(&obj), "later components must be leaves");
                }
            }
            first = !first;
        }
        assert_eq!(roots_seen, 20);
    }

    #[test]
    fn mixed_traffic_marks_only_cgi_finals_as_writes() {
        let set = dirs(16);
        let mix = WebMix {
            cgi_fraction: 0.5,
            cgi_compute_cycles: 7_777,
        };
        let mut gen = PathLookupGen::new_mixed(set, LookupCost::default(), 4, 3, mix, 11, Some(40));
        let mut component = 0;
        let mut writes = 0;
        let mut reads = 0;
        loop {
            let op = gen.next_op(&ctx());
            if op.is_empty() {
                break;
            }
            let Some(Action::CtStart(_, kind)) = op.first().copied() else {
                panic!("op must start with ct_start");
            };
            let is_final = component == 2;
            component = (component + 1) % 3;
            if kind == AccessKind::Write {
                assert!(is_final, "only a request's final component may write");
                writes += 1;
                // The CGI burst rides inside the same annotated op.
                assert!(op.contains(&Action::Compute(7_777)));
            } else {
                reads += 1;
                assert!(!op.contains(&Action::Compute(7_777)));
            }
        }
        assert!(writes > 0, "a 0.5 cgi fraction must produce some CGI");
        assert!(reads > 0);
        // 40 requests * 3 components; writes only on finals.
        assert_eq!(writes + reads, 120);
        assert!(writes <= 40);
    }

    #[test]
    fn legacy_constructor_is_all_writes_and_stream_stable() {
        let set = dirs(8);
        let mut gen = PathLookupGen::new(set.clone(), LookupCost::default(), 2, 2, 5, Some(10));
        let mut legacy = Vec::new();
        loop {
            let op = gen.next_op(&ctx());
            if op.is_empty() {
                break;
            }
            let Some(Action::CtStart(obj, kind)) = op.first().copied() else {
                panic!("op must start with ct_start");
            };
            assert_eq!(kind, AccessKind::Write);
            legacy.push(obj);
        }
        // A cgi_fraction of 0 draws the same dirs/entries; only the one
        // extra mix draw per request differs, which must not perturb the
        // component sequence within each request's plan.
        let mix = WebMix {
            cgi_fraction: 0.0,
            cgi_compute_cycles: 1,
        };
        let mut mixed =
            PathLookupGen::new_mixed(set, LookupCost::default(), 2, 2, mix, 5, Some(10));
        let mut objs = Vec::new();
        loop {
            let op = mixed.next_op(&ctx());
            if op.is_empty() {
                break;
            }
            if let Some(Action::CtStart(obj, _)) = op.first().copied() {
                objs.push(obj);
            }
        }
        // First request is planned from the same rng prefix.
        assert_eq!(objs[..2], legacy[..2]);
    }

    #[test]
    fn handles_fewer_directories_than_root_set() {
        let set = dirs(2);
        let mut gen = PathLookupGen::new(set, LookupCost::default(), 8, 3, 3, Some(3));
        let mut count = 0;
        loop {
            let op = gen.next_op(&ctx());
            if op.is_empty() {
                break;
            }
            count += 1;
        }
        assert_eq!(count, 9);
    }
}
