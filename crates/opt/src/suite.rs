//! Cross-application suite optimization.
//!
//! A hub runs many applications' wake conditions at once, and much of
//! their cost is duplicated front ends: several apps windowing,
//! filtering, and FFT-ing the same microphone channel with the same
//! parameters. [`optimize_suite`] optimizes each program
//! individually, then deduplicates whole programs *up to node-id
//! renaming* — two apps whose optimized conditions are structurally
//! identical share one interpreter instance, and each wake from the
//! shared instance fans out to every subscribed application.
//!
//! (Within one program, [`crate::passes::cse`] already shares identical
//! subgraphs; this module extends the same idea across program
//! boundaries, where the hub's unit of execution is the whole program.)

use crate::{optimize, OptOptions, OptReport};
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_ir::{canonicalize_ids, AlgorithmKind, NodeId, Program, Source};
use std::collections::{BTreeMap, HashMap};

/// The result of optimizing a set of programs destined for one hub.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Each input program, optimized (ids preserved where possible).
    pub programs: Vec<Program>,
    /// Per-program optimization reports, parallel to `programs`.
    pub reports: Vec<OptReport>,
    /// `assignment[i]` is the index in [`SuiteResult::unique`] that
    /// input `i` should execute — the wake fan-out table.
    pub assignment: Vec<usize>,
    /// The distinct programs actually worth running, canonicalized.
    pub unique: Vec<Program>,
}

impl SuiteResult {
    /// How many whole programs were deduplicated away.
    pub fn shared(&self) -> usize {
        self.programs.len() - self.unique.len()
    }

    /// Fuses the deduplicated survivors into one runnable program — the
    /// form a serving path (one hub, or every simulated hub of a fleet)
    /// actually executes after ingest-time optimization: optimize each
    /// submission, drop structural duplicates, then join what remains
    /// with `anyOf` so a wake from any constituent condition wakes the
    /// phone. Returns `None` when nothing was submitted.
    pub fn fused(&self) -> Option<Program> {
        if self.unique.is_empty() {
            None
        } else {
            Some(fuse_programs(&self.unique))
        }
    }
}

/// Merges several wake conditions into one IR program: each input is
/// renumbered into a disjoint id range, the individual `OUT` statements
/// are dropped, and the former `OUT` sources are joined by `anyOf`
/// (waking when *any* constituent condition wakes). A single input
/// passes through with its own `OUT` kept.
///
/// This is how concurrent conditions share one hub (paper §7): once
/// they live in one program, [`crate::passes::cse`] can merge the
/// windows/filters/FFTs they share, which separate runtime instances
/// never could, and the hub runs the result on one `HubRuntime`.
///
/// Total on malformed input: unmapped node references and missing `OUT`
/// statements are skipped, never panicked on.
pub fn fuse_programs(programs: &[Program]) -> Program {
    let mut fused = Program::new();
    let mut next = 1u32;
    let mut out_sources: Vec<Source> = Vec::new();
    for program in programs {
        let mut map: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        for (sources, id, kind) in program.nodes() {
            let fresh = NodeId(next);
            next += 1;
            map.insert(id, fresh);
            let sources = sources
                .iter()
                .map(|s| match s {
                    Source::Node(n) => Source::Node(*map.get(n).unwrap_or(n)),
                    Source::Channel(c) => Source::Channel(*c),
                })
                .collect();
            fused.push_node(sources, fresh, *kind);
        }
        if let Some(out) = program.out_source() {
            if let Some(&mapped) = map.get(&out) {
                out_sources.push(Source::Node(mapped));
            }
        }
    }
    match out_sources[..] {
        [] => {}
        [Source::Node(only)] => fused.push_out(only),
        _ => {
            let join = NodeId(next);
            fused.push_node(out_sources, join, AlgorithmKind::AnyOf);
            fused.push_out(join);
        }
    }
    fused
}

/// Optimizes every program and merges structural duplicates.
///
/// Digest-exact at the suite level whenever every per-program report is:
/// a deduplicated program's wakes are, bit for bit, the wakes each
/// subscriber would have seen from its own copy, because id renaming
/// touches no algorithm, parameter, or topology.
pub fn optimize_suite(
    programs: &[Program],
    rates: &ChannelRates,
    options: &OptOptions,
) -> SuiteResult {
    let mut optimized = Vec::with_capacity(programs.len());
    let mut reports = Vec::with_capacity(programs.len());
    for p in programs {
        let (q, r) = optimize(p, rates, options);
        optimized.push(q);
        reports.push(r);
    }
    let mut unique: Vec<Program> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut assignment = Vec::with_capacity(optimized.len());
    for q in &optimized {
        let canonical = canonicalize_ids(q);
        let key = canonical.to_string();
        let slot = match index.get(&key) {
            Some(&i) => i,
            None => {
                unique.push(canonical);
                index.insert(key, unique.len() - 1);
                unique.len() - 1
            }
        };
        assignment.push(slot);
    }
    SuiteResult {
        programs: optimized,
        reports,
        assignment,
        unique,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Program {
        text.parse().unwrap()
    }

    #[test]
    fn identical_conditions_share_one_program() {
        // The same condition written with different node ids.
        let a = parse(
            "ACC_X -> movingAvg(id=1, params={10});
             1 -> minThreshold(id=2, params={15});
             2 -> OUT;",
        );
        let b = parse(
            "ACC_X -> movingAvg(id=7, params={10});
             7 -> minThreshold(id=9, params={15});
             9 -> OUT;",
        );
        let suite = optimize_suite(&[a, b], &ChannelRates::default(), &OptOptions::default());
        assert_eq!(suite.unique.len(), 1);
        assert_eq!(suite.assignment, vec![0, 0]);
        assert_eq!(suite.shared(), 1);
        assert!(suite.unique[0].validate().is_ok());
    }

    #[test]
    fn optimization_can_reveal_sharing() {
        // Distinct as written — b carries a redundant identity stage —
        // but identical once optimized.
        let a = parse(
            "ACC_X -> movingAvg(id=1, params={10});
             1 -> minThreshold(id=2, params={15});
             2 -> OUT;",
        );
        let b = parse(
            "ACC_X -> movingAvg(id=1, params={10});
             1 -> expMovingAvg(id=2, params={1});
             2 -> minThreshold(id=3, params={15});
             3 -> OUT;",
        );
        assert_ne!(canonicalize_ids(&a), canonicalize_ids(&b));
        let suite = optimize_suite(&[a, b], &ChannelRates::default(), &OptOptions::default());
        assert_eq!(suite.unique.len(), 1);
        assert_eq!(suite.shared(), 1);
    }

    #[test]
    fn suite_fused_is_the_servable_join_of_the_unique_set() {
        let a = parse(
            "ACC_X -> movingAvg(id=1, params={10});
             1 -> minThreshold(id=2, params={15});
             2 -> OUT;",
        );
        // A renamed duplicate of `a` plus one genuinely distinct
        // condition: the fused serving program joins two uniques.
        let a2 = parse(
            "ACC_X -> movingAvg(id=4, params={10});
             4 -> minThreshold(id=8, params={15});
             8 -> OUT;",
        );
        let b = parse(
            "ACC_Y -> movingAvg(id=1, params={3});
             1 -> maxThreshold(id=2, params={-3});
             2 -> OUT;",
        );
        let suite = optimize_suite(
            &[a, a2, b],
            &ChannelRates::default(),
            &OptOptions::default(),
        );
        assert_eq!(suite.unique.len(), 2);
        let fused = suite.fused().expect("two unique programs fuse");
        assert!(fused.validate().is_ok());
        assert_eq!(fused, fuse_programs(&suite.unique));

        // Empty ingest: nothing to serve.
        let empty = optimize_suite(&[], &ChannelRates::default(), &OptOptions::default());
        assert!(empty.fused().is_none());
    }

    #[test]
    fn fusion_joins_conditions_under_any_of() {
        let a = parse(
            "ACC_X -> movingAvg(id=1, params={5});
             1 -> outsideThreshold(id=2, params={-2, 2});
             2 -> OUT;",
        );
        let b = parse(
            "ACC_Y -> movingAvg(id=1, params={3});
             1 -> maxThreshold(id=2, params={-3});
             2 -> OUT;",
        );
        let fused = fuse_programs(&[a.clone(), b]);
        assert!(fused.validate().is_ok());
        assert_eq!(fused.nodes().count(), 5, "2 + 2 nodes + anyOf join");
        let (_, _, kind) = fused.nodes().last().unwrap();
        assert_eq!(*kind, AlgorithmKind::AnyOf);

        // A single program passes through unchanged up to renumbering.
        let single = fuse_programs(std::slice::from_ref(&a));
        assert_eq!(canonicalize_ids(&single), canonicalize_ids(&a));

        assert_eq!(fuse_programs(&[]).len(), 0);
    }

    #[test]
    fn different_conditions_stay_separate() {
        let a = parse(
            "ACC_X -> movingAvg(id=1, params={10});
             1 -> minThreshold(id=2, params={15});
             2 -> OUT;",
        );
        let b = parse(
            "ACC_Y -> movingAvg(id=1, params={10});
             1 -> minThreshold(id=2, params={15});
             2 -> OUT;",
        );
        let suite = optimize_suite(&[a, b], &ChannelRates::default(), &OptOptions::default());
        assert_eq!(suite.unique.len(), 2);
        assert_eq!(suite.assignment, vec![0, 1]);
        assert_eq!(suite.shared(), 0);
    }
}
