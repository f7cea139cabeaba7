//! The cube-round MapReduce job (Algorithm 3).

use spcube_agg::{AggOutput, AggSpec, AggState};
use spcube_common::{Group, Mask, Tuple};
use spcube_cubealg::{buc_from, BucConfig};
use spcube_lattice::{anchor_mask, BfsOrder, TupleLattice};
use spcube_mapreduce::{LargeGroupBehavior, MapContext, MrJob, ReduceContext};

use super::SpCubeConfig;
use crate::sketch::SpSketch;

/// Shuffle value: either a whole input tuple routed to an anchor's range
/// reducer, or a mapper's partial aggregate of a skewed c-group bound for
/// reducer 0.
#[derive(Debug, Clone)]
pub(crate) enum SpValue {
    /// A full tuple (the reducer needs every dimension to derive ancestor
    /// groups with BUC).
    Row(Tuple),
    /// A map-side partial aggregate of a skewed group, with the number of
    /// tuples folded into it (lets reducer 0 apply iceberg pruning exactly
    /// even if the sampled sketch mislabelled a small group as skewed).
    Partial(AggState, u64),
}

/// The second (cube) round of SP-Cube.
pub(crate) struct SpCubeJob<'a> {
    sketch: &'a SpSketch,
    d: usize,
    spec: AggSpec,
    factorize: bool,
    skew_agg: bool,
    bfs: BfsOrder,
    buc_cfg: BucConfig,
    /// Anchor-placement histogram (`spcube.anchor.level`): one sample per
    /// shipped anchor, valued at the anchor cuboid's dimensionality.
    /// Pre-grabbed from the registry so the mapper hot loop pays one
    /// atomic increment, never a registry lookup; `None` when
    /// observability is off.
    pub(crate) anchor_hist: Option<std::sync::Arc<spcube_obs::Histogram>>,
}

impl<'a> SpCubeJob<'a> {
    pub(crate) fn new(sketch: &'a SpSketch, d: usize, cfg: &SpCubeConfig) -> SpCubeJob<'a> {
        SpCubeJob {
            sketch,
            d,
            spec: cfg.agg,
            factorize: cfg.factorize_ancestors,
            skew_agg: cfg.map_side_skew_aggregation,
            bfs: BfsOrder::new(d),
            buc_cfg: BucConfig {
                min_support: cfg.min_support,
            },
            anchor_hist: None,
        }
    }

    /// Effective skew test: the ablation that disables map-side skew
    /// aggregation must disable it *everywhere* (mapper routing, the range
    /// partitioner, and the reducers' anchor filter evaluate the same
    /// oracle), otherwise mappers and reducers would disagree on
    /// assignment.
    #[inline]
    fn is_skewed(&self, g: &Group) -> bool {
        self.skew_agg && self.sketch.is_skewed_group(g)
    }

    /// [`Self::is_skewed`] of `h.project(sub)`, without building the
    /// projection: the reducers' anchor filter asks it about each subset
    /// it walks, for every group BUC emits.
    #[inline]
    fn is_skewed_projection(&self, h: &Group, sub: Mask) -> bool {
        self.skew_agg && self.sketch.node(sub).is_skewed_projection(h.mask, &h.key)
    }
}

impl MrJob for SpCubeJob<'_> {
    type Input = Tuple;
    type Key = Group;
    type Value = SpValue;
    type Output = (Group, AggOutput);

    fn name(&self) -> String {
        "sp-cube".into()
    }

    fn map_split(&self, ctx: &mut MapContext<'_, Group, SpValue>, split: &[Tuple]) {
        // Partial aggregates of skewed c-groups, kept in a hash table keyed
        // by the group (Section 5: "maintaining a hash table in which items
        // correspond to the skewed c-groups"). Proposition 4.7 bounds its
        // size by O(2^d · k) = O(m).
        #[expect(
            clippy::disallowed_types,
            reason = "iteration is sorted before emission (flush below)"
        )]
        let mut partials = std::collections::HashMap::<Group, (AggState, u64)>::new();

        for t in split {
            let mut lat = TupleLattice::new(t, &self.bfs);
            let mut rank = 0u32;
            while let Some((mask, at)) = lat.next_unmarked(rank) {
                rank = at;
                ctx.charge(1);
                let g = Group::of_tuple(t, mask);
                if self.is_skewed(&g) {
                    // Lines 6-8: aggregate locally, mark only this node.
                    let entry = partials.entry(g).or_insert_with(|| (self.spec.init(), 0));
                    entry.0.update(t.measure);
                    entry.1 += 1;
                    lat.mark(mask);
                } else {
                    // Lines 9-13: ship the tuple to the anchor's range
                    // reducer; the reducer derives all ancestors, so mark
                    // them (Observation 2.6).
                    if let Some(h) = &self.anchor_hist {
                        h.record(f64::from(mask.0.count_ones()));
                    }
                    ctx.emit(g, SpValue::Row(t.clone()));
                    if self.factorize {
                        lat.mark_with_ancestors(mask);
                    } else {
                        lat.mark(mask);
                    }
                }
            }
        }

        // Lines 16-20: flush the skew partials to reducer 0. Sorted for
        // deterministic emission order (HashMap iteration order is
        // randomized).
        let mut flat: Vec<(Group, (AggState, u64))> = partials.into_iter().collect();
        flat.sort_by(|a, b| a.0.cmp(&b.0));
        for (g, (state, count)) in flat {
            ctx.emit(g, SpValue::Partial(state, count));
        }
    }

    /// Sketch-driven partitioner: skewed groups to reducer 0, everything
    /// else to the reducer owning its cuboid's range.
    ///
    /// The range->reducer assignment is rotated by a per-cuboid offset.
    /// Without it, range `i` of *every* cuboid lands on reducer `i+1`, and
    /// since heavy (but non-skewed) head values sort at the front of every
    /// cuboid's order, all cuboids' hottest ranges collide on reducer 1.
    /// The rotation decorrelates cuboids while preserving the paper's
    /// invariant that one range maps to exactly one reducer.
    fn partition(&self, key: &Group, reducers: usize) -> usize {
        if self.is_skewed(key) {
            0
        } else {
            let ranges = reducers.saturating_sub(1).max(1);
            let range = self.sketch.partition_of(key.mask, &key.key).min(ranges - 1);
            let offset = (key.mask.0 as usize).wrapping_mul(0x9e37_79b9) % ranges;
            1 + (range + offset) % ranges
        }
    }

    fn reduce(
        &self,
        ctx: &mut ReduceContext<'_, (Group, AggOutput)>,
        key: Group,
        values: Vec<SpValue>,
    ) {
        if self.is_skewed(&key) {
            // Reducer 0: merge at most k partial aggregates per group.
            let mut state = self.spec.init();
            let mut tuples = 0u64;
            for v in &values {
                match v {
                    SpValue::Partial(p, count) => {
                        state.merge(p);
                        tuples += count;
                    }
                    #[expect(
                        clippy::unreachable,
                        reason = "shuffle-protocol invariant, a code bug not corrupt data"
                    )]
                    SpValue::Row(_) => unreachable!("skewed group received a raw tuple"),
                }
            }
            ctx.charge(values.len() as u64);
            if tuples >= self.buc_cfg.min_support as u64 {
                ctx.emit((key, state.finalize()));
            }
            return;
        }

        if !self.factorize {
            // Ablation: each group receives exactly its own tuples.
            if values.len() < self.buc_cfg.min_support {
                return; // iceberg pruning
            }
            let mut state = self.spec.init();
            for v in &values {
                match v {
                    SpValue::Row(t) => state.update(t.measure),
                    #[expect(
                        clippy::unreachable,
                        reason = "shuffle-protocol invariant, a code bug not corrupt data"
                    )]
                    SpValue::Partial(..) => unreachable!("non-skewed group received a partial"),
                }
            }
            ctx.charge(values.len() as u64);
            ctx.emit((key, state.finalize()));
            return;
        }

        // Anchor group: run BUC over the anchor's tuples, computing the
        // anchor and exactly those ancestors assigned to it — an ancestor
        // `h` belongs to the BFS-first non-skewed descendant of `h`
        // (Section 5.1's shared-ancestor rule).
        let tuples: Vec<Tuple> = values
            .into_iter()
            .map(|v| match v {
                SpValue::Row(t) => t,
                #[expect(
                    clippy::unreachable,
                    reason = "shuffle-protocol invariant, a code bug not corrupt data"
                )]
                SpValue::Partial(..) => unreachable!("non-skewed group received a partial"),
            })
            .collect();
        let mut refs: Vec<&Tuple> = tuples.iter().collect();
        let anchor = key.mask;
        buc_from(
            &mut refs,
            self.d,
            anchor,
            self.spec,
            &self.buc_cfg,
            &mut |h, state| {
                ctx.charge(1);
                let assigned = anchor_mask(h.mask, |sub| self.is_skewed_projection(&h, sub));
                if assigned == Some(anchor) {
                    ctx.emit((h, state.finalize()));
                }
            },
        );
    }

    fn key_bytes(&self, key: &Group) -> u64 {
        key.wire_bytes()
    }

    fn value_bytes(&self, value: &SpValue) -> u64 {
        match value {
            SpValue::Row(t) => t.wire_bytes(),
            SpValue::Partial(state, _count) => state.wire_bytes() + 8,
        }
    }

    fn output_bytes(&self, output: &(Group, AggOutput)) -> u64 {
        output.0.wire_bytes() + 8
    }

    /// SP-Cube never buffers a skewed group reducer-side by design; if the
    /// sampled sketch missed a skew, the group spills (slow but correct) —
    /// the resilience property the paper claims.
    fn large_group_behavior(&self) -> LargeGroupBehavior {
        LargeGroupBehavior::Spill
    }
}

/// The fallback cube round, used when the SP-Sketch is lost (the sketch
/// round failed permanently) or rejected (checksum or invariant violation
/// on the DFS copy).
///
/// Without a trustworthy sketch there is no skew knowledge and no range
/// partitioning, so this job degrades to the naive cube of Section 3.1:
/// each tuple contributes a map-side partial aggregate to every one of its
/// `2^d` c-groups, keys are hash-partitioned across all reducers, and a
/// combiner folds each map task's partials so the shuffle carries one
/// record per (task, group) rather than per (tuple, group). Slower and
/// skew-exposed — but exact, which is the point of graceful degradation:
/// the output is identical to a healthy SP-Cube run.
pub(crate) struct DegradedCubeJob {
    d: usize,
    spec: AggSpec,
    min_support: usize,
}

impl DegradedCubeJob {
    pub(crate) fn new(d: usize, cfg: &SpCubeConfig) -> DegradedCubeJob {
        DegradedCubeJob {
            d,
            spec: cfg.agg,
            min_support: cfg.min_support,
        }
    }

    fn fold<'v>(&self, values: impl Iterator<Item = &'v SpValue>) -> (AggState, u64) {
        let mut state = self.spec.init();
        let mut tuples = 0u64;
        for v in values {
            match v {
                SpValue::Partial(p, count) => {
                    state.merge(p);
                    tuples += count;
                }
                #[expect(
                    clippy::unreachable,
                    reason = "shuffle-protocol invariant, a code bug not corrupt data"
                )]
                SpValue::Row(_) => unreachable!("degraded cube round ships only partials"),
            }
        }
        (state, tuples)
    }
}

impl MrJob for DegradedCubeJob {
    type Input = Tuple;
    type Key = Group;
    type Value = SpValue;
    type Output = (Group, AggOutput);

    fn name(&self) -> String {
        "sp-cube-degraded".into()
    }

    fn map_split(&self, ctx: &mut MapContext<'_, Group, SpValue>, split: &[Tuple]) {
        for t in split {
            for mask in Mask::full(self.d).subsets() {
                ctx.charge(1);
                let mut state = self.spec.init();
                state.update(t.measure);
                ctx.emit(Group::of_tuple(t, mask), SpValue::Partial(state, 1));
            }
        }
    }

    // Keys use the engine's default hash partitioner — no sketch, no
    // ranges, no dedicated skew reducer.

    fn has_combiner(&self) -> bool {
        true
    }

    fn combine(&self, _key: &Group, values: &mut Vec<SpValue>) {
        let (state, count) = self.fold(values.iter());
        values.clear();
        values.push(SpValue::Partial(state, count));
    }

    fn reduce(
        &self,
        ctx: &mut ReduceContext<'_, (Group, AggOutput)>,
        key: Group,
        values: Vec<SpValue>,
    ) {
        let (state, tuples) = self.fold(values.iter());
        ctx.charge(values.len() as u64);
        if tuples >= self.min_support as u64 {
            ctx.emit((key, state.finalize()));
        }
    }

    fn key_bytes(&self, key: &Group) -> u64 {
        key.wire_bytes()
    }

    fn value_bytes(&self, value: &SpValue) -> u64 {
        match value {
            SpValue::Row(t) => t.wire_bytes(),
            SpValue::Partial(state, _count) => state.wire_bytes() + 8,
        }
    }

    fn output_bytes(&self, output: &(Group, AggOutput)) -> u64 {
        output.0.wire_bytes() + 8
    }

    fn large_group_behavior(&self) -> LargeGroupBehavior {
        LargeGroupBehavior::Spill
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::build_exact_sketch;
    use spcube_common::{Relation, Schema, Value};
    use spcube_mapreduce::{run_job, ClusterConfig};

    /// The running example of Section 5.1: verify the mapper's anchor
    /// behaviour on a relation where (*,*,*) is skewed.
    #[test]
    fn mapper_aggregates_skews_and_ships_anchors() {
        let mut rel =
            Relation::empty(Schema::new(["name", "city", "year"], "sales").expect("schema"));
        for i in 0..100usize {
            rel.push_row(
                vec![
                    Value::str(if i % 2 == 0 { "laptop" } else { "printer" }),
                    Value::str(["Rome", "Paris"][i % 2]),
                    Value::Int(2010 + (i % 3) as i64),
                ],
                1.0,
            );
        }
        let cluster = ClusterConfig::new(4, 30); // apex (100 tuples) skewed
        let sketch = build_exact_sketch(&rel, &cluster);
        assert!(sketch.is_skewed_group(&Group::apex()));

        let cfg = SpCubeConfig::new(AggSpec::Count);
        let job = SpCubeJob::new(&sketch, 3, &cfg);
        let res = run_job(&cluster, &job, rel.tuples(), cluster.machines + 1).expect("run");

        // Reducer 0 must produce the apex group with the exact total count.
        let apex = res.outputs[0]
            .iter()
            .find(|(g, _)| *g == Group::apex())
            .expect("apex computed by the skew reducer");
        assert_eq!(apex.1, AggOutput::Number(100.0));

        // Raw rows shipped are bounded by d emissions per tuple.
        assert!(res.metrics.map_output_records <= 100 * 4 + 64);
    }

    /// The reducers' in-place skew test answers exactly what projecting
    /// the group and asking the sketch does, for every group and subset,
    /// with and without map-side skew aggregation.
    #[test]
    fn in_place_skew_test_matches_the_projected_lookup() {
        use proptest::prelude::*;
        use spcube_cubealg::naive_cube;

        let rows = proptest::collection::vec((0i64..3, 0i64..4, 0i64..2, 0i64..5), 40..160);
        let mut rng = proptest::TestRng::new(0x5eed);
        for case in 0..12 {
            let mut rel = Relation::empty(Schema::synthetic(4));
            for (a, b, c, e) in rows.generate(&mut rng) {
                let name = Value::str(["x", "y", "z"][c as usize % 3]);
                rel.push_row(vec![Value::Int(a), Value::Int(b), name, Value::Int(e)], 1.0);
            }
            let sketch = build_exact_sketch(&rel, &ClusterConfig::new(4, 3 + case));
            let busiest = Mask::full(4)
                .subsets()
                .map(|m| sketch.node(m).skew_count())
                .max();
            assert!(
                busiest >= Some(2),
                "case {case}: want several skews per cuboid"
            );
            for skew_agg in [true, false] {
                let mut cfg = SpCubeConfig::new(AggSpec::Count);
                cfg.map_side_skew_aggregation = skew_agg;
                let job = SpCubeJob::new(&sketch, 4, &cfg);
                let mut skewed = 0;
                for (h, _) in naive_cube(&rel, AggSpec::Count).iter() {
                    for sub in h.mask.subsets() {
                        let expect = job.is_skewed(&h.project(sub));
                        assert_eq!(job.is_skewed_projection(h, sub), expect, "{h} at {sub}");
                        skewed += usize::from(expect);
                    }
                }
                assert_eq!(skewed > 0, skew_agg, "case {case}");
            }
        }
    }

    #[test]
    fn partitioner_routes_skews_to_reducer_zero() {
        let mut rel = Relation::empty(Schema::synthetic(2));
        for i in 0..50 {
            rel.push_row(vec![Value::Int(1), Value::Int(i)], 1.0);
        }
        let cluster = ClusterConfig::new(3, 10);
        let sketch = build_exact_sketch(&rel, &cluster);
        let cfg = SpCubeConfig::new(AggSpec::Count);
        let job = SpCubeJob::new(&sketch, 2, &cfg);
        // (1, *) has 50 > 10 tuples: skewed.
        let skewed_key = Group::new(spcube_common::Mask(0b01), vec![Value::Int(1)]);
        assert_eq!(job.partition(&skewed_key, 4), 0);
        // A full-cuboid singleton is not skewed: range reducers 1..=3.
        let normal = Group::new(
            spcube_common::Mask(0b11),
            vec![Value::Int(1), Value::Int(7)],
        );
        let p = job.partition(&normal, 4);
        assert!((1..4).contains(&p));
    }
}
