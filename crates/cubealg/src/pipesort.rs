//! PipeSort-style top-down cube computation (Agarwal et al., VLDB 1996 —
//! cited as \[12\] in the paper).
//!
//! Where BUC recurses bottom-up through partitions, PipeSort covers the
//! cube lattice with *pipelines*: one sort of the relation by an attribute
//! order `(a_1, …, a_l)` computes, in a single scan, every **prefix
//! cuboid** `{a_1}, {a_1,a_2}, …, {a_1..a_l}` plus the apex — aggregates
//! for all prefixes are maintained simultaneously and flushed when their
//! prefix value changes. A greedy chain cover picks the sort orders so
//! every cuboid is emitted by exactly one pipeline.
//!
//! The paper's Section 7 contrasts the two traversals: it adopts bottom-up
//! (BUC) "as it allowed us to achieve a two phases MapReduce algorithm,
//! compared to previous top down MapReduce algorithm \[25\] that computes
//! the cube using multiple rounds". This sequential implementation is the
//! single-machine ancestor of that multi-round baseline
//! (`spcube_baselines::topdown`) and a second reference implementation for
//! differential testing.

use spcube_agg::{AggSpec, AggState};
use spcube_common::{Group, Mask, Relation, Tuple, Value};

use crate::cube::Cube;

/// A pipeline: a sort order (dimension indices) plus which prefix lengths
/// this pipeline is responsible for emitting (`emit[j]` covers the prefix
/// of length `j`, with `j = 0` being the apex).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pipeline {
    /// Dimension indices, outermost sort key first.
    pub order: Vec<usize>,
    /// `emit[j]` — emit the arity-`j` prefix cuboid from this pipeline.
    pub emit: Vec<bool>,
}

/// Minimal chain cover of the cube lattice via the Greene–Kleitman
/// symmetric chain decomposition (bracket matching): read a mask as a
/// parenthesis string (set bit = `(`, clear bit = `)`), match brackets,
/// and group masks by their matched pairs — the unmatched positions of a
/// chain take the staircase values `0…01…1`, so consecutive chain members
/// differ by one added dimension, which is exactly a pipeline suffix.
/// Produces `C(d, ⌊d/2⌋)` pipelines (the lattice width — optimal), each
/// cuboid emitted by exactly one.
pub fn plan_pipelines(d: usize) -> Vec<Pipeline> {
    let mut plans = Vec::new();
    let mut seen_bottoms = std::collections::HashSet::new();
    for raw in 0..(1u32 << d) {
        let mask = Mask(raw);
        // Bracket-match: a clear bit consumes the nearest unmatched set
        // bit to its left.
        let mut stack: Vec<usize> = Vec::new();
        let mut matched = vec![false; d];
        for i in 0..d {
            if mask.contains(i) {
                stack.push(i);
            } else if let Some(j) = stack.pop() {
                matched[i] = true;
                matched[j] = true;
            }
        }
        let unmatched: Vec<usize> = (0..d).filter(|&i| !matched[i]).collect();
        // The chain's bottom clears every unmatched position; one pipeline
        // per distinct bottom.
        let bottom = unmatched.iter().fold(mask, |m, &i| m.without(i));
        if !seen_bottoms.insert(bottom.0) {
            continue;
        }
        // Sort order: the bottom's dimensions first (levels below the
        // chain are emitted by other chains), then the unmatched
        // positions added last-first (the staircase 0…01…1 grows its
        // suffix of ones).
        let mut order: Vec<usize> = bottom.dims().collect();
        let start = order.len();
        order.extend(unmatched.iter().rev());
        let mut emit = vec![false; order.len() + 1];
        for flag in emit.iter_mut().skip(start) {
            *flag = true;
        }
        plans.push(Pipeline { order, emit });
    }
    plans
}

/// Compute the full cube with PipeSort: one sort + one pipelined scan per
/// pipeline from [`plan_pipelines`].
pub fn pipesort(rel: &Relation, spec: AggSpec) -> Cube {
    let mut pairs = Vec::new();
    if !rel.is_empty() {
        for pipe in plan_pipelines(rel.arity()) {
            scan_pipeline(rel, spec, &pipe, &mut |g, state| {
                pairs.push((g, state.finalize()))
            });
        }
    }
    Cube::from_pairs(pairs)
}

/// Run one pipeline: sort by its order, then a single scan maintaining one
/// running aggregate per emitted prefix level, flushing a level whenever
/// its prefix value changes.
pub fn scan_pipeline(
    rel: &Relation,
    spec: AggSpec,
    pipe: &Pipeline,
    emit: &mut impl FnMut(Group, AggState),
) {
    debug_assert_eq!(pipe.emit.len(), pipe.order.len() + 1);
    let mut sorted: Vec<&Tuple> = rel.tuples().iter().collect();
    sorted.sort_by(|a, b| {
        pipe.order
            .iter()
            .map(|&i| a.dims[i].cmp(&b.dims[i]))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let levels = pipe.order.len() + 1;
    // Running state per level; level j aggregates the prefix of length j.
    let mut states: Vec<AggState> = (0..levels).map(|_| spec.init()).collect();
    let mut current: Option<&Tuple> = None;

    let prefix_mask = |j: usize| pipe.order[..j].iter().fold(Mask::EMPTY, |m, &i| m.with(i));
    let flush = |j: usize,
                 anchor: &Tuple,
                 states: &mut Vec<AggState>,
                 emit: &mut dyn FnMut(Group, AggState)| {
        // Flush levels j..levels-1 (deepest first is not required —
        // states are independent), resetting each.
        for lvl in (j..levels).rev() {
            let state = std::mem::replace(&mut states[lvl], spec.init());
            if pipe.emit[lvl] {
                let key: Vec<Value> = {
                    let mask = prefix_mask(lvl);
                    anchor.project(mask)
                };
                emit(Group::new(prefix_mask(lvl), key), state);
            }
        }
    };

    for t in &sorted {
        if let Some(prev) = current {
            // First level whose prefix value changed.
            let mut changed = None;
            for (j, &dim) in pipe.order.iter().enumerate() {
                if prev.dims[dim] != t.dims[dim] {
                    changed = Some(j + 1);
                    break;
                }
            }
            if let Some(j) = changed {
                flush(j, prev, &mut states, emit);
            }
        }
        for state in states.iter_mut() {
            state.update(t.measure);
        }
        current = Some(t);
    }
    if let Some(prev) = current {
        flush(0, prev, &mut states, emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_cube;
    use spcube_common::Schema;

    fn rel(n: usize) -> Relation {
        let mut r = Relation::empty(Schema::synthetic(3));
        for i in 0..n {
            r.push_row(
                vec![
                    Value::Int((i % 4) as i64),
                    Value::Int((i % 3) as i64),
                    Value::Int((i * 7 % 5) as i64),
                ],
                (i % 9) as f64,
            );
        }
        r
    }

    #[test]
    fn plan_covers_every_cuboid_exactly_once() {
        for d in 1..=6 {
            let plans = plan_pipelines(d);
            let mut emitted = vec![0usize; 1 << d];
            for p in &plans {
                assert_eq!(p.emit.len(), p.order.len() + 1);
                let mut mask = Mask::EMPTY;
                if p.emit[0] {
                    emitted[0] += 1;
                }
                for (j, &dim) in p.order.iter().enumerate() {
                    mask = mask.with(dim);
                    if p.emit[j + 1] {
                        emitted[mask.0 as usize] += 1;
                    }
                }
            }
            assert!(emitted.iter().all(|&c| c == 1), "d={d}: {emitted:?}");
        }
    }

    #[test]
    fn pipeline_count_is_width_of_lattice() {
        // Minimal chain cover size = the largest antichain C(d, d/2)
        // (Dilworth); the greedy prefix cover achieves it for this lattice.
        assert_eq!(plan_pipelines(3).len(), 3);
        assert_eq!(plan_pipelines(4).len(), 6);
        assert_eq!(plan_pipelines(5).len(), 10);
    }

    #[test]
    fn pipesort_matches_naive() {
        let r = rel(500);
        for spec in [
            AggSpec::Count,
            AggSpec::Sum,
            AggSpec::Min,
            AggSpec::Max,
            AggSpec::Avg,
        ] {
            let a = pipesort(&r, spec);
            let b = naive_cube(&r, spec);
            assert!(a.approx_eq(&b, 1e-9), "{spec:?}: {:?}", a.diff(&b, 1e-9, 5));
        }
    }

    #[test]
    fn pipesort_matches_buc_on_strings() {
        let mut r = Relation::empty(Schema::new(["name", "city"], "sales").unwrap());
        for i in 0..200usize {
            r.push_row(
                vec![
                    ["laptop", "mouse", "printer"][i % 3].into(),
                    ["Rome", "Paris"][i % 2].into(),
                ],
                i as f64,
            );
        }
        let a = pipesort(&r, AggSpec::Sum);
        let b = crate::buc(&r, AggSpec::Sum, &crate::BucConfig::default());
        assert!(a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(Schema::synthetic(2));
        assert!(pipesort(&r, AggSpec::Count).is_empty());
    }

    #[test]
    fn single_tuple_produces_full_lattice() {
        let mut r = Relation::empty(Schema::synthetic(3));
        r.push_row(vec![Value::Int(1), Value::Int(2), Value::Int(3)], 5.0);
        let c = pipesort(&r, AggSpec::Sum);
        assert_eq!(c.len(), 8);
        for (_, v) in c.iter() {
            assert_eq!(v.number(), 5.0);
        }
    }
}
