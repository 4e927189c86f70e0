//! The planner: lowers a [`Query`] AST into a physical plan DAG.
//!
//! Every request, whatever its shape, runs through this DAG and one
//! executor ([`crate::engine`]). Every AND-chain of terms becomes a
//! [`PlanNode::Chain`] — a plain term conjunction is a single root chain
//! — and every union, difference, and phrase check becomes its own
//! operator node with a cardinality estimate. The plan carries no
//! placement: the executor applies the request's [`crate::ExecMode`] to
//! each chain, and under [`crate::ExecMode::Hybrid`] the scheduler
//! decides CPU, GPU or split per intersection as the chain runs. Set
//! operations run on the host: the device exposes no set-op
//! kernels, and for the intermediate sizes the planner estimates, a
//! device set-op would pay two PCIe round-trips that dwarf the
//! `~cpu_ns_per_elem` host merge — the same Fig. 7 reasoning that keeps
//! final ranking on the CPU.
//!
//! # Scoring semantics (the bit-exactness contract)
//!
//! f32 addition is not associative, so the fold order *is* the result.
//! Every execution mode follows the orders fixed here, and the
//! brute-force reference in `tests/plan_properties.rs` mirrors them:
//!
//! * **Chain** (`AND` of terms): terms sorted by ascending document
//!   frequency (stable — ties keep AST order); the score accumulates one
//!   BM25 contribution per intersection step, in that planned order.
//! * **Phrase**: scored exactly like the chain of its terms (df-sorted),
//!   then filtered by the positional check (which never changes scores).
//! * **And** (mixed): the term children form one chain, evaluated first;
//!   each complex child then intersects in AST order, adding its score
//!   (`chain + c1 + c2 + …`).
//! * **Or**: children union left-to-right in AST order; where arms
//!   overlap the scores add (`a + b`, left operand first).
//! * **Not**: keeps the left child's docids and scores unchanged.

use griffin_index::{InvertedIndex, TermId};

use crate::query::Query;

/// One operator of the physical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// An AND-chain of terms, df-sorted. The executor runs it under the
    /// request's mode: on the host, wholly on the device, or — under
    /// [`crate::ExecMode::Hybrid`] — through the per-step scheduler,
    /// which may migrate or split individual intersections.
    Chain { terms: Vec<TermId>, est: usize },
    /// A phrase: its term chain (run like [`PlanNode::Chain`]) followed
    /// by the host-side positional adjacency check (the positions
    /// side-file is host-resident).
    Phrase { terms: Vec<TermId>, est: usize },
    /// Intersection of sub-plans (a mixed AND). Children keep AST order;
    /// the set intersection itself runs on the host.
    Intersect { children: Vec<PlanNode>, est: usize },
    /// Union of sub-plans, folded left-to-right on the host.
    Union { children: Vec<PlanNode>, est: usize },
    /// Left sub-plan minus right sub-plan, on the host.
    Difference {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        est: usize,
    },
    /// Matches nothing.
    Empty,
}

impl PlanNode {
    /// The planner's cardinality estimate (an upper bound).
    pub fn est(&self) -> usize {
        match self {
            PlanNode::Chain { est, .. }
            | PlanNode::Phrase { est, .. }
            | PlanNode::Intersect { est, .. }
            | PlanNode::Union { est, .. }
            | PlanNode::Difference { est, .. } => *est,
            PlanNode::Empty => 0,
        }
    }
}

/// Lowers normalized [`Query`] trees against one index.
pub struct Planner<'a> {
    pub index: &'a InvertedIndex,
}

impl Planner<'_> {
    /// Plans a normalized query into its root operator. Cardinality
    /// estimates: a term is its document frequency; an intersection is
    /// its smallest child; a union is the clipped sum; a difference is
    /// its left child.
    pub fn plan(&self, q: &Query) -> PlanNode {
        match q {
            Query::Nothing => PlanNode::Empty,
            Query::Term(t) => self.chain(vec![*t]),
            Query::Phrase(ts) => {
                // The phrase keeps its ORIGINAL term order — the
                // positional check is order-sensitive; the chain
                // executors df-sort internally for the intersections.
                let est = ts
                    .iter()
                    .map(|&t| self.index.doc_freq(t))
                    .min()
                    .unwrap_or(0);
                PlanNode::Phrase {
                    terms: ts.clone(),
                    est,
                }
            }
            Query::And(children) => {
                let mut terms = Vec::new();
                let mut complex = Vec::new();
                for c in children {
                    match c {
                        Query::Term(t) => terms.push(*t),
                        other => complex.push(other),
                    }
                }
                let mut nodes = Vec::with_capacity(1 + complex.len());
                if !terms.is_empty() {
                    nodes.push(self.chain(terms));
                }
                for c in complex {
                    nodes.push(self.plan(c));
                }
                match nodes.len() {
                    0 => PlanNode::Empty,
                    1 => nodes.pop().expect("len checked"),
                    _ => {
                        let est = nodes.iter().map(PlanNode::est).min().unwrap_or(0);
                        PlanNode::Intersect {
                            children: nodes,
                            est,
                        }
                    }
                }
            }
            Query::Or(children) => {
                let nodes: Vec<PlanNode> = children.iter().map(|c| self.plan(c)).collect();
                let est = nodes
                    .iter()
                    .map(PlanNode::est)
                    .sum::<usize>()
                    .min(self.index.num_docs() as usize);
                PlanNode::Union {
                    children: nodes,
                    est,
                }
            }
            Query::Not(a, b) => {
                let left = self.plan(a);
                let right = self.plan(b);
                let est = left.est();
                PlanNode::Difference {
                    left: Box::new(left),
                    right: Box::new(right),
                    est,
                }
            }
        }
    }

    /// Builds a chain node: df-sorts the terms (stable, like the CPU
    /// engine's own plan) and estimates the intersection by its first
    /// list.
    fn chain(&self, mut terms: Vec<TermId>) -> PlanNode {
        // scoring_df: the chain order fixes the score fold order, so a
        // shard view must sort by the same global dfs as the unsharded
        // index. The estimate stays on the local list length — it steers
        // no result.
        terms.sort_by_key(|&t| self.index.scoring_df(t));
        let est = self.index.doc_freq(terms[0]);
        PlanNode::Chain { terms, est }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_codec::Codec;
    use griffin_index::InvertedIndex;

    fn idx() -> InvertedIndex {
        // t0: 4 docs, t1: 3 docs, t2: 2 docs.
        let lists: Vec<Vec<u32>> = vec![vec![0, 1, 2, 3], vec![0, 2, 4], vec![1, 3]];
        InvertedIndex::from_docid_lists(&lists, 10, Codec::EliasFano, 128)
    }

    fn tid(i: &InvertedIndex, n: usize) -> TermId {
        i.lookup(&format!("t{n}")).unwrap()
    }

    #[test]
    fn chains_are_df_sorted_and_estimated_by_shortest() {
        let i = idx();
        let planner = Planner { index: &i };
        let q = Query::And(vec![
            Query::Term(tid(&i, 0)),
            Query::Term(tid(&i, 2)),
            Query::Term(tid(&i, 1)),
        ])
        .normalize();
        match planner.plan(&q) {
            PlanNode::Chain { terms, est } => {
                assert_eq!(terms, &[tid(&i, 2), tid(&i, 1), tid(&i, 0)]);
                assert_eq!(est, 2);
            }
            other => panic!("expected a chain, got {other:?}"),
        }
    }

    #[test]
    fn mixed_and_keeps_ast_order_after_the_chain() {
        let i = idx();
        let planner = Planner { index: &i };
        let or = Query::Or(vec![Query::Term(tid(&i, 1)), Query::Term(tid(&i, 2))]);
        let q = Query::And(vec![or.clone(), Query::Term(tid(&i, 0))]).normalize();
        match planner.plan(&q) {
            PlanNode::Intersect { children, est } => {
                assert!(matches!(children[0], PlanNode::Chain { .. }));
                assert!(matches!(children[1], PlanNode::Union { .. }));
                // est = min(chain est 4, union est min(3+2, 10) = 5) = 4.
                assert_eq!(est, 4);
            }
            other => panic!("expected an intersect, got {other:?}"),
        }
    }

    #[test]
    fn union_difference_and_phrase_estimates() {
        let i = idx();
        let planner = Planner { index: &i };
        let q = Query::Not(
            Box::new(Query::Or(vec![
                Query::Term(tid(&i, 0)),
                Query::Term(tid(&i, 1)),
            ])),
            Box::new(Query::Phrase(vec![tid(&i, 1), tid(&i, 2)])),
        )
        .normalize();
        match planner.plan(&q) {
            PlanNode::Difference { left, right, est } => {
                assert_eq!(left.est(), 7, "clipped sum of the union arms");
                assert_eq!(est, 7, "difference estimated by its left side");
                match right.as_ref() {
                    PlanNode::Phrase { terms, est } => {
                        // Phrase order is preserved (not df-sorted).
                        assert_eq!(terms, &[tid(&i, 1), tid(&i, 2)]);
                        assert_eq!(*est, 2);
                    }
                    other => panic!("expected a phrase, got {other:?}"),
                }
            }
            other => panic!("expected a difference, got {other:?}"),
        }
    }

    #[test]
    fn nothing_lowers_to_empty() {
        let i = idx();
        let planner = Planner { index: &i };
        assert_eq!(planner.plan(&Query::Nothing), PlanNode::Empty);
    }
}
