//! Trajectory removal.
//!
//! The paper only discusses insertion (§III-C); a production index needs the
//! inverse. `remove` locates each item of a trajectory by the same `O(h)`
//! straddle-or-descend routing used at insert time (the descent of
//! Algorithm 1) — geometry names the one node that can hold it, and a keyed
//! binary search finds it there — deletes it by rewriting the one run of
//! ≤ 2β items that held it, and subtracts its service-bound contribution
//! from the `sub` aggregates along the path so the kMaxRRST bounds
//! (Algorithms 3/4) stay admissible.
//!
//! Removal also restores the tree's **canonical shape** — the invariant
//! that a node has children iff its subtree holds more than β items, which
//! is exactly what bulk construction produces:
//!
//! * a leaf whose list empties is unlinked from its parent and its arena
//!   slot reclaimed onto the free list (reused by later inserts);
//! * when the removal shrinks an ancestor's subtree to ≤ β items, that
//!   subtree is **collapsed** back into a single leaf: descendant items are
//!   gathered, the node's list is rebuilt through the normal construction
//!   path, and its `own`/`sub` bounds are recomputed *exactly* from the
//!   surviving items — discarding any floating-point drift the incremental
//!   `sub` subtraction accumulated.
//!
//! Together with the matching split rule on insert this makes the tree
//! shape a pure function of the stored item multiset: insert-then-remove of
//! the same trajectories restores the pre-insert structural statistics
//! bit-for-bit (`tests/index_invariants.rs` asserts it as a property).
//!
//! Removal does not reuse trajectory ids: the [`UserSet`] only grows, and
//! the tree simply stops referring to the trajectory. Once the tree (and
//! whatever else still needs its points) is done with it the caller
//! [retires](UserSet::retire) the id — it stays assigned, keeping every
//! `TrajectoryId` stable, while the points are given up.

use super::build::{child_quadrant, items_of, make_list};
use super::item::StoredItem;
use super::{NodeId, QNode, TqTree, ROOT};
use crate::service::ServiceBounds;
use std::sync::Arc;
use tq_trajectory::{TrajectoryId, UserSet};

/// Errors returned by [`TqTree::remove`].
#[derive(Debug, PartialEq, Eq)]
pub enum RemoveError {
    /// The trajectory id is not indexed (never inserted or already removed).
    NotFound,
}

impl std::fmt::Display for RemoveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoveError::NotFound => write!(f, "trajectory not present in the index"),
        }
    }
}

impl std::error::Error for RemoveError {}

impl TqTree {
    /// Removes every indexed item of trajectory `id` from the tree.
    ///
    /// `users` must be the set the tree was built over; the trajectory
    /// itself stays in the set (ids are stable), it merely stops being
    /// indexed. Returns [`RemoveError::NotFound`] when nothing was indexed
    /// under that id — the tree is unchanged in that case.
    pub fn remove(&mut self, users: &UserSet, id: TrajectoryId) -> Result<(), RemoveError> {
        if (id as usize) >= users.len() {
            return Err(RemoveError::NotFound);
        }
        let items: Vec<StoredItem> =
            items_of(id, users.get(id), self.config().placement).collect();
        // Dry-run location pass first so a missing item leaves the tree
        // untouched (all-or-nothing semantics).
        for it in &items {
            if self.locate(it).is_none() {
                return Err(RemoveError::NotFound);
            }
        }
        let beta = self.config().beta;
        for it in &items {
            // Re-locate per item: collapses triggered by earlier items of
            // the same trajectory may have moved later items up the tree.
            let node = self.locate(it).expect("verified by the dry run");
            let bounds = it.bounds(users);
            // Subtract from every subtree bound on the path, recording the
            // path for the structural maintenance below.
            let mut path = Vec::with_capacity(self.node(node).depth as usize + 1);
            let mut cur = ROOT;
            loop {
                path.push(cur);
                let n = self.node_mut(cur);
                n.sub.s1 -= bounds.s1;
                n.sub.s2 -= bounds.s2;
                n.sub.s3 -= bounds.s3;
                if cur == node {
                    n.own.s1 -= bounds.s1;
                    n.own.s2 -= bounds.s2;
                    n.own.s3 -= bounds.s3;
                    break;
                }
                let q = child_quadrant(&n.rect, it).expect("located via this path");
                cur = n.children[q].expect("located via this path");
            }
            // Delete from the node list: one run is rewritten.
            let n = self.node_mut(node);
            let removed = n.list.remove_item(it, beta);
            debug_assert!(removed, "locate() said the item was here");
            // An emptied node's own bound is exactly zero — reset it rather
            // than carrying subtraction drift.
            if n.list.is_empty() {
                n.own = ServiceBounds::ZERO;
            }
            self.item_count -= 1;
            self.restore_shape(&path, users);
        }
        Ok(())
    }

    /// Restores the canonical shape along a removal path: reclaims emptied
    /// leaves bottom-up, then collapses the highest ancestor whose subtree
    /// shrank to ≤ β items back into a single leaf.
    fn restore_shape(&mut self, path: &[NodeId], users: &UserSet) {
        // Reclaim emptied leaves (deepest first; unlinking one may leave the
        // parent an empty leaf in turn).
        for w in (1..path.len()).rev() {
            let (parent, child) = (path[w - 1], path[w]);
            let n = self.node(child);
            if n.is_leaf() && n.list.is_empty() {
                let slot = self
                    .node_mut(parent)
                    .children
                    .iter_mut()
                    .find(|c| **c == Some(child))
                    .expect("path child is linked from its parent");
                *slot = None;
                self.release_node(child);
            }
        }
        // Collapse the highest ancestor now holding ≤ β subtree items; its
        // descendants are subsumed, so one collapse per removal suffices.
        let beta = self.config().beta;
        for &id in path {
            if self.node(id).dead || self.node(id).is_leaf() {
                continue;
            }
            if self.subtree_items_capped(id, beta).is_some() {
                self.collapse(id, users);
                break;
            }
        }
    }

    /// Collapses the subtree of `id` into a single leaf: gathers every item
    /// stored below, reclaims the descendant nodes, rebuilds the list via
    /// the normal construction path and recomputes the bounds exactly.
    fn collapse(&mut self, id: NodeId, users: &UserSet) {
        let node = self.node(id);
        let (rect, depth, children) = (node.rect, node.depth, node.children);
        let mut items = node.list.items().to_vec();
        for child in children.into_iter().flatten() {
            self.drain_subtree(child, &mut items);
        }
        let mut own = ServiceBounds::ZERO;
        for it in &items {
            own.add(&it.bounds(users));
        }
        self.nodes[id as usize] = Arc::new(QNode {
            rect,
            depth,
            children: [None; 4],
            list: make_list(self.config(), rect, items),
            own,
            sub: own,
            dead: false,
        });
    }

    /// Copies every item of the subtree of `id` into `out` and reclaims the
    /// subtree's arena slots.
    fn drain_subtree(&mut self, id: NodeId, out: &mut Vec<StoredItem>) {
        let node = self.node(id);
        let children = node.children;
        out.extend(node.list.items());
        for child in children.into_iter().flatten() {
            self.drain_subtree(child, out);
        }
        self.release_node(id);
    }

    /// Finds the node storing `item` by geometry: by the shape invariant
    /// ([`TqTree::validate`], check 6) an item lives at the first node on
    /// its placement descent that is a leaf or whose children it straddles,
    /// so only that node's list is searched — by key, not by scanning.
    fn locate(&self, item: &StoredItem) -> Option<NodeId> {
        let mut cur = ROOT;
        loop {
            let node = self.node(cur);
            let quadrant = if node.is_leaf() {
                None
            } else {
                child_quadrant(&node.rect, item)
            };
            match quadrant {
                None => return node.list.contains(item).then_some(cur),
                Some(q) => cur = node.children[q]?,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Placement, Storage, TqTreeConfig};
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use tq_geometry::{Point, Rect};
    use tq_trajectory::Trajectory;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn random_users(n: usize, seed: u64) -> UserSet {
        let mut rng = StdRng::seed_from_u64(seed);
        UserSet::from_vec(
            (0..n)
                .map(|_| {
                    Trajectory::two_point(
                        p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                        p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn remove_then_queries_ignore_trajectory() {
        let users = random_users(200, 1);
        let mut tree = TqTree::build(&users, TqTreeConfig::default().with_beta(8));
        // Remove half the trajectories.
        for id in 0..100u32 {
            tree.remove(&users, id).unwrap();
        }
        assert_eq!(tree.item_count(), 100);
        // A rebuilt tree over the remainder answers identically.
        let remainder =
            UserSet::from_vec(users.iter().skip(100).map(|(_, t)| t.clone()).collect());
        let rebuilt = TqTree::build_with_bounds(
            &remainder,
            TqTreeConfig::default().with_beta(8),
            tree.bounds(),
        );
        let model = crate::service::ServiceModel::new(crate::service::Scenario::Transit, 8.0);
        let f = tq_trajectory::Facility::new(vec![p(30.0, 30.0), p(60.0, 60.0)]);
        let a = crate::eval::evaluate_service(&tree, &users, &model, &f).value;
        let b = crate::eval::evaluate_service(&rebuilt, &remainder, &model, &f).value;
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn remove_twice_errors_and_leaves_tree_intact() {
        let users = random_users(50, 2);
        let mut tree = TqTree::build(&users, TqTreeConfig::default().with_beta(4));
        tree.remove(&users, 7).unwrap();
        assert_eq!(tree.remove(&users, 7), Err(RemoveError::NotFound));
        assert_eq!(tree.item_count(), 49);
        assert_eq!(tree.remove(&users, 9999), Err(RemoveError::NotFound));
    }

    #[test]
    fn remove_updates_bounds_consistently() {
        let users = random_users(120, 3);
        for storage in [Storage::Basic, Storage::ZOrder] {
            let cfg = TqTreeConfig {
                beta: 8,
                storage,
                placement: Placement::TwoPoint,
                max_depth: 12,
            };
            let mut tree = TqTree::build(&users, cfg);
            let mut rng = StdRng::seed_from_u64(9);
            let mut removed = std::collections::HashSet::new();
            for _ in 0..60 {
                let id = rng.gen_range(0..120u32);
                if removed.insert(id) {
                    tree.remove(&users, id).unwrap();
                }
            }
            // validate() recomputes bound aggregation; it must still hold
            // (within FP tolerance) even though items are gone. item counts
            // won't match the full user set, so check bounds directly.
            let root_sub = tree.node(ROOT).sub;
            assert!((root_sub.s1 - (120 - removed.len()) as f64).abs() < 1e-6);
            assert_eq!(tree.item_count(), 120 - removed.len());
        }
    }

    #[test]
    fn remove_segmented_trajectories() {
        let users = UserSet::from_vec(
            (0..30)
                .map(|i| {
                    let b = i as f64;
                    Trajectory::new(vec![p(b, b), p(b + 1.0, b), p(b + 1.0, b + 1.0)])
                })
                .collect(),
        );
        let cfg = TqTreeConfig {
            beta: 4,
            storage: Storage::ZOrder,
            placement: Placement::Segmented,
            max_depth: 10,
        };
        let mut tree = TqTree::build(&users, cfg);
        assert_eq!(tree.item_count(), 60);
        tree.remove(&users, 5).unwrap();
        assert_eq!(tree.item_count(), 58);
        tree.remove(&users, 6).unwrap();
        assert_eq!(tree.item_count(), 56);
        assert_eq!(tree.remove(&users, 5), Err(RemoveError::NotFound));
    }

    #[test]
    fn removing_everything_collapses_to_an_empty_root_leaf() {
        let users = random_users(300, 21);
        for storage in [Storage::Basic, Storage::ZOrder] {
            let cfg = TqTreeConfig {
                beta: 8,
                storage,
                placement: Placement::TwoPoint,
                max_depth: 12,
            };
            let mut tree = TqTree::build(&users, cfg);
            assert!(tree.node_count() > 1, "setup: tree must have split");
            for id in 0..users.len() as u32 {
                tree.remove(&users, id).unwrap();
            }
            assert_eq!(tree.item_count(), 0);
            assert_eq!(tree.node_count(), 1, "all non-root nodes reclaimed");
            assert!(tree.node(ROOT).is_leaf());
            assert_eq!(tree.node(ROOT).sub, crate::service::ServiceBounds::ZERO);
            tree.validate_with_count(&users, 0).unwrap();
        }
    }

    #[test]
    fn reclaimed_slots_are_reused_by_later_inserts() {
        let users0 = random_users(200, 22);
        let mut users = users0.clone();
        let cfg = TqTreeConfig {
            beta: 4,
            storage: Storage::ZOrder,
            placement: Placement::TwoPoint,
            max_depth: 12,
        };
        let mut tree =
            TqTree::build_with_bounds(&users, cfg, Rect::new(p(0.0, 0.0), p(100.0, 100.0)));
        let arena_before = tree.nodes.len();
        // Churn: repeatedly insert a batch and remove it again. The arena
        // must not grow beyond one batch worth of slots.
        for round in 0..5 {
            let extra = random_users(50, 100 + round);
            let mut ids = Vec::new();
            for (_, t) in extra.iter() {
                ids.push(tree.insert(&mut users, t.clone()).unwrap());
            }
            for id in ids {
                tree.remove(&users, id).unwrap();
            }
            tree.validate_with_count(&users, 200).unwrap();
        }
        assert_eq!(tree.item_count(), 200);
        assert!(
            tree.nodes.len() <= arena_before + 64,
            "arena grew from {arena_before} to {} despite slot reuse",
            tree.nodes.len()
        );
    }

    #[test]
    fn collapse_restores_structural_stats() {
        let users0 = random_users(400, 23);
        let mut users = users0.clone();
        let cfg = TqTreeConfig {
            beta: 8,
            storage: Storage::ZOrder,
            placement: Placement::TwoPoint,
            max_depth: 12,
        };
        let mut tree =
            TqTree::build_with_bounds(&users, cfg, Rect::new(p(0.0, 0.0), p(100.0, 100.0)));
        let mut before = tree.stats();
        let extra = random_users(120, 24);
        let mut ids = Vec::new();
        for (_, t) in extra.iter() {
            ids.push(tree.insert(&mut users, t.clone()).unwrap());
        }
        for id in ids {
            tree.remove(&users, id).unwrap();
        }
        let mut after = tree.stats();
        // The arena capacity may have grown; everything structural must be
        // back exactly.
        before.memory_bytes = 0;
        after.memory_bytes = 0;
        assert_eq!(before, after);
        tree.validate_with_count(&users, 400).unwrap();
    }

    #[test]
    fn insert_remove_roundtrip_preserves_answers() {
        let users0 = random_users(150, 4);
        let bounds = Rect::new(p(0.0, 0.0), p(100.0, 100.0));
        let mut users = users0.clone();
        let mut tree = TqTree::build_with_bounds(
            &users,
            TqTreeConfig::default().with_beta(8),
            bounds,
        );
        // Insert 30 extra then remove them again.
        let extra = random_users(30, 5);
        let mut ids = Vec::new();
        for (_, t) in extra.iter() {
            ids.push(tree.insert(&mut users, t.clone()).unwrap());
        }
        for id in ids {
            tree.remove(&users, id).unwrap();
        }
        assert_eq!(tree.item_count(), 150);
        let reference =
            TqTree::build_with_bounds(&users0, TqTreeConfig::default().with_beta(8), bounds);
        let model = crate::service::ServiceModel::new(crate::service::Scenario::Transit, 6.0);
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let f = tq_trajectory::Facility::new(vec![
                p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
            ]);
            let a = crate::eval::evaluate_service(&tree, &users, &model, &f).value;
            let b = crate::eval::evaluate_service(&reference, &users0, &model, &f).value;
            assert!((a - b).abs() < 1e-9);
        }
    }
}
