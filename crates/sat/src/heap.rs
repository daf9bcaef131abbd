//! Indexed max-heap over variable activities (the VSIDS order).

use crate::Var;

/// A binary max-heap of variables keyed by external activity scores, with
/// O(log n) insert/remove and O(1) membership tests.
#[derive(Debug, Clone, Default)]
pub(crate) struct VarHeap {
    /// Heap array of variable indices.
    heap: Vec<u32>,
    /// `position[v]` = index of `v` in `heap`, or `usize::MAX` if absent.
    position: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl VarHeap {
    pub(crate) fn with_vars(n: usize) -> Self {
        VarHeap {
            heap: Vec::with_capacity(n),
            position: vec![ABSENT; n],
        }
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub(crate) fn contains(&self, v: Var) -> bool {
        self.position.get(v.index()).is_some_and(|&p| p != ABSENT)
    }

    pub(crate) fn grow(&mut self, n: usize) {
        if self.position.len() < n {
            self.position.resize(n, ABSENT);
        }
    }

    pub(crate) fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.grow(v.index() + 1);
        let i = self.heap.len();
        self.heap.push(v.0);
        self.position[v.index()] = i;
        self.sift_up(i, activity);
    }

    pub(crate) fn pop_max(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("nonempty");
        self.position[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(Var(top))
    }

    /// Restores heap order for `v` after its activity increased.
    pub(crate) fn update(&mut self, v: Var, activity: &[f64]) {
        if let Some(&p) = self.position.get(v.index()) {
            if p != ABSENT {
                self.sift_up(p, activity);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i] as usize] > activity[self.heap[parent] as usize] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && activity[self.heap[l] as usize] > activity[self.heap[best] as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && activity[self.heap[r] as usize] > activity[self.heap[best] as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.position[self.heap[a] as usize] = a;
        self.position[self.heap[b] as usize] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let activity = [3.0, 1.0, 4.0, 1.5, 9.0];
        let mut h = VarHeap::with_vars(5);
        for i in 0..5 {
            h.insert(Var::from_index(i), &activity);
        }
        let order: Vec<usize> = std::iter::from_fn(|| h.pop_max(&activity))
            .map(Var::index)
            .collect();
        assert_eq!(order, vec![4, 2, 0, 3, 1]);
        assert!(h.is_empty());
    }

    #[test]
    fn reinsert_is_idempotent() {
        let activity = [1.0, 2.0];
        let mut h = VarHeap::with_vars(2);
        let v = Var::from_index(1);
        h.insert(v, &activity);
        h.insert(v, &activity);
        assert_eq!(h.pop_max(&activity), Some(v));
        assert_ne!(h.pop_max(&activity), Some(v));
    }

    #[test]
    fn update_after_bump() {
        let mut activity = [1.0, 2.0, 3.0];
        let mut h = VarHeap::with_vars(3);
        for i in 0..3 {
            h.insert(Var::from_index(i), &activity);
        }
        activity[0] = 10.0;
        h.update(Var::from_index(0), &activity);
        assert_eq!(h.pop_max(&activity), Some(Var::from_index(0)));
    }

    #[test]
    fn contains_tracks_membership() {
        let activity = [1.0];
        let mut h = VarHeap::with_vars(1);
        let v = Var::from_index(0);
        assert!(!h.contains(v));
        h.insert(v, &activity);
        assert!(h.contains(v));
        h.pop_max(&activity);
        assert!(!h.contains(v));
    }
}
