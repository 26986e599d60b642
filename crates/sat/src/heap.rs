//! Indexed max-heap ordered by VSIDS activity.

/// A binary max-heap over variable indices, keyed by an external activity
/// array, supporting `decrease`-free `update` and membership queries —
/// the classic MiniSAT `Heap<VarOrderLt>`.
#[derive(Clone, Debug, Default)]
pub(crate) struct ActivityHeap {
    heap: Vec<u32>,
    /// position of each var in `heap`, or `ABSENT`
    index: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl ActivityHeap {
    pub fn new() -> Self {
        ActivityHeap::default()
    }

    /// Number of queued variables (test-only observability; the solver
    /// itself only pops and re-inserts).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn contains(&self, v: u32) -> bool {
        (v as usize) < self.index.len() && self.index[v as usize] != ABSENT
    }

    /// Empties the heap, keeping its allocations.
    pub fn clear(&mut self) {
        for &v in &self.heap {
            self.index[v as usize] = ABSENT;
        }
        self.heap.clear();
    }

    fn ensure(&mut self, v: u32) {
        if self.index.len() <= v as usize {
            self.index.resize(v as usize + 1, ABSENT);
        }
    }

    pub fn insert(&mut self, v: u32, activity: &[f64]) {
        self.ensure(v);
        if self.contains(v) {
            return;
        }
        self.index[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores heap order after `v`'s activity increased.
    pub fn bump(&mut self, v: u32, activity: &[f64]) {
        if self.contains(v) {
            let pos = self.index[v as usize] as usize;
            self.sift_up(pos, activity);
        }
    }

    pub fn pop_max(&mut self, activity: &[f64]) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty");
        self.index[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.index[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut pos: usize, activity: &[f64]) {
        let v = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let pv = self.heap[parent];
            if activity[v as usize] <= activity[pv as usize] {
                break;
            }
            self.heap[pos] = pv;
            self.index[pv as usize] = pos as u32;
            pos = parent;
        }
        self.heap[pos] = v;
        self.index[v as usize] = pos as u32;
    }

    fn sift_down(&mut self, mut pos: usize, activity: &[f64]) {
        let v = self.heap[pos];
        let n = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n
                && activity[self.heap[right] as usize] > activity[self.heap[left] as usize]
            {
                right
            } else {
                left
            };
            let cv = self.heap[child];
            if activity[cv as usize] <= activity[v as usize] {
                break;
            }
            self.heap[pos] = cv;
            self.index[cv as usize] = pos as u32;
            pos = child;
        }
        self.heap[pos] = v;
        self.index[v as usize] = pos as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![0.5, 3.0, 1.0, 2.0];
        let mut h = ActivityHeap::new();
        for v in 0..4 {
            h.insert(v, &activity);
        }
        assert_eq!(h.pop_max(&activity), Some(1));
        assert_eq!(h.pop_max(&activity), Some(3));
        assert_eq!(h.pop_max(&activity), Some(2));
        assert_eq!(h.pop_max(&activity), Some(0));
        assert_eq!(h.pop_max(&activity), None);
    }

    #[test]
    fn bump_reorders() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut h = ActivityHeap::new();
        for v in 0..3 {
            h.insert(v, &activity);
        }
        activity[0] = 10.0;
        h.bump(0, &activity);
        assert_eq!(h.pop_max(&activity), Some(0));
    }

    #[test]
    fn reinsert_is_idempotent() {
        let activity = vec![1.0, 2.0];
        let mut h = ActivityHeap::new();
        h.insert(0, &activity);
        h.insert(0, &activity);
        h.insert(1, &activity);
        assert_eq!(h.len(), 2);
        assert!(h.contains(0));
        h.pop_max(&activity);
        assert!(!h.contains(1));
        assert!(h.contains(0));
    }

    #[test]
    fn clear_empties_and_allows_reuse() {
        let activity = vec![1.0, 2.0, 3.0];
        let mut h = ActivityHeap::new();
        for v in 0..3 {
            h.insert(v, &activity);
        }
        h.clear();
        assert_eq!(h.len(), 0);
        assert!((0..3).all(|v| !h.contains(v)));
        assert_eq!(h.pop_max(&activity), None);
        h.insert(1, &activity);
        h.insert(2, &activity);
        assert_eq!(h.pop_max(&activity), Some(2));
        assert_eq!(h.pop_max(&activity), Some(1));
    }
}
