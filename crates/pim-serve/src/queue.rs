//! Priority work queue with per-tenant admission accounting.
//!
//! [`AdmissionQueue`] is the single-threaded core the daemon wraps in a
//! mutex: a max-heap ordered by `(priority, submission order)` plus the
//! outstanding-job ledgers that make admission decisions. Capacity and
//! quota are counted over *outstanding* jobs — admitted and not yet
//! emitted — not merely queued ones, so the numbers a client observes
//! are a pure function of the request sequence (see the determinism
//! argument in DESIGN.md §4.11): slots are released at drain barriers,
//! never at the whim of worker timing.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Why admission refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The daemon-wide outstanding-job cap is reached.
    OverCapacity,
    /// The tenant's outstanding-job cap is reached.
    OverQuota,
}

struct Entry<T> {
    priority: u8,
    seq: u64,
    job: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: higher priority first, then earlier submission.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The admission-controlled priority queue.
pub struct AdmissionQueue<T> {
    capacity: usize,
    quota: usize,
    heap: BinaryHeap<Entry<T>>,
    outstanding: usize,
    per_tenant: HashMap<String, usize>,
    seq: u64,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue admitting at most `capacity` outstanding jobs
    /// daemon-wide and `quota` per tenant.
    pub fn new(capacity: usize, quota: usize) -> Self {
        AdmissionQueue {
            capacity,
            quota,
            heap: BinaryHeap::new(),
            outstanding: 0,
            per_tenant: HashMap::new(),
            seq: 0,
        }
    }

    /// Checks admission for `tenant` without enqueuing anything.
    ///
    /// # Errors
    ///
    /// [`RejectReason::OverCapacity`] when the daemon-wide cap is
    /// reached (checked first), [`RejectReason::OverQuota`] when the
    /// tenant's cap is.
    pub fn admit(&mut self, tenant: &str) -> Result<(), RejectReason> {
        if self.outstanding >= self.capacity {
            return Err(RejectReason::OverCapacity);
        }
        let count = self.per_tenant.entry(tenant.to_string()).or_insert(0);
        if *count >= self.quota {
            return Err(RejectReason::OverQuota);
        }
        *count += 1;
        self.outstanding += 1;
        Ok(())
    }

    /// Enqueues an admitted job for the workers. Call [`Self::admit`]
    /// first; jobs that coalesce onto an in-flight cell are admitted
    /// but never pushed.
    pub fn push(&mut self, priority: u8, job: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { priority, seq, job });
    }

    /// Pops the highest-priority job (earliest submission among ties).
    pub fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|e| e.job)
    }

    /// Releases one outstanding slot for `tenant` — called at drain
    /// barriers when the job's response is emitted.
    pub fn release(&mut self, tenant: &str) {
        self.outstanding = self.outstanding.saturating_sub(1);
        if let Some(count) = self.per_tenant.get_mut(tenant) {
            *count = count.saturating_sub(1);
        }
    }

    /// Jobs admitted and not yet released.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_by_priority_then_submission_order() {
        let mut q = AdmissionQueue::new(16, 16);
        for (pri, tag) in [(1, "a"), (9, "b"), (4, "c"), (9, "d"), (0, "e")] {
            q.admit("t").unwrap();
            q.push(pri, tag);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec!["b", "d", "c", "a", "e"]);
    }

    #[test]
    fn capacity_is_daemon_wide_and_quota_per_tenant() {
        let mut q: AdmissionQueue<u32> = AdmissionQueue::new(4, 2);
        q.admit("t0").unwrap();
        q.admit("t0").unwrap();
        assert_eq!(q.admit("t0"), Err(RejectReason::OverQuota));
        q.admit("t1").unwrap();
        q.admit("t1").unwrap();
        assert_eq!(q.admit("t2"), Err(RejectReason::OverCapacity));
        assert_eq!(q.outstanding(), 4);
        q.release("t0");
        q.admit("t2").unwrap();
        assert_eq!(q.admit("t0"), Err(RejectReason::OverCapacity));
    }

    #[test]
    fn rejections_hold_no_slots() {
        let mut q: AdmissionQueue<u32> = AdmissionQueue::new(2, 1);
        q.admit("t0").unwrap();
        assert_eq!(q.admit("t0"), Err(RejectReason::OverQuota));
        assert_eq!(q.outstanding(), 1);
        q.admit("t1").unwrap();
        assert_eq!(q.admit("t2"), Err(RejectReason::OverCapacity));
        assert_eq!(q.outstanding(), 2);
    }

    #[test]
    fn priority_ties_at_capacity_pop_in_submission_order() {
        // Fill to exactly capacity with one shared priority: the heap
        // must fall back to submission order, and the admission at the
        // boundary must reject the same way every time.
        let mut q = AdmissionQueue::new(4, 4);
        for tag in ["a", "b", "c", "d"] {
            q.admit("t").unwrap();
            q.push(5, tag);
        }
        // Capacity is checked before quota, so at the boundary every
        // tenant — including the one also over quota — sees the same
        // daemon-wide reason.
        assert_eq!(q.admit("t"), Err(RejectReason::OverCapacity));
        assert_eq!(q.admit("u"), Err(RejectReason::OverCapacity));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn popping_does_not_free_slots_only_release_does() {
        // Admission counts outstanding (admitted, un-emitted) jobs:
        // a worker popping a job must not open the gate early — only
        // the drain-barrier release may.
        let mut q = AdmissionQueue::new(2, 2);
        q.admit("t").unwrap();
        q.push(1, "a");
        q.admit("t").unwrap();
        q.push(1, "b");
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.admit("t"), Err(RejectReason::OverCapacity));
        q.release("t");
        q.release("t");
        q.admit("t").unwrap();
        assert_eq!(q.outstanding(), 1);
    }

    #[test]
    fn release_frees_exactly_the_named_tenants_slot() {
        let mut q: AdmissionQueue<u32> = AdmissionQueue::new(4, 1);
        q.admit("t0").unwrap();
        q.admit("t1").unwrap();
        q.release("t0");
        // t0's slot came back; t1 is still at quota.
        q.admit("t0").unwrap();
        assert_eq!(q.admit("t1"), Err(RejectReason::OverQuota));
        // Over-releasing saturates the per-tenant counter instead of
        // wrapping, so the tenant's quota stays exactly `quota`.
        q.release("t1");
        q.release("t1");
        q.admit("t1").unwrap();
        assert_eq!(q.admit("t1"), Err(RejectReason::OverQuota));
    }

    #[test]
    fn admission_outcomes_are_independent_of_drain_permutation() {
        // The same admit/reject sequence must come out of any order of
        // barrier releases for the same multiset of released slots —
        // what worker-count permutations amount to at this layer.
        let run = |release_order: &[&str]| {
            let mut q: AdmissionQueue<u32> = AdmissionQueue::new(3, 2);
            let mut decisions = Vec::new();
            for t in ["a", "a", "b"] {
                decisions.push(q.admit(t).is_ok());
            }
            for t in release_order {
                q.release(t);
            }
            for t in ["a", "b", "b", "a"] {
                decisions.push(q.admit(t).is_ok());
            }
            decisions
        };
        let baseline = run(&["a", "a", "b"]);
        assert_eq!(run(&["b", "a", "a"]), baseline);
        assert_eq!(run(&["a", "b", "a"]), baseline);
    }
}
