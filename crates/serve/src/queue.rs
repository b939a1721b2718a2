//! Bounded, priority-classed admission queue with load shedding.
//!
//! The queue is the server's only buffer: a request is either admitted
//! (and later dispatched or expired) or turned away at the door — there
//! is no unbounded backlog to stall the pool behind. Three invariants,
//! pinned property-style below, define it:
//!
//! 1. **Conservation** — every admitted request leaves exactly once, via
//!    dispatch or expiry; every rejected request is returned exactly once.
//! 2. **Priority FIFO** — dispatch order is priority class first
//!    ([`Priority::ALL`](crate::Priority::ALL) order), arrival order within a class.
//! 3. **Bounded** — `len() <= capacity()` always.

use std::collections::VecDeque;

use crate::request::{Request, PRIORITY_CLASSES};

/// The bounded admission queue. See the module docs for the invariants.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    classes: [VecDeque<Request>; PRIORITY_CLASSES],
    capacity: usize,
}

impl AdmissionQueue {
    /// An empty queue holding at most `capacity` requests across all
    /// priority classes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        AdmissionQueue {
            classes: Default::default(),
            capacity,
        }
    }

    /// Total queued requests.
    pub fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.classes.iter().all(VecDeque::is_empty)
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits `req`, or returns it unchanged when the queue is full —
    /// the load-shedding path: rejection is immediate and costs nothing
    /// downstream.
    pub fn try_admit(&mut self, req: Request) -> Result<(), Request> {
        if self.len() >= self.capacity {
            return Err(req);
        }
        self.classes[req.priority.index()].push_back(req);
        Ok(())
    }

    /// The request the next dispatch would start with: front of the
    /// highest-priority non-empty class.
    pub fn peek_next(&self) -> Option<&Request> {
        self.classes.iter().find_map(VecDeque::front)
    }

    /// Removes and returns the next request in priority-FIFO order.
    pub fn pop_next(&mut self) -> Option<Request> {
        self.classes
            .iter_mut()
            .find(|c| !c.is_empty())
            .and_then(VecDeque::pop_front)
    }

    /// Forms the batch for a dispatch starting at `start_ns`: walks the
    /// classes in priority order (FIFO within), taking up to `max_batch`
    /// dispatchable requests. A scanned request whose deadline has
    /// passed is culled into the second list instead (it never occupies
    /// a batch slot); one that arrives *after* `start_ns` is left queued
    /// — it cannot ride a batch that started before it existed. The scan
    /// stops as soon as the batch is full, so later requests keep their
    /// position (and their own expiry is judged at their own dispatch).
    ///
    /// Returns `(batch, expired)`; both preserve priority-FIFO order.
    pub fn take_batch(&mut self, start_ns: u64, max_batch: usize) -> (Vec<Request>, Vec<Request>) {
        let mut batch = Vec::new();
        let mut expired = Vec::new();
        for class in &mut self.classes {
            let mut kept = VecDeque::with_capacity(class.len());
            while let Some(req) = class.pop_front() {
                if batch.len() >= max_batch {
                    kept.push_back(req);
                } else if req.expired_at(start_ns) {
                    expired.push(req);
                } else if req.arrival_ns <= start_ns {
                    batch.push(req);
                } else {
                    kept.push_back(req);
                }
            }
            *class = kept;
            if batch.len() >= max_batch {
                break;
            }
        }
        (batch, expired)
    }

    /// Queued requests in dispatch order, for inspection.
    pub fn iter(&self) -> impl Iterator<Item = &Request> {
        self.classes.iter().flat_map(|c| c.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;
    use hermes_testkit::prelude::*;

    fn req(id: u64, priority: Priority, arrival_ns: u64) -> Request {
        Request::new(id, vec![0.0], priority, arrival_ns)
    }

    #[test]
    fn priority_classes_dispatch_in_order_fifo_within() {
        let mut q = AdmissionQueue::new(10);
        q.try_admit(req(1, Priority::Batch, 0)).unwrap();
        q.try_admit(req(2, Priority::Interactive, 1)).unwrap();
        q.try_admit(req(3, Priority::Standard, 2)).unwrap();
        q.try_admit(req(4, Priority::Interactive, 3)).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_next()).map(|r| r.id).collect();
        assert_eq!(order, vec![2, 4, 3, 1]);
    }

    #[test]
    fn full_queue_returns_the_request() {
        let mut q = AdmissionQueue::new(2);
        q.try_admit(req(1, Priority::Standard, 0)).unwrap();
        q.try_admit(req(2, Priority::Standard, 0)).unwrap();
        let rejected = q.try_admit(req(3, Priority::Interactive, 0)).unwrap_err();
        assert_eq!(rejected.id, 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn take_batch_culls_expired_and_skips_future_arrivals() {
        let mut q = AdmissionQueue::new(10);
        q.try_admit(req(1, Priority::Standard, 0).with_deadline_ns(50))
            .unwrap();
        q.try_admit(req(2, Priority::Standard, 10)).unwrap();
        q.try_admit(req(3, Priority::Standard, 200)).unwrap();
        let (batch, expired) = q.take_batch(100, 8);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), vec![2]);
        assert_eq!(expired.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_next().unwrap().id, 3);
    }

    #[test]
    fn take_batch_respects_max_batch_across_classes() {
        let mut q = AdmissionQueue::new(10);
        for id in 0..4 {
            q.try_admit(req(id, Priority::Batch, 0)).unwrap();
        }
        q.try_admit(req(9, Priority::Interactive, 0)).unwrap();
        let (batch, expired) = q.take_batch(10, 3);
        // The interactive request leads, then batch-class FIFO.
        assert_eq!(
            batch.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![9, 0, 1]
        );
        assert!(expired.is_empty());
        assert_eq!(q.len(), 2);
    }

    /// Reference model for the property suite: same semantics, written
    /// as the obvious O(n) list program.
    #[derive(Default)]
    struct ModelQueue {
        items: Vec<Request>,
        capacity: usize,
    }

    impl ModelQueue {
        fn admit(&mut self, req: Request) -> Result<(), Request> {
            if self.items.len() >= self.capacity {
                Err(req)
            } else {
                self.items.push(req);
                Ok(())
            }
        }

        fn pop(&mut self) -> Option<Request> {
            let pos = Priority::ALL
                .iter()
                .find_map(|p| self.items.iter().position(|r| r.priority == *p))?;
            Some(self.items.remove(pos))
        }
    }

    /// One randomized interleaving step: admit a request (with a
    /// priority and optional deadline drawn from the seed) or drain one.
    fn apply_ops(ops: &[(u64, u64)], capacity: usize) -> Result<(), String> {
        let mut q = AdmissionQueue::new(capacity);
        let mut model = ModelQueue {
            items: Vec::new(),
            capacity,
        };
        let mut next_id = 0u64;
        let mut admitted = Vec::new();
        let mut shed = Vec::new();
        let mut drained = Vec::new();
        for &(op, tag) in ops {
            if op % 3 < 2 {
                // Admit with a priority cycling through the classes.
                let priority = Priority::ALL[(tag % 3) as usize];
                let r = req(next_id, priority, tag);
                next_id += 1;
                let got = q.try_admit(r.clone());
                let want = model.admit(r.clone());
                prop_assert_eq!(got.is_ok(), want.is_ok());
                if got.is_ok() {
                    admitted.push(r.id);
                } else {
                    shed.push(r.id);
                }
            } else {
                let got = q.pop_next();
                let want = model.pop();
                prop_assert_eq!(&got, &want);
                if let Some(r) = got {
                    drained.push(r.id);
                }
            }
            prop_assert!(q.len() <= capacity, "capacity bound violated");
            prop_assert_eq!(q.len(), model.items.len());
        }
        // Conservation: drain the rest; every admitted id comes out
        // exactly once, shed ids never do.
        while let Some(r) = q.pop_next() {
            drained.push(r.id);
        }
        let mut sorted = drained.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert!(sorted.len() == drained.len(), "duplicate dispatch");
        let mut expected = admitted.clone();
        expected.sort_unstable();
        prop_assert_eq!(sorted, expected);
        for id in &shed {
            prop_assert!(!drained.contains(id), "shed request {id} was dispatched");
        }
        Ok(())
    }

    #[test]
    fn prop_queue_matches_model_across_interleavings() {
        check(
            "admission_queue_model",
            &tuple2(
                vec_of(tuple2(u64_in(0..1_000), u64_in(0..1_000)), 0..60),
                usize_in(1..9),
            ),
            |(ops, capacity)| apply_ops(ops, *capacity),
        );
    }

    #[test]
    fn prop_take_batch_loses_nothing_and_keeps_priority_fifo() {
        check(
            "take_batch_conservation",
            &tuple2(
                vec_of(tuple2(u64_in(0..200), u64_in(0..4)), 1..40),
                tuple2(u64_in(0..200), usize_in(1..6)),
            ),
            |(arrivals, (start_ns, max_batch))| {
                let mut q = AdmissionQueue::new(64);
                for (id, &(arrival, ptag)) in arrivals.iter().enumerate() {
                    let mut r = req(id as u64, Priority::ALL[(ptag % 3) as usize], arrival);
                    if ptag == 3 {
                        // Some requests carry a deadline near their arrival.
                        r = r.with_deadline_ns(arrival + 10);
                    }
                    q.try_admit(r).unwrap();
                }
                let before: Vec<u64> = q.iter().map(|r| r.id).collect();
                let (batch, expired) = q.take_batch(*start_ns, *max_batch);
                prop_assert!(batch.len() <= *max_batch);
                for r in &batch {
                    prop_assert!(r.arrival_ns <= *start_ns, "future request dispatched");
                    prop_assert!(!r.expired_at(*start_ns), "expired request dispatched");
                }
                for r in &expired {
                    prop_assert!(r.expired_at(*start_ns));
                }
                // Conservation: batch + expired + remaining == before, as sets.
                let mut all: Vec<u64> = batch
                    .iter()
                    .chain(&expired)
                    .map(|r| r.id)
                    .chain(q.iter().map(|r| r.id))
                    .collect();
                all.sort_unstable();
                let mut want = before.clone();
                want.sort_unstable();
                prop_assert_eq!(all, want);
                // Priority FIFO within the batch: class indices
                // non-decreasing, ids increasing within a class (ids
                // were admitted in increasing order).
                for w in batch.windows(2) {
                    prop_assert!(w[0].priority <= w[1].priority, "batch violates class order");
                    if w[0].priority == w[1].priority {
                        prop_assert!(w[0].id < w[1].id, "batch violates FIFO");
                    }
                }
                Ok(())
            },
        );
    }
}
