//! Bounded, tenant-fair admission queue.
//!
//! Admission control and fairness live here, decoupled from the socket
//! and worker machinery:
//!
//! * **Bounded**: [`FairQueue::push`] never blocks and never buffers
//!   beyond the configured depth — a full queue is an immediate
//!   [`PushError::Full`], which the server translates into a structured
//!   `overloaded` reply. Backpressure, not unbounded memory growth.
//! * **Fair**: jobs are held in per-tenant FIFO lanes and dispensed
//!   round-robin across tenants, so a tenant that floods the queue gets
//!   its own lane deep, not everyone else's latency. Within a tenant,
//!   order is preserved.
//! * **Drainable**: [`FairQueue::close`] stops admission but lets
//!   already-admitted work drain; [`FairQueue::pop`] returns `None`
//!   only once the queue is both closed and empty.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex, PoisonError};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; shed the request.
    Full,
    /// The queue is closed (drain in progress); no new admissions.
    Closed,
}

struct State<T> {
    /// One FIFO lane per tenant with queued work.
    lanes: BTreeMap<String, VecDeque<T>>,
    /// Round-robin rotation over tenants with non-empty lanes.
    rotation: VecDeque<String>,
    /// Total queued items across all lanes.
    len: usize,
    closed: bool,
}

/// A bounded multi-tenant queue with round-robin dispatch.
pub struct FairQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> FairQueue<T> {
    /// Creates a queue admitting at most `capacity` items in total.
    pub fn new(capacity: usize) -> FairQueue<T> {
        FairQueue {
            state: Mutex::new(State {
                lanes: BTreeMap::new(),
                rotation: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits `item` under `tenant`'s lane.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] once
    /// draining. Never blocks.
    pub fn push(&self, tenant: &str, item: T) -> Result<(), PushError> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.closed {
            return Err(PushError::Closed);
        }
        if s.len >= self.capacity {
            return Err(PushError::Full);
        }
        let lane = s.lanes.entry(tenant.to_owned()).or_default();
        let was_empty = lane.is_empty();
        lane.push_back(item);
        s.len += 1;
        if was_empty {
            s.rotation.push_back(tenant.to_owned());
        }
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Takes the next item, rotating across tenant lanes. Blocks while
    /// the queue is open and empty; returns `None` once closed *and*
    /// drained.
    pub fn pop(&self) -> Option<(String, T)> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if s.len > 0 {
                let tenant = s.rotation.pop_front().expect("rotation tracks lanes");
                let lane = s.lanes.get_mut(&tenant).expect("rotation tracks lanes");
                let item = lane.pop_front().expect("lanes in rotation are non-empty");
                if lane.is_empty() {
                    s.lanes.remove(&tenant);
                } else {
                    s.rotation.push_back(tenant.clone());
                }
                s.len -= 1;
                return Some((tenant, item));
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops admission. Queued work still drains; blocked `pop`s wake.
    pub fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_one_tenant() {
        let q = FairQueue::new(8);
        for i in 0..4 {
            q.push("t", i).unwrap();
        }
        q.close();
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, i)| i)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_across_tenants() {
        let q = FairQueue::new(16);
        // A floods first; B and C each queue one item afterwards.
        for i in 0..4 {
            q.push("a", format!("a{i}")).unwrap();
        }
        q.push("b", "b0".to_owned()).unwrap();
        q.push("c", "c0".to_owned()).unwrap();
        q.close();
        let order: Vec<String> = std::iter::from_fn(|| q.pop().map(|(_, i)| i)).collect();
        // The flood does not starve b/c: they are served on the first
        // rotation, interleaved with a's lane.
        assert_eq!(order, vec!["a0", "b0", "c0", "a1", "a2", "a3"]);
    }

    #[test]
    fn bounded_admission_rejects_overload() {
        let q = FairQueue::new(2);
        q.push("t", 1).unwrap();
        q.push("u", 2).unwrap();
        assert_eq!(q.push("t", 3), Err(PushError::Full));
        // Shedding frees nothing; consuming does.
        let _ = q.pop().unwrap();
        q.push("t", 3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_rejects_new_but_drains_queued() {
        let q = FairQueue::new(4);
        q.push("t", 1).unwrap();
        q.close();
        assert_eq!(q.push("t", 2), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(("t".to_owned(), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q = Arc::new(FairQueue::<i32>::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }
}
