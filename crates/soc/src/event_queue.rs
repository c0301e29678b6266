//! A deterministic binary-heap event queue for the event-driven engine.
//!
//! Each actor (one per NCPU core) keeps at most one armed wakeup. The
//! queue orders wakeups by `(cycle, actor)`, so same-cycle events always
//! pop in ascending actor order — exactly the per-cycle core-index walk
//! of the lock-step engine, which is what makes the two engines emit
//! byte-identical event streams (DMA bookings and L2 arbitration both
//! resolve in that order).
//!
//! Re-arming an actor cancels its previous wakeup lazily: the stale heap
//! entry stays behind with an outdated generation number and is skipped
//! on pop. This keeps `arm` O(log n) without a decrease-key heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Deterministic wakeup queue keyed by `(cycle, actor)`.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    /// Min-heap of `(cycle, actor, generation)`. The generation breaks no
    /// ties (an actor has one live entry); it only marks stale entries.
    heap: BinaryHeap<Reverse<(u64, u16, u64)>>,
    /// Per-actor live wakeup: `(cycle, generation)` or `None`.
    armed: Vec<Option<(u64, u64)>>,
    next_gen: u64,
}

impl EventQueue {
    /// Creates a queue for `actors` actors, none armed.
    pub fn new(actors: usize) -> EventQueue {
        EventQueue {
            heap: BinaryHeap::new(),
            armed: vec![None; actors],
            next_gen: 0,
        }
    }

    /// Arms (or re-arms) `actor` to wake at `cycle`. A previously armed
    /// wakeup for the same actor is cancelled.
    ///
    /// # Panics
    ///
    /// Panics if `actor` is out of range.
    pub fn arm(&mut self, actor: u16, cycle: u64) {
        let gen = self.next_gen;
        self.next_gen += 1;
        self.armed[actor as usize] = Some((cycle, gen));
        self.heap.push(Reverse((cycle, actor, gen)));
    }

    /// Pops the earliest armed wakeup; ties pop in ascending actor order.
    pub fn pop(&mut self) -> Option<(u64, u16)> {
        self.drop_stale();
        let Reverse((cycle, actor, _)) = self.heap.pop()?;
        self.armed[actor as usize] = None;
        Some((cycle, actor))
    }

    /// Discards heap entries whose generation no longer matches the
    /// actor's live wakeup (re-armed).
    fn drop_stale(&mut self) {
        while let Some(Reverse((cycle, actor, gen))) = self.heap.peek() {
            match self.armed[*actor as usize] {
                Some((live_cycle, live_gen)) if live_gen == *gen => {
                    debug_assert_eq!(live_cycle, *cycle);
                    return;
                }
                _ => {
                    self.heap.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same-cycle wakeups pop in ascending actor order, regardless of
    /// arming order — the determinism the differential suite relies on.
    #[test]
    fn same_cycle_pops_in_actor_order() {
        let mut q = EventQueue::new(4);
        q.arm(3, 10);
        q.arm(0, 10);
        q.arm(2, 10);
        q.arm(1, 10);
        let order: Vec<(u64, u16)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(10, 0), (10, 1), (10, 2), (10, 3)]);
    }

    /// Cycles dominate actors: an earlier wakeup on a higher actor pops
    /// before a later wakeup on a lower actor.
    #[test]
    fn earlier_cycle_wins_over_lower_actor() {
        let mut q = EventQueue::new(2);
        q.arm(0, 20);
        q.arm(1, 5);
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), Some((20, 0)));
        assert_eq!(q.pop(), None);
    }

    /// Re-arming replaces the previous wakeup: the stale entry never
    /// surfaces, even when it would pop earlier.
    #[test]
    fn rearm_cancels_previous_wakeup() {
        let mut q = EventQueue::new(2);
        q.arm(0, 5);
        q.arm(0, 15); // moved later: the 5-cycle entry is stale
        q.arm(1, 10);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((15, 0)));
        assert_eq!(q.pop(), None);

        q.arm(0, 30);
        q.arm(0, 7); // moved earlier: only the 7 survives
        assert_eq!(q.pop(), Some((7, 0)));
        assert_eq!(q.pop(), None);
    }

    /// Popping consumes the wakeup: the actor must be re-armed to fire
    /// again (one-shot semantics).
    #[test]
    fn pop_is_one_shot() {
        let mut q = EventQueue::new(1);
        q.arm(0, 1);
        assert_eq!(q.pop(), Some((1, 0)));
        assert_eq!(q.pop(), None);
        q.arm(0, 2);
        assert_eq!(q.pop(), Some((2, 0)));
    }

    /// Re-arming at the cycle the actor is already armed for (or was
    /// just popped at) bumps the generation without duplicating the
    /// wakeup — exactly one pop surfaces per live arm.
    #[test]
    fn rearm_at_current_cycle_fires_exactly_once() {
        let mut q = EventQueue::new(1);
        q.arm(0, 10);
        q.arm(0, 10); // same cycle: old generation goes stale
        assert_eq!(q.pop(), Some((10, 0)));
        assert_eq!(q.pop(), None);
        // Re-arm at the cycle that just fired: the queue can run
        // multiple dispatches of one actor in the same cycle slot.
        q.arm(0, 10);
        assert_eq!(q.pop(), Some((10, 0)));
        assert_eq!(q.pop(), None);
    }
}
