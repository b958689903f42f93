//! The fleet simulator's event queue: one total order over `(at, seq)`,
//! kept in a heap for random-delay events and in FIFO lanes for
//! fixed-delay ones.
//!
//! Most events the simulator schedules fire a per-config constant delay
//! after the instant they are scheduled: every attempt's timeout, every
//! initial attempt's hedge timer, connect failures, probes, breaker
//! half-open timers, repairs, and the ends of straggler and gray episodes.
//! Such an event goes to the lane of its delay, and the lane stamps
//! `at = now + delay` itself. Simulated time never runs backwards and
//! sequence numbers only grow, so every lane is sorted by `(at, seq)` by
//! construction and its front is its minimum. [`EventQueue::pop`] takes
//! the least `(at, seq)` among the heap top and the lane fronts — exactly
//! the event one heap holding everything would pop. Only events whose
//! delay is drawn at random (arrivals, service completions, retry
//! backoffs, fault gaps) pay for the heap, which then holds only those
//! in flight instead of a timer per outstanding attempt.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One scheduled event, ordered by `(at, seq)` alone.
#[derive(Debug)]
struct Scheduled<E> {
    at: u64,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A FIFO of events that all fire `delay` after they were scheduled.
#[derive(Debug)]
struct Lane<E> {
    delay: u64,
    fifo: VecDeque<Scheduled<E>>,
}

/// Events ordered by `(time, sequence)`: a min-heap for events scheduled
/// at an arbitrary instant, plus one FIFO lane per fixed delay.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    lanes: Vec<Lane<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue whose lane `i` delays its events by `delays[i]`.
    pub(crate) fn new(delays: &[u64]) -> Self {
        Self {
            heap: BinaryHeap::new(),
            lanes: delays.iter().map(|&delay| Lane { delay, fifo: VecDeque::new() }).collect(),
            seq: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Schedules `ev` at instant `at`.
    pub(crate) fn at(&mut self, at: u64, ev: E) {
        let seq = self.next_seq();
        self.heap.push(Reverse(Scheduled { at, seq, ev }));
    }

    /// Schedules `ev` one `lane` delay after `now`. `now` must not be
    /// earlier than the `now` of any earlier call: that is what keeps the
    /// lane sorted.
    pub(crate) fn after(&mut self, lane: usize, now: u64, ev: E) {
        let seq = self.next_seq();
        let lane = &mut self.lanes[lane];
        let at = now + lane.delay;
        debug_assert!(lane.fifo.back().is_none_or(|last| last.at <= at), "time ran backwards");
        lane.fifo.push_back(Scheduled { at, seq, ev });
    }

    /// Removes and returns the earliest event and its instant; ties on
    /// the instant go to the event scheduled first.
    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        let mut best = self.heap.peek().map(|Reverse(s)| (s.at, s.seq));
        let mut from_lane = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(s) = lane.fifo.front() {
                if best.is_none_or(|b| (s.at, s.seq) < b) {
                    best = Some((s.at, s.seq));
                    from_lane = Some(i);
                }
            }
        }
        let s = match from_lane {
            Some(i) => self.lanes[i].fifo.pop_front(),
            None => self.heap.pop().map(|Reverse(s)| s),
        }?;
        Some((s.at, s.ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_trace::rng::stream_rng;

    #[test]
    fn pops_in_the_order_of_one_heap_holding_everything() {
        // Small delays and gaps make many events share an instant, so the
        // sequence tie-break is exercised across the heap and the lanes.
        let delays = [0, 3, 3, 7, 20];
        for seed in 0..32 {
            let mut rng = stream_rng(seed, 0x0E0E);
            let mut queue = EventQueue::new(&delays);
            let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let (mut now, mut id, mut popped) = (0u64, 0u64, 0usize);
            for _ in 0..4_000 {
                match rng.gen_range(0..10u64) {
                    // Pop from both and advance time to the popped instant.
                    0..=3 => {
                        let got = queue.pop();
                        let want = reference.pop().map(|Reverse(x)| x);
                        assert_eq!(got, want, "seed {seed}, pop {popped}");
                        if let Some((at, _)) = got {
                            assert!(at >= now, "seed {seed}: time ran backwards");
                            now = at;
                        }
                        popped += 1;
                    }
                    // A lane event, `delay` after now.
                    4..=6 => {
                        id += 1;
                        let lane = rng.gen_range(0..delays.len());
                        queue.after(lane, now, id);
                        reference.push(Reverse((now + delays[lane], id)));
                    }
                    // A heap event at a random instant not before now.
                    _ => {
                        id += 1;
                        let at = now + rng.gen_range(0..12u64);
                        queue.at(at, id);
                        reference.push(Reverse((at, id)));
                    }
                }
            }
            // Drain both to the end.
            while let Some(Reverse(want)) = reference.pop() {
                assert_eq!(queue.pop(), Some(want), "seed {seed}, drain");
            }
            assert_eq!(queue.pop(), None);
        }
    }

    #[test]
    fn a_lane_of_delay_zero_fires_now_after_earlier_ties() {
        let mut q = EventQueue::new(&[0]);
        q.at(5, 'a');
        q.after(0, 5, 'b');
        q.at(5, 'c');
        assert_eq!(q.pop(), Some((5, 'a')));
        assert_eq!(q.pop(), Some((5, 'b')));
        assert_eq!(q.pop(), Some((5, 'c')));
        assert_eq!(q.pop(), None);
    }
}
