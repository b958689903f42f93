//! A single serving machine: hardware contexts plus a bounded FIFO queue.
//!
//! A machine is deliberately dumb — all policy (routing, shedding,
//! ejection, retries) lives in the balancer and the simulator. The machine
//! only tracks which attempts occupy its contexts, which are queued, and
//! its health state (up, down for repair, or straggling).

/// Identifier of a dispatched attempt (index into the simulator's attempt
/// table).
pub type AttemptId = u32;

/// One serving machine.
#[derive(Debug)]
pub struct Machine {
    /// Number of hardware contexts that can serve concurrently.
    pub contexts: usize,
    /// Attempts currently in service (at most `contexts`).
    pub in_service: Vec<AttemptId>,
    /// Attempts waiting for a context, FIFO.
    pub queue: std::collections::VecDeque<AttemptId>,
    /// Whether the machine is up (false while crashed/repairing).
    pub up: bool,
    /// Whether a straggler episode is active (service times inflated).
    pub slow: bool,
    /// Whether a gray-failure episode is active: the machine stays `up`
    /// (probes pass, connects succeed) but serves slowly and may silently
    /// drop requests.
    pub gray: bool,
}

impl Machine {
    /// A fresh, healthy machine with the given context count.
    pub fn new(contexts: usize) -> Self {
        Self {
            contexts,
            in_service: Vec::with_capacity(contexts),
            queue: std::collections::VecDeque::new(),
            up: true,
            slow: false,
            gray: false,
        }
    }

    /// Total attempts on the machine (serving + queued); the balancer's
    /// load signal.
    pub fn load(&self) -> usize {
        self.in_service.len() + self.queue.len()
    }

    /// Whether a context is free right now.
    pub fn has_free_context(&self) -> bool {
        self.in_service.len() < self.contexts
    }

    /// Removes an attempt from the wait queue (timeout or hedge cancel).
    /// Returns whether it was present.
    pub fn unqueue(&mut self, a: AttemptId) -> bool {
        let before = self.queue.len();
        self.queue.retain(|&x| x != a);
        self.queue.len() != before
    }

    /// Removes an attempt from the in-service set (completion or crash).
    /// Returns whether it was present.
    pub fn release(&mut self, a: AttemptId) -> bool {
        match self.in_service.iter().position(|&x| x == a) {
            Some(i) => {
                self.in_service.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Takes every attempt off the machine (crash): appends the in-service
    /// attempts, then the queued ones, to `out`.
    pub fn drain_into(&mut self, out: &mut Vec<AttemptId>) {
        out.append(&mut self.in_service);
        out.extend(self.queue.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_counts_serving_and_queued() {
        let mut m = Machine::new(2);
        m.in_service.push(1);
        m.queue.push_back(2);
        m.queue.push_back(3);
        assert_eq!(m.load(), 3);
        assert!(m.has_free_context());
        m.in_service.push(4);
        assert!(!m.has_free_context());
    }

    #[test]
    fn unqueue_and_release_report_presence() {
        let mut m = Machine::new(1);
        m.in_service.push(7);
        m.queue.push_back(8);
        assert!(m.release(7));
        assert!(!m.release(7));
        assert!(m.unqueue(8));
        assert!(!m.unqueue(8));
        assert_eq!(m.load(), 0);
    }

    #[test]
    fn drain_empties_the_machine() {
        let mut m = Machine::new(2);
        m.in_service.extend([1, 2]);
        m.queue.extend([3, 4, 5]);
        let mut out = vec![9];
        m.drain_into(&mut out);
        assert_eq!(out, vec![9, 1, 2, 3, 4, 5], "appended, serving first");
        assert_eq!(m.load(), 0);
    }
}
