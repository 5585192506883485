//! A shard's ingress queue: one FIFO of rows and control messages behind
//! one lock, with no allocation per fed row.
//!
//! A feed reserves its rows in the inbox's [`QueueDepth`] first, then
//! takes the lock once to append one compact [`Item`] and copy the rows'
//! scalars into a ring shared by every queued row. The ring keeps its
//! high-water capacity, so once it has grown to the most rows the shard
//! ever held, feeding allocates nothing. Control messages travel the same
//! FIFO, boxed, so they still queue behind every row fed before them.
//!
//! The worker takes one item per lock and copies its rows into a scratch
//! buffer of its own, so producers are never held up while it works. It
//! parks on a condition variable when the inbox is empty, and a producer
//! notifies it only then.
//!
//! Ends behave like an `mpsc` channel's: [`Inbox::hang_up`] lets the
//! worker drain what is queued and then see the end, and dropping the
//! [`InboxReceiver`] (a normal exit or an unwind) closes the inbox,
//! dropping every queued control message so its caller's reply channel
//! reports `Disconnected`, and refusing every later push.

use crate::engine::ShardMsg;
use crate::metrics::QueueDepth;
use crate::supervisor::mutex_lock;
use seqdrift_linalg::Real;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// One queued entry: a run of rows whose `len` scalars sit in the ring,
/// or a control message.
enum Item {
    Rows { id: u64, rows: usize, len: usize },
    Control(Box<ShardMsg>),
}

/// What the worker takes off the inbox.
pub(crate) enum Taken {
    /// `rows` rows of session `id`, now in the caller's scratch buffer.
    Rows {
        id: u64,
        rows: usize,
    },
    Control(ShardMsg),
}

/// The push found the receiving half gone.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Closed;

#[derive(Default)]
struct Queue {
    items: VecDeque<Item>,
    /// The scalars of every queued `Rows` item, back to back in FIFO order.
    ring: VecDeque<Real>,
    /// The worker waits for the next item.
    parked: bool,
    /// No more items will come; the worker exits once the queue is empty.
    hung_up: bool,
    /// The worker is gone; pushes fail.
    closed: bool,
}

/// The sending half, shared by every feeder and control caller of one
/// shard.
pub(crate) struct Inbox {
    depth: QueueDepth,
    queue: Mutex<Queue>,
    ready: Condvar,
}

/// The worker's half. Dropping it closes the inbox.
pub(crate) struct InboxReceiver {
    inbox: Arc<Inbox>,
}

impl Inbox {
    /// An empty inbox bounded at `capacity` rows, and its receiving half.
    pub fn new(capacity: usize) -> (Arc<Inbox>, InboxReceiver) {
        let inbox = Arc::new(Inbox {
            depth: QueueDepth::new(capacity),
            queue: Mutex::default(),
            ready: Condvar::new(),
        });
        let rx = InboxReceiver {
            inbox: Arc::clone(&inbox),
        };
        (inbox, rx)
    }

    /// The row reservation that bounds this inbox.
    pub fn depth(&self) -> &QueueDepth {
        &self.depth
    }

    /// Appends `rows` rows of session `id`, back to back in `data`, which
    /// the caller has already reserved in [`Inbox::depth`]. On a closed
    /// inbox the reservation is released.
    pub fn push_rows(&self, id: u64, rows: usize, data: &[Real]) -> Result<(), Closed> {
        let mut q = mutex_lock(&self.queue);
        if q.closed {
            drop(q);
            self.depth.release(rows);
            return Err(Closed);
        }
        q.ring.extend(data);
        q.items.push_back(Item::Rows {
            id,
            rows,
            len: data.len(),
        });
        self.wake(q);
        Ok(())
    }

    /// Appends a control message. Never waits for room: rows are the
    /// inbox's only bound.
    pub fn push_control(&self, msg: ShardMsg) -> Result<(), Closed> {
        let mut q = mutex_lock(&self.queue);
        if q.closed {
            return Err(Closed);
        }
        q.items.push_back(Item::Control(Box::new(msg)));
        self.wake(q);
        Ok(())
    }

    /// Tells the worker that nothing more will be pushed: it drains what
    /// is queued, then its [`InboxReceiver::recv`] returns `None`.
    pub fn hang_up(&self) {
        let mut q = mutex_lock(&self.queue);
        q.hung_up = true;
        self.wake(q);
    }

    fn wake(&self, q: std::sync::MutexGuard<'_, Queue>) {
        let parked = q.parked;
        drop(q);
        if parked {
            self.ready.notify_one();
        }
    }
}

impl InboxReceiver {
    /// The row reservation that bounds the inbox: the worker releases one
    /// row of it as it handles each row it took.
    pub fn depth(&self) -> &QueueDepth {
        &self.inbox.depth
    }

    /// Takes the next item, waiting for one. A run of rows is copied into
    /// `scratch`, replacing its contents. Returns `None` once the inbox
    /// is hung up and empty.
    pub fn recv(&self, scratch: &mut Vec<Real>) -> Option<Taken> {
        let mut q = mutex_lock(&self.inbox.queue);
        loop {
            match q.items.pop_front() {
                Some(Item::Rows { id, rows, len }) => {
                    let (front, back) = q.ring.as_slices();
                    let head = front.len().min(len);
                    scratch.clear();
                    scratch.extend_from_slice(&front[..head]);
                    scratch.extend_from_slice(&back[..len - head]);
                    q.ring.drain(..len);
                    return Some(Taken::Rows { id, rows });
                }
                Some(Item::Control(msg)) => return Some(Taken::Control(*msg)),
                None if q.hung_up => return None,
                None => {
                    q.parked = true;
                    q = self
                        .inbox
                        .ready
                        .wait(q)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    q.parked = false;
                }
            }
        }
    }
}

impl Drop for InboxReceiver {
    /// Closes the inbox. Queued control messages drop here, outside the
    /// lock, so each caller's reply channel reports `Disconnected`. Queued
    /// rows stay reserved: they are the worker's stranded rows.
    fn drop(&mut self) {
        let stranded = {
            let mut q = mutex_lock(&self.inbox.queue);
            q.closed = true;
            q.ring = VecDeque::new();
            std::mem::take(&mut q.items)
        };
        drop(stranded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FleetError;
    use std::sync::mpsc::channel;

    fn offset_query(id: u64) -> (ShardMsg, std::sync::mpsc::Receiver<Result<u64, FleetError>>) {
        let (reply, rx) = channel();
        (ShardMsg::SamplesProcessed { id, reply }, rx)
    }

    #[test]
    fn rows_and_control_messages_leave_in_fifo_order() {
        let (inbox, rx) = Inbox::new(8);
        assert_eq!(inbox.depth().reserve(2, true), 2);
        inbox.push_rows(1, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        inbox.push_control(offset_query(5).0).unwrap();
        assert_eq!(inbox.depth().reserve(1, true), 1);
        inbox.push_rows(2, 1, &[5.0, 6.0, 7.0]).unwrap();
        inbox.hang_up();

        let mut scratch = Vec::new();
        assert!(matches!(
            rx.recv(&mut scratch),
            Some(Taken::Rows { id: 1, rows: 2 })
        ));
        assert_eq!(scratch, [1.0, 2.0, 3.0, 4.0]);
        assert!(matches!(
            rx.recv(&mut scratch),
            Some(Taken::Control(ShardMsg::SamplesProcessed { id: 5, .. }))
        ));
        assert!(matches!(
            rx.recv(&mut scratch),
            Some(Taken::Rows { id: 2, rows: 1 })
        ));
        assert_eq!(scratch, [5.0, 6.0, 7.0]);
        assert!(rx.recv(&mut scratch).is_none());
        // Taking rows releases nothing: the worker does, row by row.
        assert_eq!(inbox.depth().get(), 3);
    }

    #[test]
    fn rows_that_wrap_around_the_ring_come_out_whole() {
        let (inbox, rx) = Inbox::new(4);
        let mut scratch = Vec::new();
        for n in 0..40u8 {
            let row = [Real::from(n), Real::from(n) + 0.5, -Real::from(n)];
            inbox.depth().reserve(1, true);
            inbox.push_rows(9, 1, &row).unwrap();
            if n % 3 == 0 {
                inbox.depth().reserve(1, true);
                inbox.push_rows(9, 1, &row).unwrap();
                assert!(rx.recv(&mut scratch).is_some());
                assert_eq!(scratch, row);
                inbox.depth().release(1);
            }
            assert!(rx.recv(&mut scratch).is_some());
            assert_eq!(scratch, row);
            inbox.depth().release(1);
        }
        assert_eq!(inbox.depth().get(), 0);
    }

    #[test]
    fn a_queued_control_caller_sees_disconnected_when_the_receiver_drops() {
        let (inbox, rx) = Inbox::new(8);
        let (msg, reply) = offset_query(3);
        inbox.push_control(msg).unwrap();
        drop(rx);
        assert!(reply.recv().is_err());
    }

    #[test]
    fn a_push_after_close_fails_and_leaves_the_depth_where_it_was() {
        let (inbox, rx) = Inbox::new(8);
        assert_eq!(inbox.depth().reserve(1, true), 1);
        inbox.push_rows(0, 1, &[0.5]).unwrap();
        drop(rx);
        // The queued row stays reserved: it was stranded, not delivered.
        assert_eq!(inbox.depth().get(), 1);
        assert_eq!(inbox.depth().reserve(2, true), 2);
        assert_eq!(inbox.push_rows(0, 2, &[0.5, 0.5]), Err(Closed));
        assert_eq!(inbox.depth().get(), 1);
        assert!(inbox.push_control(offset_query(0).0).is_err());
    }

    #[test]
    fn a_parked_worker_wakes_for_a_push() {
        let (inbox, rx) = Inbox::new(8);
        let (tx, seen) = channel();
        let worker = std::thread::spawn(move || {
            let mut scratch = Vec::new();
            while let Some(taken) = rx.recv(&mut scratch) {
                if let Taken::Rows { id, .. } = taken {
                    tx.send((id, scratch.clone())).unwrap();
                }
            }
        });
        let wait_until_parked = || {
            while !mutex_lock(&inbox.queue).parked {
                std::thread::yield_now();
            }
        };
        wait_until_parked();
        inbox.depth().reserve(1, true);
        inbox.push_rows(4, 1, &[1.5, 2.5]).unwrap();
        assert_eq!(seen.recv().unwrap(), (4, vec![1.5, 2.5]));
        // Parked again, the worker wakes for the hang-up and exits.
        wait_until_parked();
        inbox.hang_up();
        worker.join().unwrap();
    }
}
