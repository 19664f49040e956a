//! A replica thread's mailbox: one FIFO queue with a wake rule.
//!
//! Propagation is lazy: a replica needs a refresh applied only by the time
//! a transaction starts there, and every transaction is queued behind the
//! refreshes its start requirement covers. So a *lazy* message (a refresh)
//! sent to an *idle* owner is queued without waking it; any other message
//! wakes it, and so does a backlog of [`BACKLOG`] messages. The owner says
//! whether it is idle each time it goes to sleep, and takes the whole queue
//! when it wakes, in send order: only the time of a wake-up depends on the
//! rule, never the order of what it handles.
//!
//! A sender signals the condition variable only when the owner sleeps and
//! the rule says wake, so a send to a running owner makes no system call.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// How many queued messages wake an idle owner: an idle replica's backlog
/// is bounded, and it pays one wake-up per this many refreshes. The
/// certifier cuts its batches at the same count.
pub(crate) const BACKLOG: usize = 64;

/// A message as the wake rule sees it.
pub(crate) trait Mail {
    /// Whether the message may wait in the queue of an idle owner.
    fn lazy(&self) -> bool;
}

pub(crate) struct Mailbox<T> {
    inbox: Mutex<Inbox<T>>,
    wake: Condvar,
}

struct Inbox<T> {
    queue: VecDeque<T>,
    /// A message that is not lazy is queued.
    urgent: bool,
    /// What the owner said before it went to sleep.
    idle: bool,
    /// The owner waits on the condition variable and nobody has woken it.
    sleeping: bool,
    /// The owner is gone: every send is refused.
    closed: bool,
}

impl<T> Inbox<T> {
    /// Whether what is queued is work for the owner.
    fn ready(&self) -> bool {
        self.urgent || self.queue.len() >= BACKLOG || (!self.idle && !self.queue.is_empty())
    }
}

impl<T: Mail> Mailbox<T> {
    pub fn new() -> Self {
        Mailbox {
            inbox: Mutex::new(Inbox {
                queue: VecDeque::new(),
                urgent: false,
                idle: false,
                sleeping: false,
                closed: false,
            }),
            wake: Condvar::new(),
        }
    }

    /// No message is dropped under the lock and each update leaves the
    /// inbox whole, so a poisoned lock still guards a valid inbox.
    fn lock(&self) -> MutexGuard<'_, Inbox<T>> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `msg` behind everything sent before it, waking the owner if
    /// the rule says so. Hands `msg` back once the mailbox is closed.
    pub fn send(&self, msg: T) -> Result<(), T> {
        let mut inbox = self.lock();
        if inbox.closed {
            return Err(msg);
        }
        inbox.urgent |= !msg.lazy();
        inbox.queue.push_back(msg);
        let wake = inbox.sleeping && inbox.ready();
        if wake {
            inbox.sleeping = false;
        }
        drop(inbox);
        if wake {
            self.wake.notify_one();
        }
        Ok(())
    }

    /// The owner's side: waits until the queue holds work for an owner
    /// that is `idle` (or not), then moves all of it into `batch`, which
    /// must be empty, in send order.
    pub fn take(&self, idle: bool, batch: &mut VecDeque<T>) {
        debug_assert!(batch.is_empty(), "the last batch is handled first");
        let mut inbox = self.lock();
        inbox.idle = idle;
        while !inbox.ready() {
            inbox.sleeping = true;
            inbox = self
                .wake
                .wait(inbox)
                .unwrap_or_else(PoisonError::into_inner);
        }
        inbox.sleeping = false;
        inbox.urgent = false;
        std::mem::swap(&mut inbox.queue, batch);
    }

    /// Refuses every later send and returns what is queued, for the caller
    /// to drop after the lock: a message may send from its `Drop`, to this
    /// mailbox too.
    pub fn close(&self) -> VecDeque<T> {
        let mut inbox = self.lock();
        inbox.closed = true;
        std::mem::take(&mut inbox.queue)
    }

    #[cfg(test)]
    fn sleeping(&self) -> bool {
        self.lock().sleeping
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[derive(Debug, PartialEq)]
    enum Msg {
        Refresh(usize),
        Txn(usize),
    }

    impl Mail for Msg {
        fn lazy(&self) -> bool {
            matches!(self, Msg::Refresh(_))
        }
    }

    /// An owner that takes once, as `idle`, on a thread of its own and
    /// reports what it took; returned once it sleeps.
    fn sleeping_owner(idle: bool) -> (Arc<Mailbox<Msg>>, mpsc::Receiver<VecDeque<Msg>>) {
        let mailbox = Arc::new(Mailbox::new());
        let (took, taken) = mpsc::channel();
        let owner = Arc::clone(&mailbox);
        std::thread::spawn(move || {
            let mut batch = VecDeque::new();
            owner.take(idle, &mut batch);
            let _ = took.send(batch);
        });
        while !mailbox.sleeping() {
            std::thread::yield_now();
        }
        (mailbox, taken)
    }

    const AWAKE: Duration = Duration::from_secs(10);

    #[test]
    fn lazy_and_urgent_messages_come_out_in_send_order() {
        let mailbox = Mailbox::new();
        let sent = [
            Msg::Refresh(1),
            Msg::Txn(2),
            Msg::Refresh(3),
            Msg::Refresh(4),
            Msg::Txn(5),
            Msg::Refresh(6),
        ];
        for msg in sent {
            mailbox.send(msg).unwrap();
        }
        let mut batch = VecDeque::new();
        mailbox.take(true, &mut batch);
        let order: Vec<usize> = batch
            .iter()
            .map(|(Msg::Refresh(i) | Msg::Txn(i))| *i)
            .collect();
        assert_eq!(order, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn an_idle_owner_sleeps_through_a_backlog_short_of_the_bound() {
        let (mailbox, taken) = sleeping_owner(true);
        for i in 0..BACKLOG - 1 {
            mailbox.send(Msg::Refresh(i)).unwrap();
        }
        // A sender that wakes the owner clears `sleeping` as it does so.
        assert!(mailbox.sleeping(), "woken by a refresh");
        assert!(taken.try_recv().is_err());
        mailbox.send(Msg::Refresh(BACKLOG - 1)).unwrap();
        let batch = taken
            .recv_timeout(AWAKE)
            .expect("the full backlog wakes it");
        assert_eq!(batch.len(), BACKLOG);
        assert_eq!(batch.back(), Some(&Msg::Refresh(BACKLOG - 1)));

        let (mailbox, taken) = sleeping_owner(true);
        mailbox.send(Msg::Refresh(0)).unwrap();
        mailbox.send(Msg::Txn(1)).unwrap();
        let batch = taken.recv_timeout(AWAKE).expect("a transaction wakes it");
        assert_eq!(Vec::from(batch), [Msg::Refresh(0), Msg::Txn(1)]);
    }

    #[test]
    fn a_busy_owner_is_woken_by_one_refresh() {
        let (mailbox, taken) = sleeping_owner(false);
        mailbox.send(Msg::Refresh(0)).unwrap();
        let batch = taken.recv_timeout(AWAKE).expect("a refresh wakes it");
        assert_eq!(Vec::from(batch), [Msg::Refresh(0)]);
    }

    #[test]
    fn a_send_after_close_hands_the_message_back() {
        let mailbox = Mailbox::new();
        mailbox.send(Msg::Txn(0)).unwrap();
        assert_eq!(Vec::from(mailbox.close()), [Msg::Txn(0)]);
        assert_eq!(mailbox.send(Msg::Refresh(1)), Err(Msg::Refresh(1)));
        assert_eq!(mailbox.send(Msg::Txn(2)), Err(Msg::Txn(2)));
    }

    /// A message that, dropped, sends to the mailbox it was queued in.
    struct Echo(Option<Arc<Mailbox<Echo>>>);

    impl Mail for Echo {
        fn lazy(&self) -> bool {
            false
        }
    }

    impl Drop for Echo {
        fn drop(&mut self) {
            if let Some(mailbox) = self.0.take() {
                // Refused once the mailbox is closed; the echo drops here.
                let _ = mailbox.send(Echo(None));
            }
        }
    }

    #[test]
    fn a_message_that_sends_from_drop_does_not_deadlock_close() {
        let mailbox = Arc::new(Mailbox::new());
        assert!(mailbox.send(Echo(Some(Arc::clone(&mailbox)))).is_ok());
        let (closed, done) = mpsc::channel();
        let owner = Arc::clone(&mailbox);
        std::thread::spawn(move || {
            drop(owner.close());
            let _ = closed.send(());
        });
        done.recv_timeout(AWAKE).expect("close returned");
    }
}
