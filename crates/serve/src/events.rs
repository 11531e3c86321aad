//! The daemon's event ring: a bounded, structured record of what
//! happened to the results store, served at `GET /v1/events`.
//!
//! Counters say how often something went wrong; the ring says which
//! window it was and why. Its feeders are a window file quarantined at
//! start, a window persist that failed, and a window the run's end
//! closed before its watermark did. The ring keeps the newest
//! [`EVENT_RING_CAPACITY`] events; every event gets the next sequence
//! number, so a reader sees how many older ones were dropped.

use mt_store::StoreError;
use mt_types::Day;
use serde_json::Value;
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// Events the ring holds; recording one more drops the oldest.
pub(crate) const EVENT_RING_CAPACITY: usize = 256;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// A window file failed validation at start and was moved to the
    /// store's `quarantine/`.
    WindowQuarantined,
    /// A closed window could not be persisted.
    PersistFailed,
    /// The run ended with the window open, so `finish` closed it before
    /// the watermark passed it.
    WindowForced,
}

impl EventKind {
    /// The kind's stable name in the JSON document.
    fn name(self) -> &'static str {
        match self {
            EventKind::WindowQuarantined => "window_quarantined",
            EventKind::PersistFailed => "persist_failed",
            EventKind::WindowForced => "window_forced",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
struct Event {
    seq: u64,
    kind: EventKind,
    day: Day,
    /// A stable label: for a store failure, [`StoreError::reason`].
    reason: &'static str,
    /// What happened, in words: for a store failure, its message.
    detail: String,
}

#[derive(Debug, Default)]
struct Ring {
    /// The sequence number the next event gets.
    next: u64,
    events: VecDeque<Event>,
}

/// The ring, shared by its feeders and the control loop. Its lock,
/// `serve.events`, is a leaf held only to push or to copy the events.
#[derive(Debug, Default)]
pub(crate) struct EventRing {
    ring: Mutex<Ring>,
}

impl EventRing {
    /// Records that `kind` happened to `day`'s window because of `err`.
    pub(crate) fn record_error(&self, kind: EventKind, day: Day, err: &StoreError) {
        self.record(kind, day, err.reason(), err.to_string());
    }

    /// Records that `kind` happened to `day`'s window, labelled `reason`.
    pub(crate) fn record(&self, kind: EventKind, day: Day, reason: &'static str, detail: String) {
        let mut ring = self.lock(); // lock: serve.events
        if ring.events.len() == EVENT_RING_CAPACITY {
            ring.events.pop_front();
        }
        let seq = ring.next;
        ring.next += 1;
        ring.events.push_back(Event {
            seq,
            kind,
            day,
            reason,
            detail,
        });
    }

    /// The ring as the JSON document `/v1/events` answers with: its
    /// capacity, how many events it has dropped, and the events it
    /// holds, oldest first.
    pub(crate) fn to_json(&self) -> String {
        let (next, events) = {
            let ring = self.lock(); // lock: serve.events
            (ring.next, ring.events.clone())
        };
        let object = |fields: Vec<(&str, Value)>| {
            Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };
        let dropped = next - events.len() as u64;
        let events = events.into_iter().map(|e| {
            object(vec![
                ("seq", Value::from(e.seq)),
                ("kind", Value::from(e.kind.name())),
                ("day", Value::from(u64::from(e.day.0))),
                ("reason", Value::from(e.reason)),
                ("detail", Value::from(e.detail)),
            ])
        });
        let doc = object(vec![
            ("capacity", Value::from(EVENT_RING_CAPACITY as u64)),
            ("dropped", Value::from(dropped)),
            ("events", Value::Array(events.collect())),
        ]);
        serde_json::to_string(&doc).unwrap_or_else(|_| "{}".to_owned())
    }

    /// Takes the ring's lock. A panic cannot leave the ring invalid
    /// (each update is one push or pop), so a poisoned lock is used as
    /// it stands.
    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner) // lock: serve.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_keeps_the_newest_events_and_counts_the_dropped() {
        let ring = EventRing::default();
        let err = StoreError::BadMagic;
        for d in 0..EVENT_RING_CAPACITY as u32 + 3 {
            ring.record_error(EventKind::PersistFailed, Day(d), &err);
        }
        let text = ring.to_json();
        serde_json::from_str::<Value>(&text).expect("a JSON document");
        assert!(text.starts_with(r#"{"capacity":256,"dropped":3,"events":[{"seq":3,"kind":"persist_failed","day":3,"reason":"bad_magic","#));
        assert!(text.contains(r#"{"seq":258,"kind":"persist_failed","day":258,"#));
    }
}
