//! The PS's collection barrier as a pure state machine: bounded
//! retransmits of corrupt uploads, exclusion of lost, vanished and
//! protocol-breaking peers — the whole recovery policy, with no channel,
//! socket, clock, chaos draw or trace call inside.
//!
//! A driver dispatches to `n` slots, then pumps what it observes into
//! [`Barrier::on`] and performs the returned [`Action`] until
//! [`Barrier::done`]. `runtime`'s framed exchange is the one event pump
//! (over the socket fleet, thread or process nodes). Both hierarchy
//! tiers settle each upload on a one-slot barrier fed the transcript an
//! in-protocol peer produces under its chaos draw (`ChaosDraw::settle`).
//!
//! The machine is **total**: an event for a slot that does not exist or
//! has already settled is [`Action::Wait`] and changes nothing, so no
//! transcript — duplicate, late, misattributed or hostile — can settle a
//! slot twice, overspend its retransmit budget or charge one peer's
//! behaviour to another.

/// What a driver observed from the peer in one slot.
pub(crate) enum Event<P> {
    /// An upload (first send or retransmission); `intact` is the
    /// application checksum's verdict on it.
    Upload { payload: P, intact: bool },
    /// The exchange was lost in transit, either direction.
    Lost,
    /// The peer's connection is gone: crash, close or broken framing.
    Gone,
    /// The peer is connected but said something the protocol has no
    /// place for.
    Malformed,
}

/// What the driver must do next for the slot an event concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Nothing; keep pumping.
    Wait,
    /// Ask the peer to send its upload again.
    Retransmit,
    /// The slot just reached its terminal outcome (reported once).
    Settled,
}

/// One slot's terminal outcome: the payload, or the exclusion reason.
pub(crate) type Outcome<P> = Result<P, &'static str>;

/// The barrier over `n` dispatched slots.
pub(crate) struct Barrier<P> {
    /// Per slot: retransmits requested so far, and the outcome once
    /// settled.
    slots: Vec<(u32, Option<Outcome<P>>)>,
    max_retransmits: u32,
    open: usize,
}

impl<P> Barrier<P> {
    pub(crate) fn new(n: usize, max_retransmits: u32) -> Self {
        Barrier { slots: (0..n).map(|_| (0, None)).collect(), max_retransmits, open: n }
    }

    /// Feeds one observation for `slot`.
    pub(crate) fn on(&mut self, slot: usize, event: Event<P>) -> Action {
        let Some((retransmits, outcome @ None)) = self.slots.get_mut(slot) else {
            return Action::Wait;
        };
        *outcome = Some(match event {
            Event::Upload { payload, intact: true } => Ok(payload),
            Event::Upload { .. } if *retransmits < self.max_retransmits => {
                *retransmits += 1;
                return Action::Retransmit;
            }
            Event::Upload { .. } => Err("corrupt"),
            Event::Lost => Err("dropped"),
            Event::Gone => Err("crashed"),
            Event::Malformed => Err("protocol"),
        });
        self.open -= 1;
        Action::Settled
    }

    /// Whether every slot has settled.
    pub(crate) fn done(&self) -> bool {
        self.open == 0
    }

    /// Per slot, in slot order: retransmits spent and the outcome. A
    /// slot the driver stopped pumping before it settled reads as lost.
    pub(crate) fn finish(self) -> Vec<(u32, Outcome<P>)> {
        self.slots.into_iter().map(|(r, o)| (r, o.unwrap_or(Err("dropped")))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Decodes one generated number into `(slot, event)` over `n + 2`
    /// slot values (two of them out of range) and the five event
    /// shapes; an upload's payload is its position in the transcript.
    fn decode(code: usize, n: usize, at: usize) -> (usize, Event<usize>) {
        let event = match code / (n + 2) % 5 {
            0 => Event::Upload { payload: at, intact: true },
            1 => Event::Upload { payload: at, intact: false },
            2 => Event::Lost,
            3 => Event::Gone,
            _ => Event::Malformed,
        };
        (code % (n + 2), event)
    }

    proptest! {
        /// Any transcript at all: no panic, `done` is monotone, a slot
        /// settles at most once and only by an event of its own, asks
        /// for at most `max` retransmits, delivers the first intact
        /// payload it was offered while waiting, and nothing that
        /// arrives after `done` (or for a settled or phantom slot)
        /// changes the result.
        #[test]
        fn hostile_transcripts_never_break_the_books(
            n in 0usize..5,
            max in 0u32..4,
            codes in proptest::collection::vec(0usize..1000, 0..64),
        ) {
            let mut barrier = Barrier::new(n, max);
            // The books an honest observer keeps from the actions alone.
            let mut expect: Vec<(u32, Option<Outcome<usize>>)> = vec![(0, None); n];
            let mut was_done = barrier.done();
            prop_assert_eq!(was_done, n == 0);
            for (at, &code) in codes.iter().enumerate() {
                let (slot, event) = decode(code, n, at);
                let verdict = match &event {
                    Event::Upload { payload, intact: true } => Ok(*payload),
                    Event::Upload { .. } => Err("corrupt"),
                    Event::Lost => Err("dropped"),
                    Event::Gone => Err("crashed"),
                    Event::Malformed => Err("protocol"),
                };
                let action = barrier.on(slot, event);
                match (action, expect.get_mut(slot)) {
                    (Action::Wait, Some((_, outcome))) => {
                        prop_assert!(outcome.is_some(), "a waiting slot ignored its own event");
                    }
                    (Action::Wait, None) => {}
                    (Action::Retransmit, Some((spent, None))) => {
                        prop_assert_eq!(verdict, Err("corrupt"));
                        *spent += 1;
                        prop_assert!(*spent <= max, "retransmit budget overspent");
                    }
                    (Action::Settled, Some((spent, outcome @ None))) => {
                        prop_assert!(verdict != Err("corrupt") || *spent == max);
                        *outcome = Some(verdict);
                    }
                    _ => prop_assert!(false, "{action:?} for a settled or phantom slot {slot}"),
                }
                prop_assert!(!was_done || action == Action::Wait, "an event after done acted");
                prop_assert!(barrier.done() || !was_done, "done went back to open");
                was_done = barrier.done();
                prop_assert_eq!(was_done, expect.iter().all(|(_, o)| o.is_some()));
            }
            let expect: Vec<_> =
                expect.into_iter().map(|(r, o)| (r, o.unwrap_or(Err("dropped")))).collect();
            prop_assert_eq!(barrier.finish(), expect);
        }

        /// Whatever else arrives, in whatever order: once every slot has
        /// seen `max + 1` corrupt uploads or one of intact upload / Lost /
        /// Gone / Malformed, the barrier is done.
        #[test]
        fn a_terminating_event_per_slot_ends_the_barrier(
            n in 1usize..5,
            max in 0u32..4,
            noise in proptest::collection::vec(0usize..1000, 0..32),
            enders in proptest::collection::vec(0usize..1000, 5..6),
        ) {
            let mut script: Vec<usize> = noise;
            for (slot, &ender) in enders.iter().enumerate().take(n) {
                // `kind` 1 is the corrupt upload, needed `max + 1` times.
                let kind = ender % 5;
                for k in 0..if kind == 1 { max as usize + 1 } else { 1 } {
                    let at = (ender / 5 + 7 * k) % (script.len() + 1);
                    script.insert(at, slot + kind * (n + 2));
                }
            }
            let mut barrier = Barrier::new(n, max);
            for (at, &code) in script.iter().enumerate() {
                let (slot, event) = decode(code, n, at);
                barrier.on(slot, event);
            }
            prop_assert!(barrier.done(), "open slots after {script:?}");
        }
    }
}
