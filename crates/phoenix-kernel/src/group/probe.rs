//! Probe sessions: a watched daemon fell silent on every interface — is
//! its node still there?
//!
//! Paper Sec 4.3 / Tables 1–2. The GSD asks the PPM agent on the silent
//! daemon's node a fixed number of times, one spacing apart, and waits
//! for the answers until a deadline. Every round answered: the node
//! lives, so the daemon died. No answer at all: the node died. [`Probes`]
//! holds the sessions in flight and makes that call — and the two calls
//! a lossy network adds: some answers are proof of a live node however
//! many rounds were lost, and beats that resumed meanwhile mean nobody
//! died at all. No sends, no timers, no telemetry, no simulator context:
//! the `Gsd` actor numbers the sessions, arms the round and deadline
//! timers, keeps each session's telemetry span, and acts on the
//! [`Outcome`].

use crate::group::liveness::Watched;
use crate::params::FtParams;
use phoenix_sim::{Pid, SimDuration, SimTime};
use std::collections::BTreeMap;

/// How a session ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Every round was answered: the node is alive, its daemon silent.
    ProcessFailure,
    /// The deadline passed with only some rounds answered: a process
    /// failure all the same. The node is provably reachable, so the
    /// missing rounds are packet loss, not a dead machine — and a
    /// node-death verdict would strand a live node without its daemon (the
    /// node path restarts nothing). On a clean network every round
    /// completes long before the deadline.
    PartialProcessFailure,
    /// The deadline passed without one answer.
    NodeFailure,
    /// A beat arrived while the session ran: the silence was loss in the
    /// network, not a stop at the source. No diagnosis.
    Aborted,
}

/// What a probe response meant.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Response {
    pub(crate) watched: Watched,
    /// Round trip of the round it answers: one sample per round for the
    /// fail-slow detector (a duplicate answer carries none).
    pub(crate) rtt: Option<SimDuration>,
    /// It was the last answer due: the session is over.
    pub(crate) outcome: Option<Outcome>,
}

struct Session {
    watched: Watched,
    target_ppm: Pid,
    rounds_sent: u32,
    responses: u32,
    /// When the most recent round was sent, until a response claims it.
    last_round_at: Option<SimTime>,
}

/// The probe sessions of one GSD, by the id the actor gave each.
pub(crate) struct Probes {
    rounds: u32,
    pub(crate) abort_on_fresh: bool,
    sessions: BTreeMap<u64, Session>,
}

impl Probes {
    pub(crate) fn new(ft: &FtParams) -> Probes {
        Probes {
            rounds: ft.probe_rounds,
            abort_on_fresh: ft.lossy,
            sessions: BTreeMap::new(),
        }
    }

    /// Sessions opened and not yet resolved.
    pub(crate) fn in_flight(&self) -> usize {
        self.sessions.len()
    }

    /// Start session `id` about `watched`, probing the PPM agent on its
    /// node. The first round goes out one spacing later: the paper's
    /// process-diagnosing time is rounds × spacing.
    pub(crate) fn open(&mut self, id: u64, watched: Watched, target_ppm: Pid) {
        let session = Session {
            watched,
            target_ppm,
            rounds_sent: 0,
            responses: 0,
            last_round_at: None,
        };
        self.sessions.insert(id, session);
    }

    /// A round of session `id` is due at `now`: about whom, and the agent
    /// to ask — after which the next round is due one spacing on. `None`
    /// when the session is over or has sent its rounds.
    pub(crate) fn round(&mut self, id: u64, now: SimTime) -> Option<(Watched, Pid)> {
        let s = self.sessions.get_mut(&id)?;
        if s.rounds_sent >= self.rounds {
            return None;
        }
        s.rounds_sent += 1;
        s.last_round_at = Some(now);
        Some((s.watched, s.target_ppm))
    }

    /// The session is over: has the silence it was opened on ended?
    fn resolve(&self, s: &Session, fresh: impl FnOnce(Watched) -> bool, silent: Outcome) -> Outcome {
        if self.abort_on_fresh && fresh(s.watched) {
            Outcome::Aborted
        } else {
            silent
        }
    }

    /// An answer to session `id` arrived at `now`. `fresh` says whether a
    /// watched daemon has beaten inside the suspicion window. `None`: no
    /// such session (any more).
    pub(crate) fn on_response(
        &mut self,
        id: u64,
        now: SimTime,
        fresh: impl FnOnce(Watched) -> bool,
    ) -> Option<Response> {
        let s = self.sessions.get_mut(&id)?;
        s.responses += 1;
        let rtt = s.last_round_at.take().map(|sent| now - sent);
        let watched = s.watched;
        let mut outcome = None;
        if s.responses >= self.rounds {
            let s = self.sessions.remove(&id)?;
            outcome = Some(self.resolve(&s, fresh, Outcome::ProcessFailure));
        }
        Some(Response {
            watched,
            rtt,
            outcome,
        })
    }

    /// The deadline of session `id` passed. `None`: it resolved before.
    pub(crate) fn on_timeout(
        &mut self,
        id: u64,
        fresh: impl FnOnce(Watched) -> bool,
    ) -> Option<(Watched, Outcome)> {
        let s = self.sessions.remove(&id)?;
        let silent = match s.responses {
            0 => Outcome::NodeFailure,
            _ => Outcome::PartialProcessFailure,
        };
        Some((s.watched, self.resolve(&s, fresh, silent)))
    }

    /// Abandon every session, in id order: whom each was about.
    pub(crate) fn abandon(&mut self) -> impl Iterator<Item = (u64, Watched)> {
        let sessions = std::mem::take(&mut self.sessions);
        sessions.into_iter().map(|(id, s)| (id, s.watched))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_sim::NodeId;

    const WD: Watched = Watched::Wd(NodeId(7));
    const PPM: Pid = Pid(70);
    const MS: u64 = 1_000_000;

    fn probes(abort_on_fresh: bool) -> Probes {
        let ft = FtParams {
            probe_rounds: 3,
            lossy: abort_on_fresh,
            ..FtParams::default()
        };
        Probes::new(&ft)
    }

    /// Session 1, `answered` of its three rounds answered 2 ms after they
    /// were sent; if that does not end it, the deadline does.
    fn run(p: &mut Probes, answered: u32, fresh: bool) -> Option<Outcome> {
        p.open(1, WD, PPM);
        for round in 0..3u32 {
            let sent = SimTime(u64::from(round) * 10 * MS);
            assert_eq!(p.round(1, sent), Some((WD, PPM)));
            if round < answered {
                let r = p.on_response(1, sent + SimDuration::from_millis(2), |_| fresh)?;
                assert_eq!((r.watched, r.rtt), (WD, Some(SimDuration::from_millis(2))));
                if r.outcome.is_some() {
                    return r.outcome;
                }
            }
        }
        assert_eq!(p.round(1, SimTime(40 * MS)), None, "three rounds, no fourth");
        p.on_timeout(1, |_| fresh).map(|(_, outcome)| outcome)
    }

    #[test]
    fn outcome_table() {
        use Outcome::*;
        // (rounds answered, beat at resolution, abort_on_fresh, outcome)
        let rows = [
            (3, false, true, ProcessFailure),
            (0, false, true, NodeFailure),
            (1, false, true, PartialProcessFailure),
            (2, false, true, PartialProcessFailure),
            (3, true, true, Aborted),
            (1, true, true, Aborted),
            (0, true, true, Aborted),
            // The paper pipeline never looks for resumed beats.
            (3, true, false, ProcessFailure),
            (0, true, false, NodeFailure),
        ];
        for (answered, fresh, abort, want) in rows {
            let mut p = probes(abort);
            let got = run(&mut p, answered, fresh);
            assert_eq!(got, Some(want), "{answered} answered, fresh {fresh}, abort {abort}");
            assert_eq!(p.in_flight(), 0, "a resolved session is gone");
        }
    }

    #[test]
    fn unknown_and_finished_sessions_are_ignored() {
        let mut p = probes(true);
        let never = |_| -> bool { panic!("nothing resolved: nobody asks for beats") };
        assert_eq!(p.round(9, SimTime::ZERO), None);
        assert_eq!(p.on_response(9, SimTime::ZERO, never), None);
        assert_eq!(p.on_timeout(9, never), None);
        // Resolved by its last answer: the deadline, late answers and late
        // round timers find nothing.
        assert_eq!(run(&mut p, 3, false), Some(Outcome::ProcessFailure));
        assert_eq!(p.on_timeout(1, never), None);
        assert_eq!(p.on_response(1, SimTime::ZERO, never), None);
        assert_eq!(p.round(1, SimTime::ZERO), None);
        // Resolved by its deadline: the same.
        assert_eq!(run(&mut p, 1, false), Some(Outcome::PartialProcessFailure));
        assert_eq!(p.on_response(1, SimTime::ZERO, never), None);
    }

    #[test]
    fn a_duplicate_answer_counts_but_carries_no_round_trip() {
        let mut p = probes(true);
        p.open(1, WD, PPM);
        p.round(1, SimTime::ZERO);
        let first = p.on_response(1, SimTime(MS), |_| false).unwrap();
        let again = p.on_response(1, SimTime(2 * MS), |_| false).unwrap();
        assert_eq!(first.rtt, Some(SimDuration::from_millis(1)));
        assert_eq!((again.rtt, again.outcome), (None, None));
    }

    #[test]
    fn abandoned_sessions_come_out_in_id_order() {
        let mut p = probes(true);
        let ring = Watched::Ring(phoenix_proto::PartitionId(2));
        p.open(5, ring, Pid(1));
        p.open(2, WD, PPM);
        assert_eq!(p.abandon().collect::<Vec<_>>(), vec![(2, WD), (5, ring)]);
        assert_eq!(p.in_flight(), 0);
        assert_eq!(p.on_timeout(5, |_| false), None);
    }
}
