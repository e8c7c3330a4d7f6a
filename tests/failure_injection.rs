//! Failure injection: corrupted forwarding, parity violations, silent
//! drops, premature termination. The solution-preference contract demands
//! that every such deviation yields `FAIL` (or the honest outcome) —
//! never a biased valid election.

use fle_core::protocols::{ALeadUni, FleProtocol, PhaseAsyncLead, PhaseMsg, RingProtocol};
use fle_core::{Coalition, NodeId};
use ring_sim::{Ctx, Node, Outcome};

/// Forwards like an honest pipe but corrupts the `at`-th message by `+1`.
struct Corruptor {
    n: u64,
    at: u64,
    seen: u64,
}

impl Node<u64> for Corruptor {
    fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        self.seen += 1;
        let m = if self.seen == self.at {
            (msg + 1) % self.n
        } else {
            msg % self.n
        };
        ctx.send(m);
    }
}

/// Stops participating entirely after `quota` messages.
struct Mute {
    quota: u64,
    seen: u64,
}

impl Node<u64> for Mute {
    fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        self.seen += 1;
        if self.seen <= self.quota {
            ctx.send(msg);
        }
    }
}

/// Swaps the message kind parity in PhaseAsyncLead once.
struct ParityFlipper {
    flipped: bool,
}

impl Node<PhaseMsg> for ParityFlipper {
    fn on_message(&mut self, _from: NodeId, msg: PhaseMsg, ctx: &mut Ctx<'_, PhaseMsg>) {
        let out = if !self.flipped {
            self.flipped = true;
            match msg {
                PhaseMsg::Data(v) => PhaseMsg::Val(v),
                PhaseMsg::Val(v) => PhaseMsg::Data(v),
            }
        } else {
            msg
        };
        ctx.send(out);
    }
}

#[test]
fn corrupting_any_single_message_fails_a_lead_uni() {
    let n = 12;
    for at in [1u64, 3, 7, 12] {
        for pos in [1usize, 5, 11] {
            let p = ALeadUni::new(n).with_seed(4);
            let exec = p.run_with(vec![(
                pos,
                Box::new(Corruptor {
                    n: n as u64,
                    at,
                    seen: 0,
                }),
            )]);
            assert!(
                exec.outcome.is_fail(),
                "at={at} pos={pos}: {:?}",
                exec.outcome
            );
        }
    }
}

#[test]
fn going_silent_fails_a_lead_uni_by_starvation() {
    let n = 10;
    for quota in [0u64, 1, 5] {
        let p = ALeadUni::new(n).with_seed(1);
        let exec = p.run_with(vec![(3, Box::new(Mute { quota, seen: 0 }))]);
        assert!(exec.outcome.is_fail(), "quota={quota}: {:?}", exec.outcome);
    }
}

#[test]
fn parity_violation_fails_phase_async_lead() {
    let n = 10;
    let p = PhaseAsyncLead::new(n).with_seed(3).with_fn_key(8);
    let exec = p.run_with(vec![(4, Box::new(ParityFlipper { flipped: false }))]);
    assert!(exec.outcome.is_fail(), "{:?}", exec.outcome);
}

/// A phase node that replays the honest pipe behaviour for data but
/// replaces one forwarded validation value.
struct ValTamperer {
    buffer: u64,
    round: u64,
    tamper_round: u64,
}

impl Node<PhaseMsg> for ValTamperer {
    fn on_message(&mut self, _from: NodeId, msg: PhaseMsg, ctx: &mut Ctx<'_, PhaseMsg>) {
        match msg {
            PhaseMsg::Data(x) => {
                self.round += 1;
                ctx.send(PhaseMsg::Data(self.buffer));
                self.buffer = x;
            }
            PhaseMsg::Val(v) => {
                let out = if self.round == self.tamper_round {
                    v ^ 1
                } else {
                    v
                };
                ctx.send(PhaseMsg::Val(out));
            }
        }
    }
}

#[test]
fn tampering_with_a_validation_value_is_caught_by_its_validator() {
    let n = 12;
    for tamper_round in [2u64, 5, 9] {
        let p = PhaseAsyncLead::new(n).with_seed(6).with_fn_key(2);
        // Node 7 forwards honestly except in `tamper_round`. Its own data
        // value never enters the stream (it pipes), which is itself a
        // second deviation — both must end in FAIL.
        let exec = p.run_with(vec![(
            7,
            Box::new(ValTamperer {
                buffer: 0,
                round: 0,
                tamper_round,
            }),
        )]);
        assert!(
            exec.outcome.is_fail(),
            "round={tamper_round}: {:?}",
            exec.outcome
        );
    }
}

#[test]
fn duplicating_messages_fails_a_lead_uni() {
    struct Duplicator {
        n: u64,
        dup_at: u64,
        seen: u64,
    }
    impl Node<u64> for Duplicator {
        fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.seen += 1;
            ctx.send(msg % self.n);
            if self.seen == self.dup_at {
                ctx.send(msg % self.n);
            }
        }
    }
    let n = 10;
    let p = ALeadUni::new(n).with_seed(2);
    let exec = p.run_with(vec![(
        5,
        Box::new(Duplicator {
            n: n as u64,
            dup_at: 4,
            seen: 0,
        }),
    )]);
    assert!(exec.outcome.is_fail(), "{:?}", exec.outcome);
}

#[test]
fn honest_control_runs_still_pass() {
    // Sanity: with no injected fault the same configurations succeed.
    assert!(matches!(
        ALeadUni::new(12).with_seed(4).run_honest().outcome,
        Outcome::Elected(_)
    ));
    assert!(matches!(
        PhaseAsyncLead::new(12)
            .with_seed(6)
            .with_fn_key(2)
            .run_honest()
            .outcome,
        Outcome::Elected(_)
    ));
}

#[test]
fn multiple_simultaneous_faults_still_fail_cleanly() {
    let n = 16;
    let coalition = Coalition::new(n, vec![3, 9]).unwrap();
    let p = ALeadUni::new(n).with_seed(8);
    let overrides: Vec<(NodeId, Box<dyn Node<u64>>)> = coalition
        .positions()
        .iter()
        .map(|&pos| {
            let node: Box<dyn Node<u64>> = Box::new(Corruptor {
                n: n as u64,
                at: pos as u64 + 1,
                seen: 0,
            });
            (pos, node)
        })
        .collect();
    let exec = p.run_with(overrides);
    assert!(exec.outcome.is_fail());
}
