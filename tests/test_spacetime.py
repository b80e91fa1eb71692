"""Tests for the event timeline, light-speed messaging, and causality checks."""

import math

import pytest

from qpv.quantum import QubitHandle
from qpv.spacetime import (
    Actor,
    CausalityViolationError,
    Message,
    Timeline,
    WorldPoint,
    format_event_log,
    light_travel_time,
    verify_causality,
)

V1 = Actor(0, "V1", 0.0)
V2 = Actor(1, "V2", 2.0)
P = Actor(2, "P", 1.0)
P1 = Actor(3, "P1", 0.9)
P2 = Actor(4, "P2", 1.1)


def timeline():
    return Timeline([V1, V2, P, P1, P2])


class TestLightTravelTime:
    def test_zero_distance(self):
        assert light_travel_time(0.0, 0.0) == 0.0

    def test_verifier_to_prover(self):
        # halves sent at t=0 arrive at t=x
        assert light_travel_time(0.0, 3.5) == 3.5

    def test_colluder_separation_is_two_delta(self):
        x, delta = 1.0, 0.1
        assert light_travel_time(x - delta, x + delta) == pytest.approx(2 * delta, abs=1e-9)

    def test_symmetry(self):
        assert light_travel_time(-1.5, 4.0) == light_travel_time(4.0, -1.5)


class TestWorldPoint:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            WorldPoint(math.inf, 0.0)


class TestScheduling:
    def test_equal_times_processed_in_actor_id_order(self):
        tl = timeline()
        seen = []
        tl.schedule(1.0, P, "b", lambda: seen.append("P"))
        tl.schedule(1.0, V1, "a", lambda: seen.append("V1"))
        tl.schedule(1.0, V2, "c", lambda: seen.append("V2"))
        tl.run_until_quiescent()
        assert seen == ["V1", "V2", "P"]

    def test_same_actor_same_time_in_schedule_order(self):
        tl = timeline()
        seen = []
        tl.schedule(1.0, P, "first", lambda: seen.append(1))
        tl.schedule(1.0, P, "second", lambda: seen.append(2))
        tl.run_until_quiescent()
        assert seen == [1, 2]

    def test_empty_schedule_empty_log(self):
        assert timeline().run_until_quiescent() == []

    def test_cannot_schedule_in_past(self):
        tl = timeline()
        tl.schedule(2.0, V1, "later", lambda: tl.schedule(1.0, V1, "past"))
        with pytest.raises(ValueError, match="past"):
            tl.run_until_quiescent()

    def test_cannot_schedule_just_before_now(self):
        # no tolerance: 5e-13 in the past is still the past, so time never runs backwards
        tl = timeline()
        tl.schedule(1.0, V1, "now", lambda: tl.schedule(1.0 - 5e-13, V1, "earlier"))
        with pytest.raises(ValueError, match="past"):
            tl.run_until_quiescent()
        assert [event.time for event in tl.log] == [1.0]

    def test_equal_arrival_messages_delivered_in_actor_order(self):
        tl = timeline()
        seen = []
        value_a = tl.new_value(P, "a", 0)
        value_b = tl.new_value(P, "b", 1)

        def emit():
            tl.send(P, V2, "to_v2", values=[value_b], handler=lambda m: seen.append("V2"))
            tl.send(P, V1, "to_v1", values=[value_a], handler=lambda m: seen.append("V1"))

        tl.schedule(0.0, P, "emit", emit)
        tl.run_until_quiescent()
        assert seen == ["V1", "V2"]  # both arrive at t=1, actor id breaks the tie


class TestMessaging:
    def test_arrival_time_exact(self):
        tl = timeline()
        value = tl.new_value(V1, "x", 7)
        messages = []

        def emit():
            messages.append(tl.send(V1, P, "data", values=[value]))

        tl.schedule(0.25, V1, "emit", emit)
        tl.run_until_quiescent()
        message = messages[0]
        assert message.arrival_time - message.emit_time == light_travel_time(V1.position, P.position)
        assert message.arrival_time == 1.25
        assert message.emit_point == WorldPoint(0.0, 0.25)
        assert message.arrival_point == WorldPoint(1.0, 1.25)

    def test_qubit_transit_and_ownership(self):
        tl = timeline()
        handle = QubitHandle(index=0, owner=V1.id)

        def emit():
            tl.send(V1, P, "qubit", qubits=[handle])

        tl.schedule(0.0, V1, "emit", emit)
        assert handle.owner == V1.id
        tl.run_until_quiescent()
        assert handle.owner == P.id and not handle.in_transit


class TestLedger:
    def test_send_of_unknown_value_raises(self):
        tl = timeline()
        secret = tl.new_value(V1, "secret", 42)

        def cheat():
            tl.send(P2, V2, "leak", values=[secret])

        tl.schedule(0.5, P2, "cheat", cheat)
        with pytest.raises(CausalityViolationError, match="secret"):
            tl.run_until_quiescent()

    def test_relay_after_delivery_is_legal(self):
        tl = timeline()
        value = tl.new_value(V1, "v", 1)
        tl.schedule(0.0, V1, "emit", lambda: tl.send(V1, P1, "hop1", values=[value],
                                                     handler=lambda m: tl.send(P1, P2, "hop2", values=[value])))
        tl.run_until_quiescent()
        assert tl.ledger.knows(P2.id, value, 0.9 + 0.2)
        assert not tl.ledger.knows(P2.id, value, 1.0)

    @pytest.mark.parametrize("direct_first", [True, False])
    def test_forward_between_two_arrivals_keeps_the_first(self, direct_first):
        # v reaches P twice: straight from V1 at t=1, and at t=3 as a copy V1 emits at t=2.
        # P forwards it at t=1.25, between the two arrivals. Deliveries run in arrival order
        # whichever copy is sent first, and the ledger and the offline check both keep the
        # first arrival, or the forward would read as superluminal.
        tl = timeline()
        value = tl.new_value(V1, "v", 3)
        delivered = []

        def emit():
            routes = [{}, {"emit_time": 2.0}]
            for route in routes if direct_first else routes[::-1]:
                tl.send(V1, P, "copy", values=[value], handler=lambda m: delivered.append(m.arrival_time), **route)

        tl.schedule(0.0, V1, "emit", emit)
        tl.schedule(1.25, P, "forward", lambda: tl.send(P, P2, "forward", values=[value]))
        tl.run_until_quiescent()
        assert delivered == [1.0, 3.0]
        assert tl.ledger.first_knowable(P.id, value) == 1.0
        assert verify_causality(tl) == []

    def test_read_enforces_ledger(self):
        tl = timeline()
        secret = tl.new_value(V1, "w", 9)
        assert tl.read(V1, secret) == 9
        with pytest.raises(CausalityViolationError):
            tl.read(P2, secret)

    def test_collapse_notice_logs_only(self):
        tl = timeline()
        handle = QubitHandle(index=2, owner=P.id)
        tl.schedule(1.0, P, "measure", lambda: tl.collapse_notice(P, [handle], "measured"))
        log = tl.run_until_quiescent()
        kinds = [e.kind for e in log]
        assert "collapse" in kinds


class TestMechanicalCheck:
    def _clean_run(self):
        tl = timeline()
        value = tl.new_value(V1, "v", 5)
        tl.schedule(0.0, V1, "emit", lambda: tl.send(V1, P, "m", values=[value]))
        tl.run_until_quiescent()
        return tl

    def test_clean_run_has_no_violations(self):
        assert verify_causality(self._clean_run()) == []

    def test_tampered_log_is_flagged(self):
        tl = self._clean_run()
        tl.now = 5.0
        secret = tl.new_value(V1, "late_secret", 1)
        tl.messages.append(Message(P2, V2, emit_time=0.0, arrival_time=0.9, kind="forged", values=(secret,)))
        violations = verify_causality(tl)
        assert len(violations) == 1 and "late_secret" in violations[0]


class TestDeterminism:
    def _run(self):
        tl = timeline()
        value = tl.new_value(V1, "v", 5)
        tl.schedule(0.0, V1, "emit", lambda: tl.send(V1, P, "m", values=[value]))
        tl.schedule(1.0, V2, "noop", None, "quiet")
        return format_event_log(tl.run_until_quiescent())

    def test_identical_logs(self):
        assert self._run() == self._run()

    def test_log_lines_are_structured(self):
        lines = self._run().splitlines()
        assert all(line.startswith("t=") and " actor=" in line and " kind=" in line for line in lines)
