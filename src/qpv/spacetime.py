"""1D Minkowski event timeline with light-speed messaging and knowledge ledgers.

Units use c = 1, so transit time equals coordinate distance. Actors sit at
fixed positions; classical values propagate only through messages whose
arrival time is exactly ``emit_time + |sender - receiver|``, while measurement
collapse updates the global quantum state at once without carrying any
classical bit. A per-actor knowledge ledger records when each classical value
first becomes knowable; emitting a payload that depends on a value the sender
cannot yet know raises :class:`CausalityViolationError` (a hard failure: it
signals a simulator bug or an illegal adversary strategy).

Event ordering is deterministic: (time, actor id, sequence number). Every
time comparison is exact, with no tolerance: an arrival time and a read at
that arrival are the same float, so nothing is knowable, schedulable or
emittable even 1e-13 before it may be.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .quantum import QubitHandle


class CausalityViolationError(RuntimeError):
    """A classical value was used before it could have reached the actor."""


def light_travel_time(p1: float, p2: float) -> float:
    """Transit time between two positions at light speed (c = 1)."""
    return abs(p1 - p2)


@dataclass(frozen=True)
class WorldPoint:
    """A position/time coordinate pair on the common rest frame."""

    position: float
    time: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.position) and math.isfinite(self.time)):
            raise ValueError("world point coordinates must be finite")


@dataclass(frozen=True)
class Actor:
    """A protocol participant at a fixed position; local processing takes no time."""

    id: int
    name: str
    position: float


@dataclass(eq=False)
class ClassicalValue:
    """A classical datum with a unique id and a creation event."""

    vid: int
    name: str
    payload: Any
    created_by: int
    created_at: float

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassicalValue({self.vid}:{self.name}@t={self.created_at})"


@dataclass(eq=False)
class Message:
    """A light-speed transmission of classical values and/or qubit handles."""

    sender: Actor
    receiver: Actor
    emit_time: float
    arrival_time: float
    kind: str
    values: tuple[ClassicalValue, ...] = ()
    qubits: tuple[QubitHandle, ...] = ()

    @property
    def emit_point(self) -> WorldPoint:
        return WorldPoint(self.sender.position, self.emit_time)

    @property
    def arrival_point(self) -> WorldPoint:
        return WorldPoint(self.receiver.position, self.arrival_time)


@dataclass(frozen=True)
class Event:
    """One entry of the run log."""

    time: float
    actor: str
    kind: str
    detail: str


def format_event(event: Event) -> str:
    return f"t={event.time!r} actor={event.actor} kind={event.kind} detail={event.detail}"


def format_event_log(events: Iterable[Event]) -> str:
    """Line-delimited structured text stream, one event per line."""
    return "\n".join(format_event(e) for e in events)


class KnowledgeLedger:
    """Per-actor record of when each classical value first becomes knowable."""

    def __init__(self) -> None:
        self._first_knowable: dict[tuple[int, int], float] = {}

    def record(self, actor_id: int, value: ClassicalValue, time: float) -> None:
        """Keep the first record of ``value`` at ``actor_id``.

        Every record is made at the timeline's current time, which never runs
        backwards, so the first record is the earliest.
        """
        self._first_knowable.setdefault((actor_id, value.vid), time)

    def first_knowable(self, actor_id: int, value: ClassicalValue) -> float:
        return self._first_knowable.get((actor_id, value.vid), math.inf)

    def knows(self, actor_id: int, value: ClassicalValue, time: float) -> bool:
        return self.first_knowable(actor_id, value) <= time


class Timeline:
    """Deterministic discrete-event queue for a single trial."""

    def __init__(self, actors: Iterable[Actor]):
        self.actors = {a.id: a for a in actors}
        self.now = 0.0
        self.ledger = KnowledgeLedger()
        self.log: list[Event] = []
        self.messages: list[Message] = []
        self.values: list[ClassicalValue] = []
        self._queue: list[tuple[float, int, int, Callable[[], None] | None, str, str, str]] = []
        self._seq = 0

    # -- values -------------------------------------------------------------

    def new_value(self, actor: Actor, name: str, payload: Any) -> ClassicalValue:
        """Register a classical value created locally at ``actor`` now."""
        value = ClassicalValue(vid=len(self.values), name=name, payload=payload, created_by=actor.id,
                               created_at=self.now)
        self.values.append(value)
        self.ledger.record(actor.id, value, self.now)
        return value

    def read(self, actor: Actor, value: ClassicalValue) -> Any:
        """Read a value at the current time, enforcing the ledger."""
        if not self.ledger.knows(actor.id, value, self.now):
            raise CausalityViolationError(
                f"{actor.name} cannot know {value.name!r} at t={self.now} "
                f"(first knowable t={self.ledger.first_knowable(actor.id, value)})"
            )
        return value.payload

    # -- scheduling ---------------------------------------------------------

    def schedule(self, time: float, actor: Actor, kind: str, fn: Callable[[], None] | None = None, detail: str = "") -> None:
        """Queue an event; events run in (time, actor id, sequence) order."""
        if time < self.now:
            raise ValueError(f"cannot schedule an event in the past (t={time} < now={self.now})")
        heapq.heappush(self._queue, (time, actor.id, self._seq, fn, kind, detail, actor.name))
        self._seq += 1

    def send(
        self,
        sender: Actor,
        receiver: Actor,
        kind: str,
        values: Iterable[ClassicalValue] = (),
        qubits: Iterable[QubitHandle] = (),
        handler: Callable[[Message], None] | None = None,
        emit_time: float | None = None,
    ) -> Message:
        """Emit a message now (or at a given emit time >= now).

        Every classical value in the payload must already be knowable to the
        sender at the emit time; violations raise CausalityViolationError.
        Qubit payloads are marked in transit until delivery transfers
        ownership to the receiver.
        """
        emit = self.now if emit_time is None else emit_time
        if emit < self.now:
            raise ValueError("emit time lies in the past")
        values = tuple(values)
        qubits = tuple(qubits)
        for value in values:
            if not self.ledger.knows(sender.id, value, emit):
                raise CausalityViolationError(
                    f"{sender.name} emitted {value.name!r} at t={emit} but can first know it at "
                    f"t={self.ledger.first_knowable(sender.id, value)}"
                )
        arrival = emit + light_travel_time(sender.position, receiver.position)
        message = Message(sender, receiver, emit, arrival, kind, values, qubits)
        self.messages.append(message)
        for q in qubits:
            q.in_transit = True
            q.owner = None
        self._log(emit, sender.name, "send", kind + " -> " + receiver.name)
        self.schedule(arrival, receiver, "recv", lambda: self._deliver(message, handler), detail=kind + " from " + sender.name)
        return message

    def _deliver(self, message: Message, handler: Callable[[Message], None] | None) -> None:
        for value in message.values:
            self.ledger.record(message.receiver.id, value, message.arrival_time)
        for q in message.qubits:
            q.in_transit = False
            q.owner = message.receiver.id
        if handler is not None:
            handler(message)

    def collapse_notice(self, site: Actor, qubits: Iterable[QubitHandle], detail: str = "") -> None:
        """Record that a measurement at ``site`` collapsed the listed qubits.

        Collapse is non-local: the global state already changed everywhere.
        Only the measuring site gains a ledger entry for the classical
        outcome; other actors learn it via messages alone.
        """
        indices = ",".join(str(q.index) for q in qubits)
        self._log(self.now, site.name, "collapse", f"qubits[{indices}] {detail}".strip())

    # -- run loop -------------------------------------------------------------

    def _log(self, time: float, actor: str, kind: str, detail: str) -> None:
        self.log.append(Event(time, actor, kind, detail))

    def run_until_quiescent(self) -> list[Event]:
        """Process all queued events in deterministic order; returns the log."""
        while self._queue:
            time, actor_id, _seq, fn, kind, detail, actor_name = heapq.heappop(self._queue)
            self.now = time
            self._log(time, actor_name, kind, detail)
            if fn is not None:
                fn()
        return self.log


def verify_causality(timeline: Timeline) -> list[str]:
    """Mechanical no-superluminal-signaling check over a finished run.

    Rebuilds first-knowable times from value creations and message arrivals
    alone, then confirms every emitted payload was knowable to its sender at
    the emit time. Returns a list of violation descriptions (empty = clean).
    """
    knowable: dict[tuple[int, int], float] = {}
    for value in timeline.values:
        knowable[(value.created_by, value.vid)] = value.created_at
    for message in timeline.messages:
        for value in message.values:
            key = (message.receiver.id, value.vid)
            t = message.arrival_time
            if key not in knowable or t < knowable[key]:
                knowable[key] = t
    violations = []
    for message in timeline.messages:
        for value in message.values:
            first = knowable.get((message.sender.id, value.vid), math.inf)
            if message.emit_time < first:
                violations.append(
                    f"{message.sender.name} emitted {value.name!r} at t={message.emit_time} "
                    f"but could first know it at t={first}"
                )
    return violations
