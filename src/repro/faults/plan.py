"""Deterministic, seed-driven fault plans and the injector that fires them.

A :class:`FaultPlan` is a list of :class:`FaultEvent`\\ s, each saying
*where* (a named injection site like ``server.assign``), *when* (the
``at``-th time that site is reached — a counter, not a clock, which is
what makes replays deterministic) and *what* (a fault kind plus an
optional argument). Serving components accept a :class:`FaultInjector`
via an injectable hook; subprocess workers pick theirs up from the
``REPRO_FAULT_PLAN`` environment variable (a JSON plan, or ``@path`` to
a plan file) so a supervisor-spawned fleet can be faulted without any
code path knowing about the test.

Fault kinds and where they bite:

=============  =========================================================
``delay``      sleep ``arg`` seconds before handling (latency injection)
``refuse``     sever the connection before any response byte
               (connect-refused / dead-worker semantics)
``disconnect`` sever mid-response after ``arg`` payload frames, or — at
               proxy lane sites — kill the lane's worker connection at a
               frame boundary and poison the url (dead-lane replay)
``truncate``   stop the response stream mid-frame, then sever
``corrupt``    flip a byte inside a response frame payload
``slow``       slow-loris: sleep ``arg`` seconds around **every** frame
               from this event on (trickled reads/writes)
``skew``       report a mutated model version (proxy version-skew drill)
``sigkill``    | chaos-harness process faults: deliver the signal to the
``sigstop``    | fleet worker whose index is ``arg``
``sigcont``    |
=============  =========================================================

Sites are free-form dotted strings; the components document theirs
(``server.assign``, ``server.stream``, ``client.request``,
``proxy.lane{n}.frame``, ``proxy.lane.version``, ``backend.score``,
``chaos.process``). An injector with no matching event is a no-op, so
hooks cost one dict lookup on the hot path and nothing at all when no
injector is configured.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any

#: Environment variable carrying a JSON fault plan (or ``@/path/to/plan``)
#: into subprocess workers spawned by a fleet supervisor or a
#: multiprocess training backend.
PLAN_ENV = "REPRO_FAULT_PLAN"

#: Every fault kind a plan may carry.
FAULT_KINDS = frozenset(
    {
        "delay",
        "refuse",
        "disconnect",
        "truncate",
        "corrupt",
        "slow",
        "skew",
        "sigkill",
        "sigstop",
        "sigcont",
    }
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire *kind* the *at*-th time *site* is hit."""

    site: str
    at: int
    kind: str
    arg: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.at < 0:
            raise ValueError(f"event index must be >= 0, got {self.at}")

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {"site": self.site, "at": self.at, "kind": self.kind}
        if self.arg is not None:
            record["arg"] = self.arg
        return record

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "FaultEvent":
        try:
            site, at, kind = record["site"], record["at"], record["kind"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed fault event record {record!r}") from exc
        return cls(site=str(site), at=int(at), kind=str(kind), arg=record.get("arg"))


class FaultPlan:
    """An immutable schedule of :class:`FaultEvent`\\ s.

    Two events may not share a ``(site, at)`` slot — a plan is a
    function from invocation to fault, not a pile of coin flips, and
    rejecting duplicates at construction keeps replays unambiguous.
    """

    def __init__(self, events: Any = ()) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.site, e.at))
        )
        self._by_site: dict[str, dict[int, FaultEvent]] = {}
        for event in self.events:
            slot = self._by_site.setdefault(event.site, {})
            if event.at in slot:
                raise ValueError(
                    f"duplicate fault event at ({event.site!r}, {event.at})"
                )
            slot[event.at] = event

    def event_at(self, site: str, index: int) -> FaultEvent | None:
        """The event scheduled for the *index*-th hit of *site*, if any."""
        return self._by_site.get(site, {}).get(index)

    def for_site(self, site: str) -> tuple[FaultEvent, ...]:
        return tuple(
            sorted(self._by_site.get(site, {}).values(), key=lambda e: e.at)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def to_json(self) -> str:
        return json.dumps(
            {"events": [event.to_dict() for event in self.events]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict) or not isinstance(data.get("events"), list):
            raise ValueError("fault plan JSON must be {'events': [...]}")
        return cls(FaultEvent.from_dict(record) for record in data["events"])

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        site: str,
        length: int,
        rates: dict[str, float],
        args: dict[str, tuple[float, float]] | None = None,
    ) -> "FaultPlan":
        """A seed-derived plan: same seed, same schedule, every time.

        For each invocation index in ``range(length)`` one fault fires
        with probability ``sum(rates.values())``, its kind drawn
        proportionally to the per-kind rates and its ``arg`` uniform
        over the ``args[kind]`` interval (where given). Uses its own
        :class:`random.Random` so ambient randomness never leaks in.
        """
        import random

        rng = random.Random(seed)
        kinds = sorted(rates)
        total = sum(rates[kind] for kind in kinds)
        if total > 1.0:
            raise ValueError(f"fault rates sum to {total} > 1")
        events = []
        for index in range(length):
            roll = rng.random()
            acc = 0.0
            for kind in kinds:
                acc += rates[kind]
                if roll < acc:
                    arg = None
                    if args and kind in args:
                        lo, hi = args[kind]
                        arg = rng.uniform(lo, hi)
                    events.append(FaultEvent(site, index, kind, arg))
                    break
        return cls(events)


class _Site:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class FaultInjector:
    """Thread-safe runtime for one :class:`FaultPlan`.

    Components call :meth:`check` (count the hit, return the scheduled
    event if any) or :meth:`fire` (additionally *acts* on the generic
    ``delay`` kind so call sites stay one line). Sticky lane state —
    "this worker url is dead now" — lives in :meth:`poison` /
    :meth:`poisoned`, which lets a single mid-stream disconnect event
    keep failing the client's transparent retry the way a truly dead
    worker would.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._sites: dict[str, _Site] = {}
        self._poisoned: set[str] = set()

    def check(self, site: str) -> FaultEvent | None:
        """Count one hit of *site*; return the event scheduled for it."""
        with self._lock:
            state = self._sites.setdefault(site, _Site())
            index = state.count
            state.count += 1
        return self.plan.event_at(site, index)

    def fire(self, site: str) -> FaultEvent | None:
        """:meth:`check`, plus act on ``delay`` in place.

        Returns the event (including an acted-on delay) so call sites
        can still branch on kinds they implement themselves.
        """
        event = self.check(site)
        if event is not None and event.kind == "delay":
            time.sleep(float(event.arg or 0.0))
        return event

    def count(self, site: str) -> int:
        """How many times *site* has been hit so far."""
        with self._lock:
            state = self._sites.get(site)
            return state.count if state is not None else 0

    def counts(self) -> dict[str, int]:
        """Hit counts for every site touched so far.

        The telemetry collector (:func:`repro.obs.fault_collector`)
        reads this at scrape time — a live view, not a copy kept in
        sync.
        """
        with self._lock:
            return {site: state.count for site, state in self._sites.items()}

    def poison(self, key: str) -> None:
        """Mark a lane (worker url) as sticky-dead for this injector."""
        with self._lock:
            self._poisoned.add(key)

    def poisoned(self, key: str) -> bool:
        with self._lock:
            return key in self._poisoned

    def to_env(self) -> str:
        """The ``REPRO_FAULT_PLAN`` value reproducing this plan."""
        return self.plan.to_json()

    @classmethod
    def from_env(
        cls, environ: Any = None
    ) -> "FaultInjector | None":
        """Build an injector from ``REPRO_FAULT_PLAN``, if set.

        Accepts inline JSON or ``@/path/to/plan.json``. A present but
        unparseable value raises — a typo'd chaos run silently testing
        nothing is worse than a crash.
        """
        value = (environ if environ is not None else os.environ).get(PLAN_ENV)
        if not value:
            return None
        if value.startswith("@"):
            with open(value[1:], encoding="utf-8") as handle:
                value = handle.read()
        return cls(FaultPlan.from_json(value))
