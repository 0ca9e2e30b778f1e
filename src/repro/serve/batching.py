"""Admission queue and lane-packed batch formation.

The NumPy backend already executes every multiloop across a lane axis
(``backend/vectorize.py``); the batcher exploits that by coalescing
pending invocations of the *same cached program on the same payload*
into one vectorized execution whose lanes all requests share. Grouping
is by content — ``payload_digest`` fingerprints the input structure —
so the packed execution is literally the single execution each request
would have run alone, which is what makes batched results and
``ExecStats`` bit-identical to sequential runs (the acceptance bar).
Requests whose payloads differ never share lanes: packing them into one
loop would merge their reductions and bucket keys, i.e. change answers.

Two knobs bound the admission window: ``max_batch`` caps how many
requests one execution may serve, and ``max_wait`` caps how long the
oldest request may sit waiting for lane-mates before the group
dispatches anyway.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: one float element of the digest stream, ``b"F" + struct.pack("<d", x)``
_FLOAT_ITEM = np.dtype([("tag", "S1"), ("value", "<f8")])


def _uniform_items(v) -> Optional[bytes]:
    """The bytes ``_walk`` feeds for the elements of a list that holds
    nothing but ``float``s or nothing but ``int``s, built without a Python
    call per element; ``None`` for any other list. Types are matched
    exactly: ``bool`` (an ``int`` subclass with its own tag) and numeric
    subclasses stay on the per-element path."""
    kinds = set(map(type, v))
    if kinds == {float}:
        items = np.empty(len(v), dtype=_FLOAT_ITEM)
        items["tag"] = b"F"
        items["value"] = v
        return items.tobytes()
    if kinds == {int}:
        return b"I%d;" * len(v) % tuple(v)
    return None


def _walk(h, v: Any) -> None:
    if v is None:
        h.update(b"N")
    elif isinstance(v, bool):
        h.update(b"B1" if v else b"B0")
    elif isinstance(v, int):
        h.update(b"I%d;" % v)
    elif isinstance(v, float):
        h.update(b"F" + struct.pack("<d", v))
    elif isinstance(v, str):
        h.update(b"S%d;" % len(v) + v.encode("utf-8", "replace"))
    elif isinstance(v, (list, tuple)):
        h.update(b"L%d;" % len(v))
        items = _uniform_items(v)
        if items is not None:
            h.update(items)
        else:
            for x in v:
                _walk(h, x)
    elif isinstance(v, dict):
        h.update(b"D%d;" % len(v))
        for k in sorted(v, key=str):
            _walk(h, str(k))
            _walk(h, v[k])
    else:
        # structured rows (dataclass-like) fall back to a stable repr
        h.update(b"O" + repr(v).encode("utf-8", "replace"))


def payload_digest(inputs: Dict[str, Any]) -> str:
    """Content fingerprint of a request's inputs (16 hex chars)."""
    h = hashlib.sha256()
    _walk(h, inputs)
    return h.hexdigest()[:16]


@dataclass(eq=False)
class Payload:
    """A request's inputs and their two identities: ``digest`` says what
    the inputs *are* (a functional execution depends on nothing else),
    ``key`` says which requests may share a batch."""

    inputs: Dict[str, Any]
    #: what ``AdmissionQueue`` groups by: the digest, plus a tenant's salt
    key: str
    #: ``payload_digest(inputs)``; a payload built by hand from a key
    #: alone has that key as its content identity
    digest: str = ""

    def __post_init__(self) -> None:
        self.digest = self.digest or self.key

    def salted(self, salt: str) -> "Payload":
        """A *distinct logical* payload sharing this one's data (traffic
        simulation: many tenants, same measured dataset) — salted
        payloads never lane-pack together, and share one execution."""
        return Payload(self.inputs, f"{self.key}:{salt}", self.digest)


def make_payload(inputs: Dict[str, Any],
                 salt: Optional[str] = None) -> Payload:
    """Build a payload, digesting ``inputs``; see ``Payload.salted``."""
    payload = Payload(inputs, payload_digest(inputs))
    return payload if salt is None else payload.salted(salt)


@dataclass(eq=False)
class Request:
    """One invocation of a served app."""

    rid: int
    app: str
    payload: Payload
    arrival_s: float
    #: closed-loop client index, or -1 for open-loop traffic
    client: int = -1
    #: execution attempt index: 0 for the original submission, bumped
    #: for each retry/re-enqueue/hedge clone (``arrival_s`` stays the
    #: original arrival so latency is always end-to-end)
    attempt: int = 0
    #: absolute simulated deadline, or None when deadlines are off
    deadline_s: Optional[float] = None
    #: when a clone was spawned; the first attempt's is ``arrival_s``
    spawn_s: Optional[float] = None
    #: when this attempt entered the admission queue
    enqueue_s: Optional[float] = None


@dataclass(eq=False)
class Response:
    request: Request
    results: Tuple[Any, ...]
    stats: Any                    # ExecStats of the execution that served it
    backend: str
    batch_id: int
    batch_size: int
    start_s: float
    finish_s: float
    #: True when this response shared a vectorized execution's lanes
    #: with at least one other request
    lane_packed: bool
    fallback_reason: Optional[str] = None
    #: the serving replica that executed the batch, as ``name[index]``
    machine: str = ""
    #: when this response's execution began: ``start_s``, or its own slot
    #: in a serialized fallback batch
    exec_start_s: Optional[float] = None

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.request.arrival_s

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.request.arrival_s


@dataclass
class ServeFallback:
    """Recorded (never silent) drop to per-request reference execution —
    the serving-layer mirror of the backend's ``FallbackRecord``. One
    record per batch served that way; a capture whose execution raised
    adds one more, with ``requests == 0``, on the server that performed
    it (placement meets the failure before any batch does);
    ``ServeReport.fallbacks`` counts the batches only."""

    app: str
    reason: str
    requests: int


class AdmissionQueue:
    """Pending requests grouped by ``(app, payload.key)``.

    A group is *ready* once it holds ``max_batch`` requests or its
    oldest request has waited ``max_wait_s``. ``next_ready`` picks the
    ready group whose head has waited longest (FIFO across groups), so
    admission order is deterministic.

    ``push`` and ``take`` tell the caller when a group's head changes,
    which is all the scheduler needs to keep one pending flush per
    non-empty group (DESIGN.md §9).
    """

    def __init__(self) -> None:
        self._groups: Dict[Tuple[str, str], List[Request]] = {}
        self._count = 0

    def push(self, req: Request) -> int:
        """Append ``req`` to its group and return the group's new size:
        1 means ``req`` became the group's head."""
        reqs = self._groups.setdefault((req.app, req.payload.key), [])
        reqs.append(req)
        self._count += 1
        return len(reqs)

    def next_ready(self, now: float, max_batch: int,
                   max_wait_s: float) -> Optional[Tuple[str, str]]:
        best: Optional[Tuple[float, Tuple[str, str]]] = None
        for key, reqs in self._groups.items():
            head = reqs[0].arrival_s
            ready = (len(reqs) >= max_batch
                     or now - head >= max_wait_s - 1e-12)
            if ready and (best is None or head < best[0]):
                best = (head, key)
        return None if best is None else best[1]

    def take(self, key: Tuple[str, str], max_batch: int
             ) -> Tuple[List[Request], Optional[Request]]:
        """Remove up to ``max_batch`` requests from the front of group
        ``key``; also return the group's new head, or ``None`` when the
        group emptied."""
        reqs = self._groups.get(key, [])
        out, rest = reqs[:max_batch], reqs[max_batch:]
        self._count -= len(out)
        if rest:
            self._groups[key] = rest
            return out, rest[0]
        self._groups.pop(key, None)
        return out, None

    def drain(self) -> List[Request]:
        """Remove and return every pending request, in group order then
        FIFO — the shutdown sweep that turns stranded requests into
        explicit rejections instead of silent losses."""
        out: List[Request] = []
        for key in sorted(self._groups):
            out.extend(self._groups[key])
        self._groups.clear()
        self._count = 0
        return out

    def __len__(self) -> int:
        return self._count
