"""The scheduler's event queue: timed entries in one total order.

It knows nothing about requests, batches or machines — an entry is a
time, a kind label and an opaque datum. Entries pop in ``(t, seq)``
order, where ``seq`` is issued by one counter at push time, so two
entries due at the same instant pop in the order they were pushed.

Most entries of a serving run arrive already sorted (an open loop primes
every arrival in time order before the loop starts), and a binary heap
charges O(log n) twice for what is a plain queue. So a push that is not
earlier than the last streamed entry is appended to a ``deque`` — the
*stream*, sorted by construction — and only the rest go to the heap.
``drain`` takes the smaller of the two fronts: both structures are
ordered by the same ``(t, seq)`` key and every entry is in exactly one of
them, so the pop order is the one a single heap would give. ``popleft``
releases a consumed entry at once, as ``heappop`` did. ``extend``
issues a column the seqs its single pushes would have had; a sorted one
not behind the stream's tail is one ``deque.extend``.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import islice, repeat
from operator import le
from typing import Any, Deque, Iterator, List, Sequence, Tuple

#: ``(t, seq, kind, data)`` — ``seq`` is unique, so comparing two entries
#: never reaches ``kind`` or ``data``
Event = Tuple[float, int, str, Any]


class EventQueue:
    def __init__(self) -> None:
        self._stream: Deque[Event] = deque()
        self._heap: List[Event] = []
        self._seq = 0

    def push(self, t: float, kind: str, data: Any = None) -> None:
        entry = (t, self._seq, kind, data)
        self._seq += 1
        stream = self._stream
        # seq only grows, so ``t`` alone decides whether the stream
        # stays sorted (an empty stream accepts anything)
        if not stream or t >= stream[-1][0]:
            stream.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    def extend(self, ts: Sequence[float], kind: str,
               data: Sequence[Any]) -> None:
        """``push(t, kind, d)`` for each ``(t, d)``, in order."""
        stream, seq = self._stream, self._seq
        if (ts and (not stream or ts[0] >= stream[-1][0])
                and all(map(le, ts, islice(ts, 1, None)))):
            stream.extend(zip(ts, range(seq, seq + len(ts)), repeat(kind),
                              data))
            self._seq = seq + len(ts)
        else:
            for t, d in zip(ts, data):
                self.push(t, kind, d)

    def drain(self) -> Iterator[Event]:
        """Pop entries in order until none is left, later pushes too."""
        stream, heap = self._stream, self._heap
        while stream or heap:
            if stream and (not heap or stream[0] < heap[0]):
                yield stream.popleft()
            else:
                yield heapq.heappop(heap)

    def __bool__(self) -> bool:
        return bool(self._stream or self._heap)
