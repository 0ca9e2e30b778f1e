"""Plain-text table rendering for the benchmark harness output."""

from __future__ import annotations

from typing import List, Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for r in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
