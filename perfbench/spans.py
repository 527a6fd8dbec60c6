"""Span bookkeeping shared by the traced child and the self-tests.

A span is the tuple (name, start, end, parent), where parent is the index of
the enclosing span in the same list, or -1 for a root.  A span's self time
is its duration minus the part of its interval that its direct children
cover.
"""

from __future__ import annotations


def _covered(interval, children) -> float:
    """Length of the union of the children's intervals, clipped to interval."""
    lo, hi = interval
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in children if e > lo and s < hi)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Self time of every span, in the order given."""
    children = [[] for _ in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered((start, end), children[i])
        for i, (_name, start, end, _parent) in enumerate(spans)
    ]


def summarize(spans) -> dict:
    """Per span name: [calls, self seconds, total seconds]."""
    out = {}
    for (name, start, end, _parent), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += own
        row[2] += end - start
    return out
