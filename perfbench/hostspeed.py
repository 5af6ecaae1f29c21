"""The host's speed during a run, from a fixed reference computation.

The benchmark shares its host with other machines' work, and the host's
speed drifts in phases that last from seconds to minutes: the same run of
the same code reads up to 1.4 times slower in one phase than in another,
and an operation's best time over a run cannot filter a phase that covers
the whole run.  So the episodes of an untraced run also time a fixed
computation that does not call the program, ``PROBES`` times each, spread
evenly between their operations, and the gated timings are divided by how
much slower than ``REFERENCE_S`` that computation ran.  The scaled figures
read as the same work on the reference host in a quiet phase.

The computation resembles the program's own work in kind: it builds small
records and dictionaries keyed by strings, splits ``name@version`` names,
encodes payloads as canonical JSON and digests them, then walks the result
in sorted order.  It calls nothing in ``repro``, so a change to the program
leaves it as it is.
"""

from __future__ import annotations

import hashlib
import json
import statistics

#: Seconds of :func:`reference_work` (per-probe best, median over the
#: probes) on the host the benchmark was written on, a 2-vCPU KVM guest of
#: an Intel Xeon at 2.1 GHz with CPython 3.11, in a quiet phase.
REFERENCE_S = 0.00105

#: Probes per episode: the reference computation is timed once after every
#: hundredth of an episode's operations.
PROBES = 100

_NAMES = tuple(f"cell{i % 97}@{i // 97 + 1}" for i in range(200))


class _Record:
    __slots__ = ("base", "version", "payload")

    def __init__(self, base: str, version: int, payload: dict):
        self.base = base
        self.version = version
        self.payload = payload


def reference_work() -> int:
    """A fixed amount of work in the program's style; returns a checksum."""
    index: dict[str, list[_Record]] = {}
    digest = 0
    for i, name in enumerate(_NAMES):
        base, _, version = name.partition("@")
        record = _Record(base, int(version),
                         {"cell": base, "pins": [i, i + 1, i + 2],
                          "area": i * 3, "tool": "mark"})
        index.setdefault(base, []).append(record)
        text = json.dumps(record.payload, sort_keys=True)
        digest ^= int(hashlib.sha1(text.encode()).hexdigest()[:8], 16)
    for base in sorted(index):
        for record in index[base]:
            digest += record.version + len(record.payload["pins"])
    return digest


def slowdown(probes: list[float]) -> float:
    """How many times slower than ``REFERENCE_S`` the host ran, from the
    run's per-probe best times (the i-th probe's fastest over the
    episodes, as an operation's time is its fastest): their median over
    ``REFERENCE_S``."""
    return statistics.median(probes) / REFERENCE_S
