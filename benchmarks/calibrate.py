"""A fixed reference load that gauges how fast the machine runs at the moment.

On a shared host the same solve can take 1.6 times longer for seconds or
minutes at a time, because other tenants contend for the cores, caches
and clock.  A run of 30 s cannot average such a swing away.  So the run
times this reference load between consecutive solves (and set-ups), and
rescales each one to the speed at which the reference takes REFERENCE_S:

    rescaled = seconds * REFERENCE_S / mean(reference before, reference after)

One reference is PIECES short passes, and their median times PIECES, so
that a blip of a few milliseconds does not set the scale of a whole solve.

The reference mixes what a packflow step does: interpreted loops over
small Python containers, elementwise numpy on arrays of a mesh's size,
gathers and scatter-adds, and a small symmetric eigensolve.  It uses no
packflow code, so no change to the library moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About what the reference took on the 2-core Intel Xeon VM the bounds
# were set on; rescaled times read as seconds on that machine.
REFERENCE_S = 0.025
PIECES = 5

_rng = np.random.default_rng(20230804)
_VALUES = _rng.uniform(0.1, 0.9, 1200)
_INDEX = _rng.integers(0, 400, 2400)
_SQUARE = _rng.uniform(-1.0, 1.0, (48, 48))
_SYMMETRIC = _SQUARE + _SQUARE.T


def _load() -> float:
    total = 0.0
    counts: dict[int, int] = {}
    for i in range(9600):
        key = (i * 7919) & 511
        counts[key] = counts.get(key, 0) + 1
    total += len(counts)
    for _ in range(96):
        angles = np.arccos(np.clip(_VALUES * 0.9, -1.0, 1.0))
        sums = np.bincount(_INDEX, weights=np.concatenate([angles, angles]), minlength=400)
        total += float(np.max(np.abs(sums - np.pi)))
    for _ in range(5):
        total += float(np.linalg.eigh(_SYMMETRIC)[0][0])
    return total


def reference_seconds() -> float:
    """Wall seconds of the reference load, from the median of its pieces."""
    pieces = []
    for _ in range(PIECES):
        start = time.perf_counter()
        _load()
        pieces.append(time.perf_counter() - start)
    return PIECES * statistics.median(pieces)


def rescale(seconds: list[float], references: list[float]) -> list[float]:
    """Rescale ``seconds[i]`` by ``references[i]`` and ``references[i + 1]``, taken around it."""
    if len(references) != len(seconds) + 1:
        raise ValueError(f"{len(seconds)} timings need {len(seconds) + 1} references")
    return [
        t * 2.0 * REFERENCE_S / (before + after)
        for t, before, after in zip(seconds, references, references[1:])
    ]
