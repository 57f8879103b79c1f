"""A fixed probe of how fast the shared host runs right now.

On a shared host the speed of the same code swings by up to 50 % and
holds for a few seconds at a time, so raw times depend on when they were
taken.  The probe is a few milliseconds of work shaped like qgrs's own (a
pure-Python elimination over a prime field with list rows, and batched
numpy table lookups), but independent of the package, so no change to qgrs
can change it.  It is timed between operations; a time measured from
``start`` to ``end`` is scaled by REF_S, the probe's time on a quiet
2-core VM, over the median probe time near that interval.
"""
from __future__ import annotations

import bisect
import random
import statistics
import time

import numpy as np

REF_S = 0.003
# samples this close (in seconds) to an interval give its speed; the host's
# speed holds for several seconds at a time
WINDOW_S = 1.0
_P = 13
_INV = [0] + [pow(i, _P - 2, _P) for i in range(1, _P)]


class SpeedProbe:
    def __init__(self) -> None:
        rng = random.Random(1)
        self._rows = [[rng.randrange(_P) for _ in range(24)] for _ in range(12)]
        nrng = np.random.default_rng(0)
        self._table = nrng.integers(0, _P * _P, size=(_P * _P, _P * _P),
                                    dtype=np.int32)
        self._batch = nrng.integers(0, _P * _P, size=(2048, 5, 5),
                                    dtype=np.int32)
        self.times: list[float] = []
        self.samples: list[float] = []
        self._work()  # warm-up, not a sample

    def _work(self) -> None:
        for _ in range(3):
            rows = [list(r) for r in self._rows]
            pr = 0
            for col in range(len(rows[0])):
                sel = next((i for i in range(pr, len(rows)) if rows[i][col]),
                           None)
                if sel is None:
                    continue
                rows[pr], rows[sel] = rows[sel], rows[pr]
                inv = _INV[rows[pr][col]]
                rows[pr] = [inv * c % _P for c in rows[pr]]
                for i, row in enumerate(rows):
                    if i != pr and row[col]:
                        f = row[col]
                        rows[i] = [(a - f * b) % _P for a, b in zip(row, rows[pr])]
                pr += 1
                if pr == len(rows):
                    break
        m = self._batch.copy()
        for c in range(m.shape[1]):
            m[:, c:, :] = self._table[m[:, c:, :], m[:, c:c + 1, :]]

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._work()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.samples.append(t1 - t0)

    def scale(self, start: float = -float("inf"),
              end: float = float("inf")) -> float:
        """Factor that turns a time measured from ``start`` to ``end`` into a
        time at REF_S speed, from the samples within WINDOW_S of it (all
        samples when none is that close)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return REF_S / statistics.median(self.samples[lo:hi] or self.samples)
