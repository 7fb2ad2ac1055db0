"""Host speed, read from a fixed reference kernel timed between the
program's calls, and the scaling of measured times to one reference speed.

The shared VM the benchmark was built on runs the same code at speeds up
to 1.8x apart, in phases of a few seconds to many minutes, on each
virtual CPU apart; thread CPU time moves with wall time, so the slowdown
is not time taken from the guest.  Taking the fastest of several passes
removes the short phases but not a slow phase that covers a whole run.
So every timed interval is paired with the reference kernel run next to
it, and a time t measured where the kernel takes r seconds is reported as
t * REF_S / r: the time the interval would take where the kernel takes
REF_S.  A faster program still reads faster; a slower host does not.

The kernel does the kind of work the program does, with code of its own
so that a change to the program cannot change it: row reduction of a
small matrix with numpy table lookups over a field of 25 elements, a
digit-plane product, and pure-Python integer loops.  On the baseline VM
the ratio of a repcurve decision to the kernel moved about a tenth as
much as the decision's own time did.
"""

import statistics
import time

import numpy as np

# Scaled times are times where the kernel takes this long; on the
# baseline VM it takes 0.85-1.5 ms.
REF_S = 1.0e-3
# Samples on each side of an interval that give its local speed.
WINDOW = 3

_Q, _P, _N = 25, 5, 16
_rng = np.random.default_rng(20241003)
_MUL = _rng.integers(0, _Q, (_Q, _Q))
_SUB = _rng.integers(0, _Q, (_Q, _Q))
_INV = _rng.integers(1, _Q, _Q)
_A = _rng.integers(0, _Q, (_N, _N))
_ROWS = [[(i * j + 1) % _Q for j in range(12)] for i in range(12)]


def kernel():
    """A fixed amount of work, about 1 ms on the baseline VM."""
    for _ in range(2):
        M = _A.copy()
        r = 0
        for c in range(_N):
            nz = np.nonzero(M[r:, c])[0]
            if nz.size == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                M[[r, pr]] = M[[pr, r]]
            M[r] = _MUL[int(_INV[M[r, c]]), M[r]]
            f = M[:, c].copy()
            f[r] = 0
            M[...] = _SUB[M, _MUL[f[:, None], M[r][None, :]]]
            r += 1
        lo, hi = M % _P, M // _P
        M = (lo @ hi + hi @ lo) % _P
    s = 0
    for _ in range(2):
        for row in _ROWS:
            for c in range(12):
                acc = 0
                for k in range(12):
                    acc += row[k] * _ROWS[k][c]
                s += acc % _Q
    return s


class Speed:
    """Reference samples taken between timed intervals.  A Speed made
    with on=False takes none and scales nothing (for the traced pass,
    whose layer times must not include the kernel)."""

    def __init__(self, on=True):
        self.on = on
        self.samples = []
        if on:
            kernel()  # first-call costs stay out of the samples

    def sample(self, n=1):
        """Run the kernel n times."""
        for _ in range(n if self.on else 0):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)

    def mark(self):
        """Position of the next interval among the samples."""
        return len(self.samples)

    def factor(self, mark=None):
        """REF_S over the kernel's time near mark (over the whole run when
        mark is None): the median of up to WINDOW samples on each side."""
        if not self.on:
            return 1.0
        near = self.samples if mark is None else \
            self.samples[max(0, mark - WINDOW):mark + WINDOW]
        return REF_S / statistics.median(near)
