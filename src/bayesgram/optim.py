"""Adam (Kingma & Ba 2015, arXiv:1412.6980) over a named collection of arrays,
stepped only over its live elements.

The first and second moments and the gradient sums of all parameters live
in three flat float64 arrays; ``m``, ``v`` and ``grads`` are dicts of
per-parameter views into them. Per element, ``step`` runs the same ufuncs in
the same order as the dense update

    g = sums / count;  m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
    p -= dtype(lr (m / bc1) / (sqrt(v / bc2) + eps))

so the parameters it produces are bit-identical to it, through
preallocated scratch of about CHUNK elements: no temporary is ever as large
as a table.

Live elements. ``accumulate`` adds a batch's BatchGrads into the sums and
marks the row ids of each table in its ``rows`` as seen. A marked table of
more than CHUNK elements is row-sparse: ``step`` gathers its seen rows in
chunks of at most CHUNK elements, updates them and writes m, v and the
parameter back. Every other parameter, and a row-sparse table once
gathering its seen rows costs more than stepping all of them (DENSE_AT),
is stepped whole in contiguous chunks of the flat arrays.

Skipping a row that has never received a gradient is exact, not lazy Adam.
Such a row has m = v = sums = +0.0, so the dense update computes g = 0,
m = 0, v = 0, lr 0 / (sqrt(0) + eps) = 0 and p -= 0, which leaves p bit for
bit as it was. A seen row keeps nonzero moments and is stepped at every
step, decay and all, as the dense update steps it.
"""

import mmap

import numpy as np

__all__ = ["Adam", "CHUNK", "DENSE_AT"]

CHUNK = 16384   # float64 elements: six 128 KiB streams stay in cache
# The seen-row fraction at which a row-sparse table is stepped whole again:
# below it gathering is faster at every row width measured (1 to 100), and
# it breaks even between 34% (width 1) and 57% (width 100) of rows seen.
DENSE_AT = 0.3


def _lazy_zeros(n):
    """n float64 zeros. From 4 MiB up, NumPy would ask for 2 MiB pages, which
    a single touched row fills in whole; an anonymous mapping of 4 KiB pages,
    zeroed when first touched, keeps rows never stepped free of memory and
    time."""
    if 8 * n < 1 << 22:
        return np.zeros(n)
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.float64)


class Adam:
    def __init__(self, params: dict, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        for k, p in params.items():
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {k!r} is not C-contiguous")
        ends = [0, *np.cumsum([p.size for p in params.values()], dtype=np.int64)]
        self._span = {k: (lo, hi) for k, lo, hi in zip(params, ends, ends[1:])}
        self._m, self._v, self._sums = (_lazy_zeros(ends[-1]) for _ in range(3))

        def views(flat):
            return {k: flat[lo:hi].reshape(params[k].shape)
                    for k, (lo, hi) in self._span.items()}

        self.m, self.v, self.grads = views(self._m), views(self._v), views(self._sums)
        self._seen = {}       # row-sparse table -> bool mask of the rows it has seen
        self._whole = set()   # marked tables stepped whole: small, or mostly seen
        self._stale = set()   # row-sparse tables whose seen rows grew since the plan
        self._live = {}       # row-sparse table -> its seen row ids, as last stepped
        self._contiguous = None

    def accumulate(self, batch_grads):
        """Add a BatchGrads into the gradient sums and mark its rows seen."""
        batch_grads.scatter(self.grads)
        for k, (ids, _) in batch_grads.rows.items():
            seen = self._seen.get(k)
            if seen is None:
                if k in self._whole:
                    continue
                p = self.params[k]
                if p.size <= CHUNK:
                    self._whole.add(k)
                    continue
                seen = self._seen[k] = np.zeros(len(p), dtype=bool)
                self._contiguous = None
            fresh = ~seen[ids]
            if fresh.any():
                seen[ids[fresh]] = True
                self._stale.add(k)

    def _refresh(self):
        """Bring the plan up to the rows seen since the last step."""
        for k in self._stale:
            rows = np.flatnonzero(self._seen[k])
            if len(rows) < DENSE_AT * len(self._seen[k]):
                self._live[k] = rows
            else:
                del self._seen[k]
                self._live.pop(k, None)
                self._whole.add(k)
                self._contiguous = None
        self._stale.clear()
        if self._contiguous is None:
            self._contiguous = self._contiguous_plan()
            widths = [self.params[k].size // len(seen) for k, seen in self._seen.items()]
            n = min(len(self._m), max([CHUNK, *widths]))
            self._scratch = [np.empty(n) for _ in range(5)]
            self._cast = {p.dtype: (np.empty(n, dtype=p.dtype), np.empty(n, dtype=p.dtype))
                          for p in self.params.values()}

    def _contiguous_plan(self):
        """Per chunk [lo, hi) of the flat arrays stepped whole: the flat
        parameter slices it covers, with their bounds within the chunk."""
        runs = []
        for k, (lo, hi) in self._span.items():
            if k in self._seen or lo == hi:
                continue
            if runs and runs[-1][1] == lo:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi])
        plan = []
        for run_lo, run_hi in runs:
            for lo in range(run_lo, run_hi, CHUNK):
                hi = min(lo + CHUNK, run_hi)
                pieces = []
                for k, (a, b) in self._span.items():
                    s, e = max(lo, a), min(hi, b)
                    if s < e:
                        pieces.append((self.params[k].reshape(-1)[s - a:e - a],
                                       s - lo, e - lo))
                plan.append((lo, hi, pieces))
        return plan

    def _update(self, count, bc1, bc2, sums, m, v, g, a, b):
        """m and v in place; a becomes the float64 update, g and b scratch."""
        b1, b2 = self.beta1, self.beta2
        np.divide(sums, count, out=g)
        m *= b1
        np.multiply(1.0 - b1, g, out=a)
        m += a
        v *= b2
        np.multiply(1.0 - b2, g, out=a)
        a *= g
        v += a
        np.divide(m, bc1, out=a)
        np.multiply(self.lr, a, out=a)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b

    def step(self, count):
        """Update every live element from grads / count, then zero grads."""
        self.t += 1
        self._refresh()
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        g, a, b, m, v = self._scratch
        for lo, hi, pieces in self._contiguous:
            n = hi - lo
            sums = self._sums[lo:hi]
            self._update(count, bc1, bc2, sums, self._m[lo:hi], self._v[lo:hi],
                         g[:n], a[:n], b[:n])
            sums.fill(0.0)
            for p, s, e in pieces:             # p -= a.astype(p.dtype)
                c = self._cast[p.dtype][0][:e - s]
                c[...] = a[s:e]
                p -= c
        for k, live in self._live.items():
            p = self.params[k]
            lo, hi = self._span[k]
            width = p.size // len(p)
            # one void element per row: fancy indexing moves whole rows at once
            row64 = np.dtype((np.void, 8 * width))
            rowp = np.dtype((np.void, p.itemsize * width))
            P = p.reshape(-1).view(rowp)
            S, M, V = (x[lo:hi].view(row64) for x in (self._sums, self._m, self._v))
            cast, q = self._cast[p.dtype]
            per = max(1, CHUNK // width)
            for i in range(0, len(live), per):
                rows = live[i:i + per]
                n = len(rows) * width
                np.take(S, rows, out=g[:n].view(row64), mode="clip")
                np.take(M, rows, out=m[:n].view(row64), mode="clip")
                np.take(V, rows, out=v[:n].view(row64), mode="clip")
                self._update(count, bc1, bc2, g[:n], m[:n], v[:n], g[:n], a[:n], b[:n])
                S[rows] = np.zeros((), row64)
                M[rows] = m[:n].view(row64)
                V[rows] = v[:n].view(row64)
                cast[:n] = a[:n]                   # p[rows] -= a.astype(p.dtype)
                np.take(P, rows, out=q[:n].view(rowp), mode="clip")
                q[:n] -= cast[:n]
                P[rows] = q[:n].view(rowp)
