"""Adam (Kingma & Ba 2015, arXiv:1412.6980) over a named collection of arrays.

The first and second moments and the gradient sums of all parameters live
in three flat float64 arrays; ``m``, ``v`` and ``grads`` are dicts of
per-parameter views into them. ``step`` walks the flat arrays in chunks of
CHUNK elements through preallocated scratch, so no temporary is ever as
large as a table. Per element it runs the same ufuncs in the same order as
the dense update

    g = sums / count;  m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
    p -= dtype(lr (m / bc1) / (sqrt(v / bc2) + eps))

so the parameters it produces are bit-identical to it.
"""

import numpy as np

__all__ = ["Adam", "CHUNK"]

CHUNK = 16384   # float64 elements: six 128 KiB streams stay in cache


class Adam:
    def __init__(self, params: dict, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        ends = [0, *np.cumsum([p.size for p in params.values()], dtype=np.int64)]
        total = ends[-1]
        self._m, self._v, self._sums = (np.zeros(total) for _ in range(3))

        def views(flat):
            return {k: flat[lo:hi].reshape(p.shape)
                    for (k, p), lo, hi in zip(params.items(), ends, ends[1:])}

        self.m, self.v, self.grads = views(self._m), views(self._v), views(self._sums)
        for k, p in params.items():
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {k!r} is not C-contiguous")
        # per chunk [lo, hi): the flat parameter slices it covers, with their
        # bounds within the chunk
        self._plan = []
        for lo in range(0, total, CHUNK):
            hi = min(lo + CHUNK, total)
            pieces = []
            for p, a, b in zip(params.values(), ends, ends[1:]):
                s, e = max(lo, a), min(hi, b)
                if s < e:
                    pieces.append((p.reshape(-1)[s - a:e - a], s - lo, e - lo))
            self._plan.append((lo, hi, pieces))
        n = min(CHUNK, total)
        self._g, self._a, self._b = (np.empty(n) for _ in range(3))
        self._cast = {p.dtype: np.empty(n, dtype=p.dtype) for p in params.values()}

    def step(self, count):
        """Update every parameter from grads / count, then zero grads."""
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for lo, hi, pieces in self._plan:
            n = hi - lo
            sums, m, v = self._sums[lo:hi], self._m[lo:hi], self._v[lo:hi]
            g, a, b = self._g[:n], self._a[:n], self._b[:n]
            np.divide(sums, count, out=g)
            sums.fill(0.0)
            m *= b1
            np.multiply(1.0 - b1, g, out=a)
            m += a
            v *= b2
            np.multiply(1.0 - b2, g, out=a)
            a *= g
            v += a
            np.divide(m, bc1, out=a)
            np.multiply(lr, a, out=a)
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            for p, s, e in pieces:             # p -= a.astype(p.dtype)
                c = self._cast[p.dtype][:e - s]
                c[...] = a[s:e]
                p -= c
