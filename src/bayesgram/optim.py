"""Adam (Kingma & Ba 2015, arXiv:1412.6980) over a named collection of arrays,
stepped only over the rows training has reached.

The first and second moments and the gradient sums of all parameters live
in three flat float64 arrays; ``m``, ``v`` and ``grads`` are dicts of
per-parameter views into them. Per element, ``step`` runs the same ufuncs in
the same order as the dense update

    g = sums / count;  m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
    p -= dtype(lr (m / bc1) / (sqrt(v / bc2) + eps))

so the parameters it produces are bit-identical to it, through
preallocated scratch of about CHUNK elements: no temporary is ever as large
as a table.

Slot order. A table of more than CHUNK elements whose gradients arrive as
rows (BatchGrads.rows) from the first step on is row-sparse, and its state
is kept in slot order, not row order: a row gets the next free slot the
first time a batch reaches it, and its sums, m and v sit at that slot of the
table's views. So the state of the n rows reached so far is the first n rows
of each view, and a step's optimizer memory is contiguous however scattered
the rows are. ``accumulate`` maps row ids to slots and scatters them with
BatchGrads.scatter, so repeated rows still add in the order of the ids.
``step`` updates the first n slots of sums, m and v in contiguous chunks, as
it updates a whole table, and gathers, updates and puts back only the
parameter rows. Every other parameter is stepped whole, in contiguous chunks
of the flat arrays.

Skipping a row that has never received a gradient is exact, not lazy Adam.
Such a row has m = v = sums = +0.0, so the dense update computes g = 0,
m = 0, v = 0, lr 0 / (sqrt(0) + eps) = 0 and p -= 0, which leaves p bit for
bit as it was. A reached row keeps nonzero moments and is stepped at every
step, decay and all, as the dense update steps it.

Slot order needs no switch back to the whole-table step. With every row of
a 50,000 x 100 float32 table reached, the slot step takes 63 ms against 56 ms
for the whole step and 76 ms for the earlier gather of rows in row order
(width 1: 0.74 against 0.53 and 1.12 ms; medians of five best-of-8 runs on a
2-core VM). Switching would mean reordering the state into row order, and no
benchmark workload reaches half its rows. Nor does the state need its own
lazily zeroed pages: np.zeros is as fast, as a step touches no page of rows
it has not reached.
"""

import dataclasses

import numpy as np

__all__ = ["Adam", "CHUNK"]

CHUNK = 16384   # float64 elements: the streams of a step stay in cache


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
        self._m, self._v, self._sums = (np.zeros(ends[-1]) for _ in range(3))

        def views(flat):
            return {k: flat[lo:hi].reshape(params[k].shape)
                    for k, (lo, hi) in self._span.items()}

        self.m, self.v, self.grads = views(self._m), views(self._v), views(self._sums)
        self._slot = {}       # row-sparse table -> slot of each row, -1 if not reached
        self._rows = {}       # row-sparse table -> row id of each slot
        self._plan = None

    def accumulate(self, batch_grads):
        """Add a BatchGrads into the gradient sums, giving each row that a
        row-sparse table receives for the first time the next free slot."""
        if not self._slot.keys().isdisjoint(batch_grads.dense):
            raise ValueError("dense gradient for a row-sparse table")
        rows = {}
        for k, (ids, g) in batch_grads.rows.items():
            slot = self._slot.get(k)
            if slot is None:
                p = self.params[k]
                # small, or stepped whole already: its state stays in row order
                if p.size <= CHUNK or self.t:
                    rows[k] = (ids, g)
                    continue
                slot = self._slot[k] = np.full(len(p), -1, dtype=np.intp)
                self._rows[k] = np.empty(0, dtype=np.intp)
                self._plan = None
            slots = slot[ids]
            fresh = slots < 0
            if fresh.any():
                new = np.unique(ids[fresh])
                n = len(self._rows[k])
                slot[new] = np.arange(n, n + len(new))
                self._rows[k] = np.concatenate([self._rows[k], new])
                slots = slot[ids]
            rows[k] = (slots, g)
        dataclasses.replace(batch_grads, rows=rows).scatter(self.grads)

    def _contiguous_plan(self):
        """Per chunk [lo, hi) of the flat arrays stepped whole: the flat
        parameter slices it covers, with their bounds within the chunk."""
        runs = []
        for k, (lo, hi) in self._span.items():
            if k in self._slot or lo == hi:
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
        """Update every reached element from grads / count, then zero grads."""
        self.t += 1
        if self._plan is None:
            self._plan = self._contiguous_plan()
            widths = [p.size // len(p) for k, p in self.params.items() if k in self._slot]
            n = min(len(self._m), max([CHUNK, *widths]))
            self._scratch = [np.empty(n) for _ in range(3)]
            self._cast = {p.dtype: (np.empty(n, dtype=p.dtype), np.empty(n, dtype=p.dtype))
                          for p in self.params.values()}
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        g, a, b = self._scratch
        for lo, hi, pieces in self._plan:
            n = hi - lo
            sums = self._sums[lo:hi]
            self._update(count, bc1, bc2, sums, self._m[lo:hi], self._v[lo:hi],
                         g[:n], a[:n], b[:n])
            sums.fill(0.0)
            for p, s, e in pieces:             # p -= a.astype(p.dtype)
                c = self._cast[p.dtype][0][:e - s]
                c[...] = a[s:e]
                p -= c
        for k, rows in self._rows.items():
            p = self.params[k]
            width = p.size // len(p)
            # one void element per row: fancy indexing moves whole rows at once
            rowp = np.dtype((np.void, p.itemsize * width))
            P = p.reshape(-1).view(rowp)
            cast, q = self._cast[p.dtype]
            per = max(1, CHUNK // width)
            lo = self._span[k][0]
            for i in range(0, len(rows), per):
                r = rows[i:i + per]
                n = len(r) * width
                s = lo + i * width
                e = s + n
                sums = self._sums[s:e]
                self._update(count, bc1, bc2, sums, self._m[s:e], self._v[s:e],
                             g[:n], a[:n], b[:n])
                sums.fill(0.0)
                cast[:n] = a[:n]                   # p[r] -= a.astype(p.dtype)
                np.take(P, r, out=q[:n].view(rowp), mode="clip")
                q[:n] -= cast[:n]
                P[r] = q[:n].view(rowp)
