"""Compensated accumulation helpers.

Quadrature and averaging loops must reduce in a fixed enumeration order and
stay bit-reproducible for a given seed, so all weighted reductions go through
a compensated accumulator instead of bare `+=`.
"""

import numpy as np


class NeumaierSum:
    """Compensated running sum for scalars or fixed-shape arrays.

    Each step is Knuth's branch-free TwoSum: t = s + x, z = t - s and the
    exact rounding error e = (s - (t - z)) + (x - z), added to a running
    correction.  e is the error Neumaier's |s| >= |x| branch returns, so a
    real sum keeps Neumaier's bits; complex add and subtract act on each
    part alone, so a complex sum is compensated per real part.
    """

    def __init__(self, shape=(), dtype=float):
        # s and c, and the t, z and e of every step: fresh arrays per step
        # would cost as much as the arithmetic
        self._s, self._c, *self._scratch = spread_empty(5, shape, dtype)
        self._s[...] = 0
        self._c[...] = 0

    @classmethod
    def several(cls, count, shape=(), dtype=float, arrays=None):
        """``count`` sums of one shape whose steps share one t, z and e:
        2 * count + 3 arrays where separate sums hold 5 each.  The arrays
        are new, or ``arrays``, which the sums then own."""
        *pairs, t, z, e = (spread_empty(2 * count + 3, shape, dtype)
                           if arrays is None else arrays)
        scratch = [t, z, e]     # one list: a step swaps its s into it
        sums = [cls.__new__(cls) for _ in range(count)]
        for acc, s, c in zip(sums, pairs[0::2], pairs[1::2]):
            acc._s, acc._c, acc._scratch = s, c, scratch
            s[...] = 0
            c[...] = 0
        return sums

    def add(self, x):
        x = np.asarray(x)
        if x.dtype.kind == "c" and self._s.dtype.kind != "c":
            raise TypeError("complex addend to a real compensated sum")
        s, c = self._s, self._c
        t, z, e = self._scratch
        np.add(s, x, out=t)
        np.subtract(t, s, out=z)
        np.subtract(t, z, out=e)
        np.subtract(s, e, out=e)
        np.subtract(x, z, out=z)
        e += z
        c += e
        self._s, self._scratch[0] = t, s

    @property
    def value(self):
        return self._s + self._c

    def mean(self, count, out=None):
        """value / count, made in ``out`` if one is given."""
        return np.divide(np.add(self._s, self._c, out=out), count, out=out)


def spread_empty(count, shape, dtype):
    """``count`` new arrays of one shape whose starts are spread over a
    4 KiB page.

    On x86 a streaming c[i] = a[i] - b[i] stalls when c starts just past a
    or b modulo 4096 bytes (4K aliasing); arrays from separate large
    allocations often start at one offset.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    stride = -(-nbytes // 4096) * 4096 + 4096 // count // 64 * 64
    block = np.empty(count * stride + 4096, np.uint8)
    base = -block.ctypes.data % 4096
    return [block[a:a + nbytes].view(dtype).reshape(shape)
            for a in range(base, base + count * stride, stride)]


def weighted_sum(weights, vectors):
    """Sum w_i * v_i in the given order with NeumaierSum compensation.

    `vectors` is an (n, ...) array; returns an array of shape `vectors[0]`.
    """
    vectors = np.asarray(vectors)
    acc = NeumaierSum(shape=vectors.shape[1:], dtype=vectors.dtype)
    for w, v in zip(weights, vectors):
        acc.add(w * v)
    return acc.value
