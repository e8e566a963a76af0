"""Compensated accumulation helpers.

Quadrature and averaging loops must reduce in a fixed enumeration order and
stay bit-reproducible for a given seed, so all weighted reductions go through
a Neumaier accumulator instead of bare `+=`.
"""

import numpy as np


class NeumaierSum:
    """Kahan-Neumaier running sum for scalars or fixed-shape arrays."""

    def __init__(self, shape=(), dtype=float):
        self._s = np.zeros(shape, dtype=dtype)
        self._c = np.zeros(shape, dtype=dtype)

    def add(self, x):
        s = self._s
        x = np.asarray(x, dtype=s.dtype)
        t = s + x
        big = np.abs(s) >= np.abs(x)
        # lost low-order bits of the smaller addend: (hi - t) + lo, with the
        # operands picked before the arithmetic so it runs once per element
        corr = np.where(big, s, x)
        corr -= t
        corr += np.where(big, x, s)
        self._c = self._c + corr
        self._s = t

    @property
    def value(self):
        return self._s + self._c


def weighted_sum(weights, vectors):
    """Sum w_i * v_i in the given order with Neumaier compensation.

    `vectors` is an (n, ...) array; returns an array of shape `vectors[0]`.
    """
    vectors = np.asarray(vectors)
    acc = NeumaierSum(shape=vectors.shape[1:], dtype=vectors.dtype)
    for w, v in zip(weights, vectors):
        acc.add(w * v)
    return acc.value

