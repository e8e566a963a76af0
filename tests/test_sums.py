from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarrect.sums import NeumaierSum, spread_empty

# exact ties, signed zeros, subnormals and far-apart magnitudes, mixed with
# arbitrary finite floats small enough that no sequence below overflows
SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1e16, -1e16, 1e-300, -5e-324)
ELEMENTS = st.one_of(st.sampled_from(SPECIAL),
                     st.floats(min_value=-1e300, max_value=1e300))


def two_branch_add(s, c, x):
    """The Neumaier step with both branches computed, then selected."""
    t = s + x
    big = np.abs(s) >= np.abs(x)
    return t, c + np.where(big, (s - t) + x, (x - t) + s)


@st.composite
def addend_plans(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(("fresh", "tie", "same")),
                  st.lists(ELEMENTS, min_size=2 * n, max_size=2 * n)),
        min_size=1, max_size=8))
    return n, steps


def two_branch_add_per_part(s, c, x):
    """The two-branch step on each real part of complex arrays."""
    t, c = two_branch_add(s.view(float), c.view(float), x.view(float))
    return t.view(complex), c.view(complex)


def run_both(acc, steps, make, step=two_branch_add):
    """Feed one addend plan to ``acc`` and to the reference ``step``;
    'tie' adds minus the running sum, 'same' the running sum itself."""
    s, c = acc._s.copy(), acc._c.copy()
    for kind, raw in steps:
        x = {"fresh": make(raw), "tie": -s, "same": s}[kind]
        acc.add(x)
        s, c = step(s, c, np.asarray(x, dtype=s.dtype))
        assert acc._s.tobytes() == np.asarray(s).tobytes()
        assert acc._c.tobytes() == np.asarray(c).tobytes()


@settings(max_examples=100, deadline=None)
@given(addend_plans())
def test_fused_add_matches_two_branch_formula_real(plan):
    n, steps = plan
    run_both(NeumaierSum(shape=(n,)), steps, lambda raw: np.array(raw[:n]))


@settings(max_examples=100, deadline=None)
@given(addend_plans())
def test_fused_add_matches_two_branch_formula_complex(plan):
    n, steps = plan

    def make(raw):
        # set the parts directly: x + 1j * y would lose the sign of a zero
        z = np.empty(n, dtype=complex)
        z.real, z.imag = raw[:n], raw[n:]
        return z

    run_both(NeumaierSum(shape=(n,), dtype=complex), steps, make,
             step=two_branch_add_per_part)


def test_fused_add_ties_and_signed_zeros():
    acc = NeumaierSum(shape=(4,))
    s0 = np.array([1.0, -0.0, 0.0, 1e16])
    acc.add(s0)
    for x in (-s0, s0, np.array([-0.0, 0.0, -0.0, 1.0]), -acc._s):
        s, c = two_branch_add(acc._s, acc._c, x)
        acc.add(x)
        assert acc._s.tobytes() == s.tobytes()
        assert acc._c.tobytes() == c.tobytes()


def test_complex_parts_are_compensated_alone():
    # a branch on the complex magnitude keeps one part's rounding error and
    # drops the other's: it gives 1+0j here
    acc = NeumaierSum(dtype=complex)
    for x in (1e16 + 1j, 1 + 1e16j, -1e16 - 1e16j):
        acc.add(x)
    assert acc.value == 1 + 1j


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(ELEMENTS, ELEMENTS), min_size=1, max_size=8))
def test_every_step_error_is_exact_per_part(addends):
    acc = NeumaierSum(dtype=complex)
    for re, im in addends:
        s, x = complex(acc._s), complex(re, im)
        # from zero a first step is exact, so a probe's correction after
        # its second step is that step's error alone
        probe = NeumaierSum(dtype=complex)
        probe.add(s)
        probe.add(x)
        acc.add(x)
        assert probe._s.tobytes() == acc._s.tobytes()
        t, e = complex(probe._s), complex(probe._c)
        for part in ("real", "imag"):
            assert (Fraction(getattr(t, part)) + Fraction(getattr(e, part))
                    == Fraction(getattr(s, part)) + Fraction(getattr(x, part)))


def test_complex_addend_to_a_real_sum_is_refused():
    acc = NeumaierSum(shape=(2,))
    acc.add(np.array([1.0, 2.0]))
    for x in (1j, np.array([1 + 1j, 2 + 0j])):
        with pytest.raises(TypeError):
            acc.add(x)
    assert acc.value.tobytes() == np.array([1.0, 2.0]).tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
def test_sums_sharing_scratch_match_separate_sums(dtype):
    # the sums of one several() call take turns with one t, z and e; each
    # keeps the bits of a sum of its own, and its mean into an array is
    # its value over the count
    rng = np.random.default_rng(5)
    addends = rng.normal(size=(3, 6, 4)) * 10.0 ** rng.integers(-8, 8, (3, 6, 4))
    if dtype is complex:
        addends = addends + 1j * addends[::-1]
    shared = NeumaierSum.several(3, shape=(4,), dtype=dtype)
    separate = [NeumaierSum(shape=(4,), dtype=dtype) for _ in range(3)]
    for step in range(6):
        for sums in (shared, separate):
            for acc, x in zip(sums, addends[:, step]):
                acc.add(x)
    for a, b in zip(shared, separate):
        assert a._s.tobytes() == b._s.tobytes()
        assert a._c.tobytes() == b._c.tobytes()
        out = np.empty(4, dtype)
        assert a.mean(7, out) is out
        assert out.tobytes() == (b.value / 7).tobytes() == b.mean(7).tobytes()


@pytest.mark.parametrize("shape", [(), (0,), (7,), (14739,), (3, 4, 5)])
def test_spread_arrays_are_disjoint_with_spread_starts(shape):
    arrays = spread_empty(5, shape, complex)
    for k, a in enumerate(arrays):
        assert a.shape == shape and a.dtype == complex and a.flags.c_contiguous
        a[...] = k
    assert all(np.all(a == k) for k, a in enumerate(arrays))
    if arrays[0].size:      # an empty array has no meaningful start
        starts = sorted(a.ctypes.data % 4096 for a in arrays)
        assert all(start % 64 == 0 for start in starts)
        assert (min(np.diff(starts + [starts[0] + 4096]))
                >= 4096 // 5 // 64 * 64)
