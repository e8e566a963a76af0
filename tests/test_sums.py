import numpy as np
from hypothesis import given, settings, strategies as st

from haarrect.sums import NeumaierSum

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


def run_both(acc, steps, make):
    """Feed one addend plan to ``acc`` and to the two-branch reference;
    'tie' adds minus the running sum, 'same' the running sum itself."""
    s, c = acc._s, acc._c
    for kind, raw in steps:
        x = {"fresh": make(raw), "tie": -s, "same": s}[kind]
        acc.add(x)
        s, c = two_branch_add(s, c, np.asarray(x, dtype=s.dtype))
        assert acc._s.tobytes() == np.asarray(s).tobytes()
        assert acc._c.tobytes() == np.asarray(c).tobytes()
    return acc


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

    run_both(NeumaierSum(shape=(n,), dtype=complex), steps, make)


@settings(max_examples=30, deadline=None)
@given(addend_plans())
def test_fused_add_broadcasts_a_scalar_accumulator(plan):
    # a shape-() accumulator takes the shape of its first array addend
    n, steps = plan
    acc = run_both(NeumaierSum(), steps, lambda raw: np.array(raw[:n]))
    assert acc.value.shape == ((n,) if any(k == "fresh" for k, _ in steps)
                               else ())


def test_fused_add_ties_and_signed_zeros():
    acc = NeumaierSum(shape=(4,))
    s0 = np.array([1.0, -0.0, 0.0, 1e16])
    acc.add(s0)
    for x in (-s0, s0, np.array([-0.0, 0.0, -0.0, 1.0]), -acc._s):
        s, c = two_branch_add(acc._s, acc._c, x)
        acc.add(x)
        assert acc._s.tobytes() == s.tobytes()
        assert acc._c.tobytes() == c.tobytes()
