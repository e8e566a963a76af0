import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarrect.errors import ActionError, CoreAxiomError, InvarianceError
from haarrect.groupoids import (
    FiniteGroup,
    ValidationReport,
    attach_haar_density,
    build_action_groupoid,
    build_core,
    build_pair_groupoid,
    validate_groupoid,
)
from haarrect.rectifier import core_pairs


def product_row(g, q, p):
    """Row of the pair (q, p) in the groupoid's product table."""
    return int(np.flatnonzero((g.products[:, 0] == q)
                              & (g.products[:, 1] == p))[0])


def translation_groupoid(n, m):
    group = FiniteGroup.cyclic(n)
    return build_action_groupoid(group, tuple(range(m)),
                                 lambda g, x: (x + g) % m)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_cyclic_group_table():
    g = FiniteGroup.cyclic(4)
    assert g.order == 4
    assert g.inverse(1) == 3
    assert g.table[2, 3] == 1


def test_z2_on_point():
    g = translation_groupoid(2, 1)
    assert g.n_arrows == 2
    assert np.all(g.source == 0) and np.all(g.target == 0)


def test_z3_translation_anatomy():
    g = translation_groupoid(3, 3)
    assert g.n_arrows == 9
    by_src = g.arrows_by_source()
    assert [len(f) for f in by_src] == [3, 3, 3]
    # regular action: within each source fiber all targets are distinct
    for fiber in by_src:
        assert len({int(g.target[a]) for a in fiber}) == 3


def test_z4_on_z2_quotient():
    g = translation_groupoid(4, 2)
    assert g.n_arrows == 8
    # orbit of either point is everything
    assert {int(g.target[a]) for a in g.arrows_by_source()[0]} == {0, 1}
    # isotropy at each point is the kernel {0, 2}, order 2
    for x in range(2):
        loops = [a for a in g.arrows_by_source()[x] if g.target[a] == x]
        assert len(loops) == 2


def test_invalid_action_rejected():
    group = FiniteGroup.cyclic(2)
    with pytest.raises(ActionError):
        build_action_groupoid(group, (0, 1), lambda g, x: 0)


def test_pair_groupoid_counts():
    assert build_pair_groupoid(("a",)).n_arrows == 1
    g = build_pair_groupoid(("a", "b", "c"))
    assert g.n_arrows == 9
    assert len(list(g.composable_pairs())) == 27
    assert len(g.products) == 27


def test_multiply_looks_up_declared_pairs_only():
    g = build_pair_groupoid(tuple(range(4)))
    rng = np.random.default_rng(2)
    shrunk = dataclasses.replace(g, products=g.products[rng.random(64) > 0.5])
    table = {(q, p): qp for q, p, qp in shrunk.products.tolist()}
    q, p = np.divmod(np.arange(16 * 16), 16)
    expected = [table.get((a, b), -1) for a, b in zip(q.tolist(), p.tolist())]
    assert shrunk.multiply(q, p).tolist() == expected
    a, b = next(iter(table))
    assert shrunk.is_multipliable(a, b) and shrunk.compose(a, b) == table[(a, b)]
    missing = next((a, b) for a, b in g.composable_pairs() if (a, b) not in table)
    assert not shrunk.is_multipliable(*missing)
    with pytest.raises(KeyError):
        shrunk.compose(*missing)


def test_unsorted_product_rows_rejected():
    g = build_pair_groupoid(tuple(range(2)))
    with pytest.raises(ValueError):
        dataclasses.replace(g, products=g.products[::-1])


# ---------------------------------------------------------------------------
# validate_groupoid
# ---------------------------------------------------------------------------

def test_constructors_validate_clean():
    for g in (translation_groupoid(3, 3), translation_groupoid(4, 2),
              build_pair_groupoid(tuple(range(5)))):
        report = validate_groupoid(g)
        assert report.passed and not report.violations


def test_corrupted_compose_entry_detected():
    g = build_pair_groupoid(tuple(range(3)))
    # corrupt one entry: (q, p) with q = (2, 1), p = (1, 0) should be (2, 0)
    q, p = 2 * 3 + 1, 1 * 3 + 0
    bad_products = g.products.copy()
    bad_products[product_row(g, q, p), 2] = 2 * 3 + 2   # wrong source
    bad = dataclasses.replace(g, products=bad_products)
    report = validate_groupoid(bad)
    assert not report.passed
    kinds = {axiom for axiom, _ in report.violations}
    assert "source-target" in kinds or "associativity" in kinds
    witnesses = [w for _, w in report.violations]
    assert any((q, p) == w[:2] or (q, p) in (w, w[1:]) or q in w and p in w
               for w in witnesses)


def test_corrupted_entry_same_fiber_found_by_associativity():
    g = build_pair_groupoid(tuple(range(3)))
    q, p = 2 * 3 + 1, 1 * 3 + 0
    bad_products = g.products.copy()
    # right source/target shape is (2, 0); use (1, 0)
    bad_products[product_row(g, q, p), 2] = 1 * 3 + 0
    bad = dataclasses.replace(g, products=bad_products)
    report = validate_groupoid(bad)
    assert not report.passed


def test_report_invariant():
    assert ValidationReport(passed=True, violations=()).passed
    with pytest.raises(ValueError):
        ValidationReport(passed=True, violations=(("unit", 0),))


def test_mask_monotonicity():
    # removing declared pairs never makes validation reference an undefined
    # product; the shrunk structure still validates
    g = build_pair_groupoid(tuple(range(4)))
    rng = np.random.default_rng(5)
    keep = [rng.random() > 0.4 for _ in g.products]
    shrunk = dataclasses.replace(g, products=g.products[keep])
    report = validate_groupoid(shrunk)     # must not raise
    kinds = {axiom for axiom, _ in report.violations}
    assert "mask-composability" not in kinds


# ---------------------------------------------------------------------------
# cores
# ---------------------------------------------------------------------------

def test_full_arrow_set_is_core_for_action_groupoid():
    g = translation_groupoid(3, 3)
    core = build_core(g, tuple(range(g.n_arrows)))
    assert all(len(core.fiber_at(z)) == 3 for z in range(3))
    assert core.s_proper


def test_missing_fiber_is_lie_type_violation():
    g = translation_groupoid(3, 3)
    # drop every arrow with source 2
    subset = [a for a in range(g.n_arrows) if g.source[a] != 2]
    with pytest.raises(CoreAxiomError) as err:
        build_core(g, subset)
    assert err.value.axiom == "Lie type"
    assert err.value.witness == 2


def test_subgroup_core_of_quotient_action():
    g = translation_groupoid(4, 2)
    # kernel subgroup {0, 2}: arrows (g, x) at indices g*2 + x
    sub = (0, 1, 4, 5)
    core = build_core(g, sub)
    assert all(len(core.fiber_at(z)) == 2 for z in range(2))


def test_right_multiplication_is_bijection_on_fibers():
    g = translation_groupoid(4, 2)
    core = build_core(g, tuple(range(g.n_arrows)))
    for k in core.arrow_subset:
        fiber_t = core.fiber_at(int(g.target[k]))
        image = [g.compose(kp, k) for kp in fiber_t]
        assert len(set(image)) == len(fiber_t)
        assert set(image) == set(core.fiber_at(int(g.source[k])))


def test_core_not_closed_under_right_multiplication_rejected():
    g = translation_groupoid(3, 3)
    # source fibers covered but products (k', k) leave the subset
    by_src = g.arrows_by_source()
    subset = [by_src[0][0], by_src[0][1], by_src[1][0], by_src[2][0]]
    with pytest.raises(CoreAxiomError) as err:
        build_core(g, subset)
    assert err.value.axiom == "fiber invertibility"


# ---------------------------------------------------------------------------
# Haar densities
# ---------------------------------------------------------------------------

def test_uniform_density_valid_and_normalized():
    for g in (translation_groupoid(3, 3), build_pair_groupoid(tuple(range(4)))):
        core = build_core(g, tuple(range(g.n_arrows)))
        mu = attach_haar_density(core, "uniform")
        for z, fiber in core.s_fibers.items():
            assert abs(sum(mu.weight(a) for a in fiber) - 1.0) <= 1e-14


def test_incompatible_weights_rejected_with_witness():
    g = translation_groupoid(3, 3)
    core = build_core(g, tuple(range(g.n_arrows)))
    # same (0.5, 0.3, 0.2) in raw arrow order in every fiber: not invariant
    weights = {}
    for z, fiber in core.s_fibers.items():
        for w, a in zip((0.5, 0.3, 0.2), fiber):
            weights[a] = w
    with pytest.raises(InvarianceError) as err:
        attach_haar_density(core, weights)
    assert err.value.witness is not None


def test_shifted_weights_are_invariant():
    # w(g, x) = phi(x + g) is right-invariant for the translation action
    g = translation_groupoid(3, 3)
    core = build_core(g, tuple(range(g.n_arrows)))
    phi = (0.5, 0.3, 0.2)
    weights = {}
    for a in range(g.n_arrows):
        gi, x = divmod(a, 3)
        weights[a] = phi[(x + gi) % 3]
    mu = attach_haar_density(core, weights)
    for a in range(g.n_arrows):
        gi, x = divmod(a, 3)
        assert abs(mu.weight(a) - phi[(x + gi) % 3]) <= 1e-14


def test_explicit_weights_renormalized():
    g = build_pair_groupoid(tuple(range(3)))
    core = build_core(g, tuple(range(g.n_arrows)))
    mu = attach_haar_density(core, {a: 2.0 for a in range(g.n_arrows)})
    for z, fiber in core.s_fibers.items():
        assert abs(sum(mu.weight(a) for a in fiber) - 1.0) <= 1e-14


def test_negative_weights_rejected():
    g = build_pair_groupoid(tuple(range(3)))
    core = build_core(g, tuple(range(g.n_arrows)))
    with pytest.raises(ValueError):
        attach_haar_density(core, {a: -1.0 for a in range(g.n_arrows)})


# ---------------------------------------------------------------------------
# property: constructor outputs always validate
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4))
def test_action_groupoid_always_validates(n, m):
    if n % m != 0:
        m = 1
    g = translation_groupoid(n, m)
    assert validate_groupoid(g).passed
    core = build_core(g, tuple(range(g.n_arrows)))
    attach_haar_density(core, "uniform")


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_pair_groupoid_always_validates(n):
    g = build_pair_groupoid(tuple(range(n)))
    assert validate_groupoid(g).passed


# ---------------------------------------------------------------------------
# the product table against enumerations written from the definitions
# ---------------------------------------------------------------------------

def pair_tables(n):
    """Products, inverses and full-core pairs of pair(n) by definition:
    arrows (j, i) at j*n + i, (k, j).(j, i) = (k, i), (j, i)^-1 = (i, j)."""
    arrow = lambda j, i: j * n + i
    products = sorted((arrow(k, j), arrow(j2, i), arrow(k, i))
                      for k in range(n) for j in range(n)
                      for j2 in range(n) for i in range(n) if j == j2)
    inverse = [arrow(i, j) for j in range(n) for i in range(n)]
    return products, inverse, products


def action_tables(order, act, core):
    """The same for cyclic(order) acting by the table act[g][x]: arrows
    (g, x) at g*n_x + x, (h, g.x).(g, x) = (h + g, x), (g, x)^-1 =
    (-g, g.x); core pairs (k, p, kp) for k in the core, in (k, p) order."""
    n_x = len(act[0])
    arrow = lambda g, x: g * n_x + x
    products = sorted((arrow(h, y), arrow(g, x), arrow((h + g) % order, x))
                      for h in range(order) for y in range(n_x)
                      for g in range(order) for x in range(n_x)
                      if act[g][x] == y)
    inverse = [arrow(-g % order, act[g][x])
               for g in range(order) for x in range(n_x)]
    pairs = [row for row in products if row[0] in core]
    return products, inverse, pairs


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_products_match_definition(n):
    g = build_pair_groupoid(tuple(range(n)))
    products, inverse, pairs = pair_tables(n)
    assert g.products.tolist() == [list(r) for r in products]
    assert g.inverse.tolist() == inverse
    core = build_core(g, tuple(range(g.n_arrows)))
    assert core_pairs(core).tolist() == [list(r) for r in pairs]


@pytest.mark.parametrize("order, n_x, core", [
    (1, 1, None), (2, 1, None), (3, 3, None), (4, 2, None), (6, 3, None),
    (4, 2, (0, 1, 4, 5)),
    # cyclic(4) turning four points and fixing a fifth: ragged fibers
    (4, 5, tuple(a * 5 + x for a in range(4) for x in range(4)) + (4, 14)),
])
def test_action_products_match_definition(order, n_x, core):
    if n_x == 5:
        act = [[x if x == 4 else (x + a) % 4 for x in range(5)]
               for a in range(order)]
    else:
        act = [[(x + a) % n_x for x in range(n_x)] for a in range(order)]
    g = build_action_groupoid(FiniteGroup.cyclic(order), tuple(range(n_x)),
                              lambda a, x: act[a][x])
    core = core or tuple(range(g.n_arrows))
    products, inverse, pairs = action_tables(order, act, set(core))
    assert g.products.tolist() == [list(r) for r in products]
    assert g.inverse.tolist() == inverse
    assert core_pairs(build_core(g, core)).tolist() == [list(r) for r in pairs]
    assert validate_groupoid(g).passed


def first_action_witness(group, n_x, action):
    """The first (a, b, x) with a.(b.x) != (ab).x, in loop order."""
    for a in range(group.order):
        for b in range(group.order):
            for x in range(n_x):
                if action(a, action(b, x)) != action(int(group.table[a, b]), x):
                    return (a, b, x)
    return None


@pytest.mark.parametrize("seed", range(10))
def test_action_error_names_first_witness(seed):
    # translation of cyclic(6) on 3 points with one entry of the table moved
    group = FiniteGroup.cyclic(6)
    act = np.array([[(x + a) % 3 for x in range(3)] for a in range(6)])
    rng = np.random.default_rng(seed)
    a, x = int(rng.integers(1, 6)), int(rng.integers(3))
    act[a, x] = (act[a, x] + int(rng.integers(1, 3))) % 3
    action = lambda g, y: int(act[g, y])
    expected = first_action_witness(group, 3, action)
    assert expected is not None
    with pytest.raises(ActionError) as err:
        build_action_groupoid(group, range(3), action)
    assert err.value.witness == expected


def test_action_error_names_identity_witness():
    with pytest.raises(ActionError) as err:
        build_action_groupoid(FiniteGroup.cyclic(2), range(3),
                              lambda g, x: 0 if x == 1 else x)
    assert err.value.witness == 1


def test_pair_100_core_pairs_fit_in_memory():
    g = build_pair_groupoid(tuple(range(100)))
    assert g.n_arrows == 10 ** 4
    core = build_core(g, tuple(range(g.n_arrows)))
    pairs = core_pairs(core)
    assert pairs.shape == (10 ** 6, 3)
    # (k, j).(j, i) = (k, i) on every row
    k, j = np.divmod(pairs[:, 0], 100)
    j2, i = np.divmod(pairs[:, 1], 100)
    assert np.array_equal(j, j2)
    assert np.array_equal(pairs[:, 2], k * 100 + i)


# ---------------------------------------------------------------------------
# the array validators against their loop forms
# ---------------------------------------------------------------------------

def loop_violations(g):
    """validate_groupoid written as loops over pairs, arrows and fibers."""
    out = []
    for q, p, m in g.products.tolist():
        if g.source[q] != g.target[p]:
            out.append(("source-target", (q, p)))
        elif g.source[m] != g.source[p] or g.target[m] != g.target[q]:
            out.append(("source-target", (q, p, m)))
    for z in range(g.n_objects):
        u = g.unit_arrows[z]
        if g.source[u] != z or g.target[u] != z:
            out.append(("unit", z))
    for p in range(g.n_arrows):
        ur = int(g.unit_arrows[g.source[p]])
        if g.is_multipliable(p, ur) and g.compose(p, ur) != p:
            out.append(("unit", (p, ur)))
        ul = int(g.unit_arrows[g.target[p]])
        if g.is_multipliable(ul, p) and g.compose(ul, p) != p:
            out.append(("unit", (ul, p)))
    for p in range(g.n_arrows):
        pinv = int(g.inverse[p])
        if g.source[pinv] != g.target[p] or g.target[pinv] != g.source[p]:
            out.append(("inverse", p))
            continue
        if g.is_multipliable(pinv, p) and \
                g.compose(pinv, p) != g.unit_arrows[g.source[p]]:
            out.append(("inverse", (pinv, p)))
        if g.is_multipliable(p, pinv) and \
                g.compose(p, pinv) != g.unit_arrows[g.target[p]]:
            out.append(("inverse", (p, pinv)))
    by_source = g.arrows_by_source()
    for q, p, qp in g.products.tolist():
        if g.source[q] != g.target[p]:
            continue
        for r in by_source[int(g.target[q])]:
            if not g.is_multipliable(r, q):
                continue
            rq = g.compose(r, q)
            if not g.is_multipliable(rq, p):
                continue
            if not g.is_multipliable(r, qp) or \
                    g.compose(rq, p) != g.compose(r, qp):
                out.append(("associativity", (r, q, p)))
    return out


def corrupted(g, rng):
    """g with a few product entries and inverses moved and rows dropped."""
    products, inverse = g.products.copy(), g.inverse.copy()
    for row in rng.integers(len(products), size=rng.integers(0, 3)):
        products[row, 2] = rng.integers(g.n_arrows)
    for a in rng.integers(g.n_arrows, size=rng.integers(0, 2)):
        inverse[a] = rng.integers(g.n_arrows)
    keep = rng.random(len(products)) > rng.choice([0.0, 0.05, 0.3])
    return dataclasses.replace(g, products=products[keep], inverse=inverse)


@pytest.mark.parametrize("seed", range(40))
def test_validator_matches_loop_form(seed):
    rng = np.random.default_rng(seed)
    base = [build_pair_groupoid(tuple(range(3))), translation_groupoid(4, 2),
            translation_groupoid(3, 3)][seed % 3]
    g = corrupted(base, rng)
    assert list(validate_groupoid(g).violations) == loop_violations(g)


def loop_core_error(g, subset):
    """(axiom, witness) of the first core-axiom failure, found by loops."""
    subset = sorted(set(subset))
    fibers = {z: [a for a in subset if g.source[a] == z]
              for z in range(g.n_objects)}
    for z in range(g.n_objects):
        if not fibers[z]:
            return "Lie type", z
    by_target = g.arrows_by_target()
    for k in subset:
        for p in by_target[int(g.source[k])]:
            if not g.is_multipliable(k, p):
                return "no escape", (k, p)
    for k in subset:
        tgt = fibers[int(g.target[k])]
        image = []
        for kp in tgt:
            if not g.is_multipliable(kp, k) or g.compose(kp, k) not in subset:
                return "fiber invertibility", (kp, k)
            image.append(g.compose(kp, k))
        if len(set(image)) != len(tgt) or \
                len(tgt) != len(fibers[int(g.source[k])]):
            return "fiber invertibility", k
    return None


@pytest.mark.parametrize("seed", range(40))
def test_core_witness_matches_loop_form(seed):
    rng = np.random.default_rng(seed)
    g = [translation_groupoid(4, 2), translation_groupoid(6, 3),
         build_pair_groupoid(tuple(range(3)))][seed % 3]
    if seed % 2:
        g = corrupted(g, rng)
    subset = [a for a in range(g.n_arrows) if rng.random() < 0.7] or [0]
    expected = loop_core_error(g, subset)
    if expected is None:
        assert build_core(g, subset).arrow_subset == tuple(sorted(set(subset)))
        return
    with pytest.raises(CoreAxiomError) as err:
        build_core(g, subset)
    assert (err.value.axiom, err.value.witness) == expected


def test_core_with_repeated_image_names_the_arrow():
    # right multiplication by k = (1, 0) sends two fiber arrows to one
    g = translation_groupoid(3, 3)
    k = 1 * 3 + 0
    fiber = [a for a in range(9) if g.source[a] == g.target[k]]
    products = g.products.copy()
    rows = [product_row(g, kp, k) for kp in fiber[:2]]
    products[rows[1], 2] = products[rows[0], 2]
    bad = dataclasses.replace(g, products=products)
    assert loop_core_error(bad, range(9)) == ("fiber invertibility", k)
    with pytest.raises(CoreAxiomError) as err:
        build_core(bad, range(9))
    assert (err.value.axiom, err.value.witness) == ("fiber invertibility", k)


@pytest.mark.parametrize("seed", range(20))
def test_invariance_witness_matches_loop_form(seed):
    rng = np.random.default_rng(seed)
    g = [translation_groupoid(3, 3), translation_groupoid(4, 2)][seed % 2]
    core = build_core(g, tuple(range(g.n_arrows)))
    weights = {a: float(rng.integers(1, 3)) for a in range(g.n_arrows)}
    with pytest.raises(InvarianceError) as err:
        attach_haar_density(core, weights)
    total = {z: sum(weights[a] for a in f) for z, f in core.s_fibers.items()}
    w = {a: weights[a] / total[int(g.source[a])] for a in weights}
    expected = next((kp, k) for k in core.arrow_subset
                    for kp in core.fiber_at(int(g.target[k]))
                    if abs(w[g.compose(kp, k)] - w[kp]) > 1e-14)
    assert err.value.witness == expected
