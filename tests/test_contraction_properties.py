"""The certified contraction and the limit morphism on drawn groupoids.

The bundled configs express only pair groupoids and cyclic groups turning
points.  Here Hypothesis draws finite groups with non-abelian isotropy (S3,
D4, Q8) and cyclic products, acting on 1-6 points by left translation on
the cosets of one or two subgroups; full cores or the arrows of a
subgroup's action; uniform or random right-invariant densities; and SO3,
SU2 and U1 targets.  Every map is a seeded coboundary h_t(a) h_s(a)^-1
with h in a small ball, perturbed on the right: a finite image can hold a
half turn, which W does not.  The suite uses the package's public layout
of values only through `perturb_morphism`, the last (arrow) axis and the
per-object gauge of conftest's `gauged`.
"""

import itertools

import numpy as np
from conftest import gauged
from hypothesis import given, settings, strategies as st

from haarrect import (
    AmbientSets,
    FiniteGroup,
    FiniteGroupoid,
    attach_haar_density,
    build_action_groupoid,
    build_core,
    iterate,
    normalize_algebra_norm,
    verify_core_morphism,
)
from haarrect.groups import _exp
from haarrect.harness import (
    ConstantsSpec,
    GroupoidSpec,
    MorphismSpec,
    PerturbationSpec,
    constants_for,
    generate_exact_morphism,
    perturb_morphism,
)

TOL = 1e-12
MAX_POINTS = 6


def quaternion_unit_product(a, b):
    (w1, x1, y1, z1), (w2, x2, y2, z2) = a, b
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def closure(generators, multiply):
    """The elements generated by ``generators``, in the order found."""
    found = list(dict.fromkeys(generators))
    for a in found:                 # grows while it is walked
        for b in generators:
            c = multiply(a, b)
            if c not in found:
                found.append(c)
    return found


def group_of(name):
    """(elements, multiply) of a drawn group, the identity first."""
    if name == "S3":
        compose = lambda a, b: tuple(a[x] for x in b)
        return closure([(0, 1, 2), (1, 0, 2), (1, 2, 0)], compose), compose
    if name == "D4":
        compose = lambda a, b: tuple(a[x] for x in b)
        return (closure([(0, 1, 2, 3), (1, 2, 3, 0), (0, 3, 2, 1)], compose),
                compose)
    if name == "Q8":
        return (closure([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)],
                        quaternion_unit_product), quaternion_unit_product)
    a, b = map(int, name[1:].split("x"))         # "Z2x3" is Z2 x Z3
    add = lambda u, v: ((u[0] + v[0]) % a, (u[1] + v[1]) % b)
    return closure([(0, 0), (1 % a, 0), (0, 1 % b)], add), add


GROUPS = ("S3", "D4", "Q8", "Z2x1", "Z3x1", "Z4x1", "Z2x2", "Z2x3", "Z2x4")


def subgroup(elements, multiply, picks):
    """Indices of the subgroup generated by the picked elements."""
    found = closure([elements[0]] + [elements[i] for i in picks], multiply)
    return sorted(elements.index(e) for e in found)


def coset_action(elements, multiply, members):
    """act[g, x] = g.x on the left cosets of the subgroup ``members``."""
    cosets = []
    for g in elements:
        coset = frozenset(multiply(g, h) for h in members)
        if coset not in cosets:
            cosets.append(coset)
    return np.array([[cosets.index(frozenset(multiply(g, h) for h in c))
                      for c in cosets] for g in elements], dtype=np.intp)


@st.composite
def cases(draw):
    """(group, act, core arrows or None for the full core, point weights or
    None for uniform, target, seed) of one drawn run."""
    name = draw(st.sampled_from(GROUPS))
    elements, multiply = group_of(name)
    n = len(elements)
    table = np.array([[elements.index(multiply(a, b)) for b in elements]
                      for a in elements])
    picks = st.lists(st.integers(0, n - 1), max_size=2)
    orbits = []
    for _ in range(draw(st.integers(1, 2))):
        members = subgroup(elements, multiply, draw(picks))
        act = coset_action(elements, multiply, [elements[h] for h in members])
        width = sum(o.shape[1] for o in orbits)
        if width + act.shape[1] <= MAX_POINTS:
            orbits.append(act + width)
    if not orbits:          # a subgroup of index <= 6 exists in every group
        orbits.append(np.zeros((n, 1), dtype=np.intp))
    act = np.hstack(orbits)
    points = act.shape[1]
    core = None
    if draw(st.booleans()):
        sub = subgroup(elements, multiply, draw(picks))
        core = [g * points + x for g in sub for x in range(points)]
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(0.25, 4.0), min_size=points,
                                max_size=points))
    target = draw(st.sampled_from(["SO3", "SU2", "U1"]))
    seed = draw(st.integers(0, 2 ** 16))
    return FiniteGroup(table=table, identity=0), act, core, weights, target, \
        seed


def setup(group, act, core_arrows, weights):
    """The groupoid, its core and the density: a function of the target
    point, so right invariant, normalized per source fiber."""
    g = build_action_groupoid(group, act)
    core = build_core(g, core_arrows or range(g.n_arrows))
    if weights is None:
        return g, core, attach_haar_density(core, "uniform")
    return g, core, attach_haar_density(
        core, {int(a): weights[g.target[a]] for a in core.arrow_subset})


def relabeled(g, core, mu, phi, perm):
    """The same run with arrow a renamed perm[a]."""
    rows = perm[np.asarray(g.products)]
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    inv = np.argsort(perm)
    h = FiniteGroupoid.from_products(
        g.n_objects, g.source[inv], g.target[inv], perm[g.unit_arrows], rows,
        perm[g.inverse][inv])
    core_h = build_core(h, perm[np.asarray(core.arrow_subset)])
    mu_h = attach_haar_density(
        core_h, {int(perm[a]): mu[a] for a in core.arrow_subset})
    return h, core_h, mu_h, phi[..., inv]


@settings(max_examples=60, deadline=None)
@given(case=cases(), eps=st.sampled_from([0.002, 0.01, 0.02]),
       scale=st.sampled_from([0.1, 0.25, 0.5]))
def test_drawn_runs_are_certified_and_converge_to_core_morphisms(case, eps,
                                                                  scale):
    group, act, core_arrows, weights, target, seed = case
    g, core, mu = setup(group, act, core_arrows, weights)
    alg = normalize_algebra_norm({"SO3": "so3", "SU2": "su2", "U1": "u1"}[
        target])
    k = constants_for(alg, ConstantsSpec())
    spec = GroupoidSpec(constructor="action")
    exact, _ = generate_exact_morphism(
        g, spec, alg, MorphismSpec(kind="coboundary", seed=seed, scale=scale))
    phi = perturb_morphism(exact, alg,
                           PerturbationSpec(epsilon=eps, seed=seed + 1), g)

    limit, trace = iterate(phi, core, mu, alg, k, sets=AmbientSets(), tol=TOL)
    assert trace.terminated == "converged"
    assert all(trace.q_certified)
    assert all(trace.correction_bound_ok) and all(trace.step_bound_ok)
    assert verify_core_morphism(limit, core, alg) <= (k.d_prime / k.d) * TOL
    if target == "U1":
        assert trace.iterations == 1            # abelian one-step exactness
    # the run report's residual_full: the last defect on a full core, else
    # one pass over every product, which is the full core's own pass
    full = verify_core_morphism(limit, core, alg, full=True)
    if core_arrows is None:
        assert full == trace.deltas[-1]
    else:
        whole = build_core(g, range(g.n_arrows))
        assert full == verify_core_morphism(limit, whole, alg)

    perm = np.random.default_rng(seed).permutation(g.n_arrows)
    h, core_h, mu_h, phi_h = relabeled(g, core, mu, phi, perm)
    limit_h, trace_h = iterate(phi_h, core_h, mu_h, alg, k,
                               sets=AmbientSets(), tol=TOL)
    assert trace_h.iterations == trace.iterations
    assert np.abs(np.subtract(trace_h.deltas, trace.deltas)).max() <= 1e-15
    assert np.abs(limit_h[..., perm] - limit).max() <= 1e-14

    # psi of a map gauged per object, h_t(a) phi(a) h_s(a)^-1, is psi
    # conjugated by h_s(p); log and the norms are Ad-equivariant, so every
    # step gauges alike and the limit is the gauged limit
    rng = np.random.default_rng(seed + 2)
    h = _exp(alg, alg.sample_ball(rng, 0.2, g.n_objects))
    limit_g, trace_g = iterate(gauged(g, phi, h), core, mu, alg, k,
                               sets=AmbientSets(), tol=TOL)
    assert trace_g.terminated == "converged"
    assert trace_g.iterations == trace.iterations
    assert np.abs(gauged(g, limit, h) - limit_g).max() <= 1e-14


def test_drawn_groups_are_the_named_groups():
    # orders, the identity first, and which of them commute
    for name, order, abelian in (("S3", 6, False), ("D4", 8, False),
                                 ("Q8", 8, False), ("Z2x3", 6, True),
                                 ("Z2x2", 4, True)):
        elements, multiply = group_of(name)
        assert len(elements) == order
        assert all(multiply(elements[0], e) == e == multiply(e, elements[0])
                   for e in elements)
        assert abelian == all(multiply(a, b) == multiply(b, a) for a, b in
                              itertools.product(elements, repeat=2))
    # Q8 has one element of order 2; D4 has five
    for name, involutions in (("Q8", 1), ("D4", 5)):
        elements, multiply = group_of(name)
        assert sum(multiply(e, e) == elements[0] for e in elements[1:]) \
            == involutions
