import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    MATRIX_DIM,
    TAU_GROUP,
    columns,
    correction,
    defect,
    gauged,
    group_membership_residual,
    matrices,
    psi_stack,
    stack_defect,
    translations,
)
from haarrect.errors import (
    DefectOverflow,
    DefectTooLarge,
    HaarrectError,
    LogDomainError,
    NonContraction,
    RangeEscape,
)
from haarrect.groupoids import (
    FiniteGroup,
    attach_haar_density,
    build_action_groupoid,
    build_core,
    build_pair_groupoid,
)
from haarrect.groups import (
    AmbientSets,
    BchConstants,
    _compose,
    _distances_to_identity,
    _exp,
    _inverse,
    _log_coords,
    normalize_algebra_norm,
)
from haarrect.harness import (
    ConstantsSpec,
    GroupoidSpec,
    MorphismSpec,
    PerturbationSpec,
    build_groupoid,
    constants_for,
    generate_exact_morphism,
    perturb_morphism,
)
from haarrect import groups, rectifier
from haarrect.sums import weighted_sum
from haarrect.rectifier import (
    _radius,
    admissible_defect_radius,
    iterate,
    q_bound,
    verify_core_morphism,
)


def full_core(g):
    return build_core(g, tuple(range(g.n_arrows)))


def coboundary(g, alg, seed=0, scale=0.2):
    """Value columns of h_t(a) h_s(a)^-1 by explicit inverses."""
    rng = np.random.default_rng(seed)
    h = matrices(alg, _exp(alg, alg.sample_ball(rng, scale, g.n_objects)))
    return columns(alg, [h[g.target[a]] @ np.linalg.inv(h[g.source[a]])
                    for a in range(g.n_arrows)])


def unit_constants():
    return BchConstants(c=1.0, c_prime=1.0, c_dprime=1.0, d=1.0, d_prime=1.0,
                        c_l=1.0, c_d=1.0, safety_factor=1.0)


# ---------------------------------------------------------------------------
# defect map psi
# ---------------------------------------------------------------------------

def test_psi_identity_for_exact_morphism(algebras):
    alg = algebras["SO3"]
    g = build_pair_groupoid(3)
    core = full_core(g)
    phi = coboundary(g, alg, seed=1)
    psi = matrices(alg, psi_stack(alg, phi, core.pairs))
    assert group_membership_residual(psi, "SO3") <= TAU_GROUP
    assert np.abs(psi - np.eye(3)).max() < 1e-14


def test_psi_trivial_morphism_is_bitwise_identity(algebras):
    alg = algebras["SU2"]
    g = build_pair_groupoid(3)
    core = full_core(g)
    phi = np.repeat(np.eye(4)[:, :1], 9, axis=1)
    psi = psi_stack(alg, phi, core.pairs[:5])
    identity = np.broadcast_to(np.eye(4)[:, :1], psi.shape)
    assert psi.tobytes() == identity.tobytes()


def test_psi_single_perturbation_brute_force(algebras):
    # one arrow multiplied by exp(w), |w| = 0.01; all 27 pairs enumerated
    # with an independent matrix route (explicit inverses, direct indexing)
    alg = algebras["SO3"]
    g = build_pair_groupoid(3)
    core = full_core(g)
    phi = matrices(alg, coboundary(g, alg, seed=2))
    w = np.array([0.01, 0.0, 0.0])
    star = 5
    phi_p = phi.copy()
    phi_p[star] = phi_p[star] @ matrices(alg, _exp(alg, w[None]))[0]

    rows, expected = [], []
    for k in range(9):
        for p in range(9):
            if g.source[k] != g.target[p]:
                continue
            kp = int(g.multiply(k, p))
            rows.append((k, p, kp))
            expected.append(np.linalg.inv(phi_p[p]) @ np.linalg.inv(phi_p[k])
                            @ phi_p[kp])
    assert len(rows) == 27
    got = matrices(alg, psi_stack(alg, columns(alg, phi_p), rows))
    assert group_membership_residual(got, "SO3") <= TAU_GROUP
    assert np.abs(got - np.array(expected)).max() < 1e-13

    brute = _distances_to_identity(alg, columns(alg, expected)).max()
    assert abs(defect(columns(alg, phi_p), core, alg) - brute) < 1e-14
    assert 0.0 < defect(columns(alg, phi_p), core, alg) <= 3 * 0.01 * 1.01


def test_central_right_translation_law(algebras):
    # psi picks up exactly one inverse central factor: psi' = psi . z^-1;
    # the defect is *not* invariant, unlike conjugation (tested below)
    alg = algebras["SU2"]
    g = build_pair_groupoid(3)
    core = full_core(g)
    phi = matrices(alg, coboundary(g, alg, seed=3))
    z = -np.eye(2, dtype=complex)            # the nontrivial center of SU(2)
    phi_z = phi @ z
    psi = matrices(alg, psi_stack(alg, columns(alg, phi), core.pairs[:6]))
    psi_z = matrices(alg, psi_stack(alg, columns(alg, phi_z), core.pairs[:6]))
    assert group_membership_residual(psi, "SU2") <= TAU_GROUP
    assert group_membership_residual(psi_z, "SU2") <= TAU_GROUP
    assert np.abs(psi_z - psi @ np.linalg.inv(z)).max() < 1e-13


def test_defect_invariant_under_conjugation(algebras):
    alg = algebras["SO3"]
    g = build_pair_groupoid(4)
    core = full_core(g)
    rng = np.random.default_rng(8)
    phi_p = matrices(alg, coboundary(g, alg, seed=4))
    phi_p[2] = phi_p[2] @ matrices(alg, 
        _exp(alg, alg.sample_ball(rng, 0.02, 1)))[0]
    z = matrices(alg, _exp(alg, alg.sample_ball(rng, 1.0, 1)))[0]
    phi_c = z @ phi_p @ z.conj().T
    assert abs(defect(columns(alg, phi_p), core, alg)
               - defect(columns(alg, phi_c), core, alg)) < 1e-12


def test_defect_overflow(algebras):
    alg = algebras["U1"]   # margin 2.0, group diameter ~2.02
    g = build_pair_groupoid(3)
    core = full_core(g)
    phi = np.array([[[np.exp(0j)]]] * 9)
    phi[5] = [[np.exp(3.13j)]]   # distance ~ 0.643 * 3.13 > margin
    with pytest.raises(DefectOverflow):
        defect(columns(alg, phi), core, alg)


# ---------------------------------------------------------------------------
# averaging and one-step correction
# ---------------------------------------------------------------------------

def test_exact_morphism_average_is_identity(algebras):
    alg = algebras["SO3"]
    g = build_pair_groupoid(3)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    phi = coboundary(g, alg, seed=5)
    corrections, norms = correction(psi_stack(alg, phi, core.pairs), core,
                                    mu, alg)
    assert norms.max() < 1e-14
    assert np.abs(matrices(alg, corrections) - np.eye(3)).max() < 1e-13


def test_trivial_morphism_fixed_point_bitwise(algebras):
    alg = algebras["SU2"]
    g = build_action_groupoid(FiniteGroup.cyclic(2), translations(2, 1))
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    phi = np.array([np.eye(2, dtype=complex)] * 2)
    corrections, _ = correction(
        psi_stack(alg, columns(alg, phi), core.pairs), core, mu, alg)
    out = np.einsum("nij,njk->nik", phi, matrices(alg, corrections))
    assert np.array_equal(out, phi)


def test_plus_minus_one_character_fixed_point_bitwise(algebras):
    # exact +-1 values stay bit-identical through a correction step
    alg = algebras["U1"]
    g = build_action_groupoid(FiniteGroup.cyclic(2), translations(2, 1))
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    phi = np.array([[[1.0 + 0j]], [[-1.0 + 0j]]])
    assert _radius(alg, columns(alg, phi)) == pytest.approx(alg.scale * np.pi)
    corrections, _ = correction(
        psi_stack(alg, columns(alg, phi), core.pairs), core, mu, alg)
    out = np.einsum("nij,njk->nik", phi, matrices(alg, corrections))
    assert np.array_equal(out, phi)


def test_abelian_one_step_exactness_with_cocycle_oracle(algebras):
    alg = algebras["U1"]
    g = build_action_groupoid(FiniteGroup.cyclic(3), translations(3, 3))
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    rng = np.random.default_rng(12)
    theta = np.array([2 * np.pi * (a // 3) / 3 for a in range(9)])
    theta += 0.05 * (2 * rng.random(9) - 1)
    phi = np.exp(1j * theta)[:, None, None]
    assert defect(columns(alg, phi), core, alg) > 1e-4

    corrections, _ = correction(
        psi_stack(alg, columns(alg, phi), core.pairs), core, mu, alg)
    out = np.einsum("nij,njk->nik", phi, matrices(alg, corrections))
    assert defect(columns(alg, out), core, alg) <= 1e-14

    # closed-form abelian cocycle oracle: theta_hat = theta + sum w delta
    def principal(x):
        return np.angle(np.exp(1j * x))
    theta_hat = theta.copy()
    for p in range(9):
        fiber = core.fiber_at(int(g.target[p]))
        acc = 0.0
        for k in fiber:
            kp = int(g.multiply(k, p))
            acc += (1.0 / len(fiber)) * principal(theta[kp] - theta[k] - theta[p])
        theta_hat[p] = theta[p] + acc
    assert np.abs(out[:, 0, 0] - np.exp(1j * theta_hat)).max() < 1e-13


def test_one_step_exact_for_any_invariant_density(algebras):
    # non-uniform right-invariant weights still solve the abelian cocycle
    alg = algebras["U1"]
    g = build_action_groupoid(FiniteGroup.cyclic(3), translations(3, 3))
    core = full_core(g)
    phi_w = (0.5, 0.3, 0.2)
    weights = {a: phi_w[((a % 3) + (a // 3)) % 3] for a in range(9)}
    mu = attach_haar_density(core, weights)
    rng = np.random.default_rng(13)
    theta = np.array([2 * np.pi * (a // 3) / 3 for a in range(9)])
    theta += 0.03 * (2 * rng.random(9) - 1)
    phi = np.exp(1j * theta)[:, None, None]
    corrections, _ = correction(
        psi_stack(alg, columns(alg, phi), core.pairs), core, mu, alg)
    out = np.einsum("nij,njk->nik", phi, matrices(alg, corrections))
    assert defect(columns(alg, out), core, alg) <= 1e-14


def test_correction_norm_bound_and_step_identity(algebras, constants):
    alg = algebras["SO3"]
    k = constants["SO3"]
    g = build_pair_groupoid(4)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    rng = np.random.default_rng(21)
    phi = matrices(alg, coboundary(g, alg, seed=6))
    noise = _exp(alg, alg.sample_ball(rng, 0.01, g.n_arrows))
    phi = np.einsum("nij,njk->nik", phi, matrices(alg, noise))
    delta = defect(columns(alg, phi), core, alg)
    corrections, norms = correction(
        psi_stack(alg, columns(alg, phi), core.pairs), core, mu, alg)
    assert norms.max() <= (k.d / k.d_prime) * delta + 1e-9

    out = np.einsum("nij,njk->nik", phi, matrices(alg, corrections))
    moves = _distances_to_identity(
        alg, columns(alg, phi.conj().swapaxes(-1, -2) @ out))
    assert abs(max(moves) - norms.max()) < 1e-13


def ragged_core():
    """Z4 acting on a 4-cycle plus a fixed point; the core takes the whole
    free orbit (fibers of 4) but only the subgroup {0, 2} at the fixed
    point (fibers of 2), so fiber widths differ between components.  The
    density is a function of the target, right invariant and non-uniform
    per fiber."""
    g = build_action_groupoid(
        FiniteGroup.cyclic(4),
        [[x if x == 4 else (x + a) % 4 for x in range(5)] for a in range(4)])
    core = build_core(g, [a * 5 + x for a in range(4) for x in range(4)]
                      + [4, 14])
    mu = attach_haar_density(
        core, {a: 1.0 + int(g.target[a]) for a in core.arrow_subset})
    return g, core, mu


def test_ragged_fiber_average_matches_per_arrow_sum_bitwise(algebras):
    alg = algebras["SO3"]
    g, core, mu = ragged_core()
    assert {len(core.fiber_at(z)) for z in range(5)} == {2, 4}
    rng = np.random.default_rng(41)
    phi = _exp(alg, alg.sample_ball(rng, 0.02, g.n_arrows))

    # reference: the per-arrow compensated sum over the fiber, in fiber
    # order, of the same batched logs
    pairs = core.pairs
    logs = _log_coords(alg, psi_stack(alg, phi, pairs))
    log_of = {(int(k), int(p)): v for (k, p, _), v in zip(pairs, logs)}
    ref = np.array([
        weighted_sum(mu[list(fiber)],
                     np.array([log_of[(k, p)] for k in fiber]))
        for p in range(g.n_arrows)
        for fiber in [core.fiber_at(int(g.target[p]))]
    ])
    corrections, norms = correction(psi_stack(alg, phi, pairs), core, mu, alg)
    assert np.array_equal(norms, alg.norm(ref))
    assert np.array_equal(corrections, _exp(alg, ref))


def test_ragged_padding_keeps_the_sign_of_a_zero_fiber_sum(algebras,
                                                           monkeypatch):
    # the core of the ragged test above, in SU2; on the narrow fibers (the
    # fixed point) every psi is a turn about the third axis whose first two
    # log coordinates are -0.0, so their plain fiber sum is -0.0, while the
    # compensated sum is +0.0; the padding after those fibers must keep it
    alg = algebras["SU2"]
    g, core, mu = ragged_core()
    pairs = core.pairs
    rng = np.random.default_rng(43)
    psi = matrices(alg, _exp(alg, alg.sample_ball(rng, 0.02, len(pairs))))
    narrow = g.target[pairs[:, 1]] == 4
    half = 0.01 * rng.random(narrow.sum())
    psi[narrow] = 0.0
    psi[narrow, 0, 0] = np.exp(0.5j * half)
    psi[narrow, 1, 1] = np.exp(-0.5j * half)
    psi[narrow, 0, 1] = complex(-0.0, -0.0)
    psi[narrow, 1, 0] = complex(0.0, -0.0)
    psi = columns(alg, psi)
    logs = _log_coords(alg, psi)
    assert np.all(np.signbit(logs[narrow, :2]))
    terms = mu[pairs[:, 0], None] * logs
    first, second = terms[pairs[:, 1] == 4]     # arrow 4's fiber of two
    assert np.all(np.signbit((first + second)[:2]))

    ref = np.array([weighted_sum(mu[pairs[rows, 0]], logs[rows])
                    for p in range(g.n_arrows)
                    for rows in [pairs[:, 1] == p]])
    assert not np.any(np.signbit(ref[g.target == 4, :2]))
    # exp and the norm do not show the sign of a zero coordinate, so the
    # averaged coordinates are also caught on their way into exp
    seen = []

    def exp_spy(alg, coords):
        seen.append(coords.copy())
        return _exp(alg, coords)

    monkeypatch.setattr(rectifier, "_exp", exp_spy)
    corrections, norms = correction(psi, core, mu, alg)
    assert seen[0].tobytes() == ref.tobytes()
    assert norms.tobytes() == alg.norm(ref).tobytes()
    assert corrections.tobytes() == _exp(alg, ref).tobytes()


# ---------------------------------------------------------------------------
# q polynomial
# ---------------------------------------------------------------------------

def test_q_at_zero():
    assert q_bound(0.0, unit_constants()) == 0.0


def test_q_substitution_example():
    # c = c_l = d' = 1, C = 0.1: q = 2 (1 + 2 + 0.1) 0.01 = 0.062
    assert abs(q_bound(0.1, unit_constants()) - 0.062) < 1e-15


def test_q_contraction_threshold_bisection_oracle():
    k = unit_constants()
    lo, hi = 1e-3, 1.0
    assert q_bound(lo, k) < lo and q_bound(hi, k) > hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if q_bound(mid, k) < mid:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    # smallest positive fixed point solves 2 C (3 + C) = 1
    assert abs(2 * root * (3 + root) - 1.0) < 1e-10
    assert abs(root - (-3 + np.sqrt(11)) / 2) < 1e-10


def test_admissible_radius_properties(constants):
    for tag in ("U1", "SO3", "SU2"):
        k = constants[tag]
        adm = admissible_defect_radius(k)
        assert 0 < adm <= 1.0 / k.c_l
        assert q_bound(adm, k) <= adm / 2 + 1e-15


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

def make_perturbed(algebras, tag, seed, eps, n_points=4):
    alg = algebras[tag]
    g = build_pair_groupoid(n_points)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    rng = np.random.default_rng(seed)
    phi = coboundary(g, alg, seed=seed)
    noise = _exp(alg, alg.sample_ball(rng, eps, g.n_arrows))
    return g, core, mu, _compose(phi, noise)


def test_iterate_exact_terminates_at_zero(algebras, constants):
    alg = algebras["SO3"]
    g = build_pair_groupoid(3)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    phi = coboundary(g, alg, seed=9)
    limit, trace = iterate(phi, core, mu, alg, constants["SO3"],
                           sets=AmbientSets(1.5, 2.5))
    assert trace.iterations == 0
    assert len(trace.deltas) == 1 and trace.deltas[0] <= 1e-14
    assert trace.terminated == "converged"


def test_iterate_u1_one_step(algebras, constants):
    g, core, mu, phi = make_perturbed(algebras, "U1", seed=14, eps=0.05)
    limit, trace = iterate(phi, core, mu, algebras["U1"], constants["U1"],
                           sets=AmbientSets(1.5, 2.5))
    assert trace.iterations == 1
    assert trace.deltas[-1] <= 1e-14


def test_iterate_so3_quadratic_with_bruteforce_oracle(algebras, constants):
    alg, k = algebras["SO3"], constants["SO3"]
    g, core, mu, phi = make_perturbed(algebras, "SO3", seed=15, eps=0.01,
                                      n_points=5)
    delta0 = defect(phi, core, alg)
    assert delta0 <= admissible_defect_radius(k)
    limit, trace = iterate(phi, core, mu, alg, k, sets=AmbientSets(1.5, 2.5))
    assert trace.terminated == "converged"
    assert trace.iterations <= 8
    assert all(trace.q_certified)
    assert all(trace.correction_bound_ok)
    assert all(trace.step_bound_ok)
    for n in range(trace.iterations):
        assert trace.deltas[n + 1] <= q_bound(trace.deltas[n], k) + 1e-12

    # replay the iteration step by step against the brute-force defect
    current = matrices(alg, phi)
    for n in range(trace.iterations):
        brute = _distances_to_identity(alg, columns(alg, [
            np.linalg.inv(current[p]) @ np.linalg.inv(current[kk])
            @ current[kp]
            for kk, p, kp in core.pairs])).max()
        assert abs(brute - trace.deltas[n]) < 1e-13
        corrections, _ = correction(
            psi_stack(alg, columns(alg, current), core.pairs), core, mu, alg)
        current = np.einsum("nij,njk->nik", current,
                            matrices(alg, corrections))
    assert abs(defect(columns(alg, current), core, alg)
               - trace.deltas[-1]) < 1e-13


def test_iterate_equivariance_under_conjugation(algebras, constants):
    alg, k = algebras["SO3"], constants["SO3"]
    g, core, mu, phi = make_perturbed(algebras, "SO3", seed=16, eps=0.008)
    rng = np.random.default_rng(99)
    z = matrices(alg, _exp(alg, alg.sample_ball(rng, 1.2, 1)))[0]
    phi_c = columns(alg, z @ matrices(alg, phi) @ z.conj().T)
    lim_a, _ = iterate(phi, core, mu, alg, k)
    lim_b, _ = iterate(phi_c, core, mu, alg, k)
    conj = z @ matrices(alg, lim_a) @ z.conj().T
    assert np.abs(conj - matrices(alg, lim_b)).max() < 1e-12


def gauge_cases():
    """(name, groupoid, core): pair(5), cyclic(4) turning two points, and
    S3 on three points with the proper A3 core."""
    g = build_pair_groupoid(5)
    yield "pair5", g, full_core(g)
    g = build_action_groupoid(FiniteGroup.cyclic(4), translations(4, 2))
    yield "cyclic4", g, full_core(g)
    group, perms, even = symmetric_group_3()
    g = build_action_groupoid(group, perms)
    yield "A3", g, build_core(g, tuple(a for a in range(g.n_arrows)
                                       if a // 3 in even))


@pytest.mark.parametrize("raw_norm", ["euclid", "frobenius"])
@pytest.mark.parametrize("aid", ["so3", "su2", "u1"])
@pytest.mark.parametrize("case", ["pair5", "cyclic4", "A3"])
def test_limit_is_gauge_equivariant(case, aid, raw_norm):
    # psi of the gauged map is psi conjugated by h_s(p); log is
    # Ad-equivariant and both norms are Ad-invariant, so every step and
    # the limit gauge alike
    _, g, core = next(c for c in gauge_cases() if c[0] == case)
    mu = attach_haar_density(core, "uniform")
    alg = normalize_algebra_norm(aid, raw_norm)
    k = constants_for(alg, ConstantsSpec(seed=101))
    rng = np.random.default_rng(5)
    phi = _compose(coboundary(g, alg, seed=5, scale=0.25), _exp(
        alg, alg.sample_ball(rng, 0.01, g.n_arrows)))
    h = _exp(alg, alg.sample_ball(rng, 0.3, g.n_objects))
    limit, trace = iterate(phi, core, mu, alg, k, sets=AmbientSets())
    limit_g, trace_g = iterate(gauged(g, phi, h), core, mu, alg, k,
                               sets=AmbientSets())
    assert trace.terminated == trace_g.terminated == "converged"
    assert trace_g.iterations == trace.iterations >= 1
    assert np.abs(gauged(g, limit, h) - limit_g).max() <= 1e-15


def chebyshev_coefficients(values):
    """Largest |coefficient| of each degree over the entries of samples at
    the Chebyshev points cos(pi (j + 1/2) / N), j = 0..N-1."""
    n = len(values)
    cos = np.cos(np.pi * np.outer(np.arange(n), np.arange(n) + 0.5) / n)
    coefficients = 2.0 / n * cos @ np.reshape(values, (n, -1))
    coefficients[0] /= 2.0
    return np.abs(coefficients).max(axis=1)


@pytest.mark.parametrize("tag, eps", [("SO3", 0.03), ("SU2", 0.05),
                                      ("U1", 0.05)])
def test_limit_depends_analytically_on_the_input(algebras, constants, tag,
                                                 eps):
    # phi exp(t w) is analytic in t, and so is each correction step: the
    # limit's Chebyshev coefficients fall geometrically to rounding.  The
    # kinked family phi exp(|t| w) keeps the k^-2 decay of |t|.  tol 0
    # runs every node for the same four steps: a step count that changed
    # along t would put a jump into the coefficients
    alg, k = algebras[tag], constants[tag]
    g = build_pair_groupoid(3)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    rng = np.random.default_rng(7)
    phi = coboundary(g, alg, seed=7, scale=0.25)
    w = alg.sample_ball(rng, eps, g.n_arrows)
    ts = np.cos(np.pi * (np.arange(40) + 0.5) / 40)
    for family, degree, check in ((lambda t: t, 12, lambda c: c <= 1e-13),
                                  (abs, 20, lambda c: c >= 1e-6)):
        limits, steps = [], set()
        for t in ts:
            limit, trace = iterate(_compose(phi, _exp(
                alg, family(t) * w)), core, mu, alg, k, tol=0.0, max_iter=4)
            limits.append(limit)
            steps.add(trace.iterations)
        assert steps == {4}
        assert check(chebyshev_coefficients(limits)[degree])


def test_iterate_cauchy_certificate(algebras, constants):
    alg, k = algebras["SO3"], constants["SO3"]
    g, core, mu, phi = make_perturbed(algebras, "SO3", seed=17, eps=0.012,
                                      n_points=5)
    limit, trace = iterate(phi, core, mu, alg, k)
    r = q_bound(trace.deltas[0], k) / trace.deltas[0]
    assert r < 1.0
    assert trace.total_displacement <= trace.deltas[0] / (1.0 - r) + 1e-12


def test_iterate_rejects_large_defect(algebras, constants):
    g, core, mu, phi = make_perturbed(algebras, "SO3", seed=18, eps=0.3)
    with pytest.raises(DefectTooLarge):
        iterate(phi, core, mu, algebras["SO3"], constants["SO3"])


def test_iterate_rejects_range_escape(algebras, constants):
    alg = algebras["SO3"]
    g = build_pair_groupoid(3)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    phi = coboundary(g, alg, seed=19, scale=1.0)   # range up to ~2
    if _radius(alg, phi) <= 1.5:
        pytest.skip("seed produced a small coboundary")
    with pytest.raises(RangeEscape):
        iterate(phi, core, mu, alg, constants["SO3"], sets=AmbientSets(1.5, 2.5))


def test_iterate_errors_carry_the_initial_defect(algebras, constants):
    alg = algebras["SO3"]
    g, core, mu, phi = make_perturbed(algebras, "SO3", seed=18, eps=0.3)
    with pytest.raises(DefectTooLarge) as err:
        iterate(phi, core, mu, alg, constants["SO3"])
    assert err.value.initial_defect == defect(phi, core, alg)

    # the initial-W check runs after the defect is measured
    g = build_pair_groupoid(3)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    phi = coboundary(g, alg, seed=19, scale=1.0)
    sets = AmbientSets(1.5, 2.5)
    assert _radius(alg, phi) > sets.W_radius
    with pytest.raises(RangeEscape) as err:
        iterate(phi, core, mu, alg, constants["SO3"], sets=sets)
    assert err.value.initial_defect == defect(phi, core, alg)


@pytest.mark.parametrize("tag", ["U1", "SO3", "SU2"])
def test_iterate_reads_each_psi_stack_in_one_angle_pass(algebras, constants,
                                                        monkeypatch, tag):
    # the defect and the next step's logs share one atan2 pass, run over
    # slabs of 7 of the 64 core pairs
    alg = algebras[tag]
    g, core, mu, phi = make_perturbed(algebras, tag, seed=21, eps=0.01)
    monkeypatch.setattr(rectifier, "SLAB_PAIRS", 7)
    angle_pass, rows = groups._angle_pass, []

    def spy(alg, values):
        rows.append(values.shape[-1])
        return angle_pass(alg, values)

    monkeypatch.setattr(groups, "_angle_pass", spy)
    monkeypatch.setattr(rectifier, "_angle_pass", spy)
    _, trace = iterate(phi, core, mu, alg, constants[tag])
    steps = trace.iterations
    assert steps >= 1
    # each step also measures its move over the 16 arrows once; no slab
    # has 16 rows.  U1's log is the signed atan2 of its two parts
    assert rows.count(g.n_arrows) == steps
    assert sum(rows) - steps * g.n_arrows == (steps + 1) * len(core.pairs)


def slab_cases(algebras):
    """(alg, core, weights, values) of perturbed maps whose iteration
    converges: SO3 over pair(5), SU2 and U1 over cyclic(3) turning three
    points, and SO3 on the ragged Z4 core."""
    alg = algebras["SO3"]
    g, core, mu, phi = make_perturbed(algebras, "SO3", seed=15, eps=0.01,
                                      n_points=5)
    yield alg, core, mu, phi
    g = build_action_groupoid(FiniteGroup.cyclic(3), translations(3, 3))
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    for i, tag in enumerate(("SU2", "U1")):
        alg = algebras[tag]
        rng = np.random.default_rng(50 + i)
        noise = _exp(alg, alg.sample_ball(rng, 0.01, g.n_arrows))
        yield alg, core, mu, _compose(coboundary(g, alg, seed=50 + i), noise)
    alg = algebras["SO3"]
    g, core, mu = ragged_core()
    rng = np.random.default_rng(52)
    noise = _exp(alg, alg.sample_ball(rng, 0.01, g.n_arrows))
    yield alg, core, mu, _compose(coboundary(g, alg, seed=52), noise)


def test_iterate_and_verify_are_slab_invariant(algebras, constants,
                                               monkeypatch):
    # slabs of 1, 3 and 7 pairs give the bits of one slab over the core
    for alg, core, mu, phi in slab_cases(algebras):
        k = constants[alg.group_id]
        results = []
        for slab in (len(core.pairs) + 1, 1, 3, 7):
            monkeypatch.setattr(rectifier, "SLAB_PAIRS", slab)
            limit, trace = iterate(phi, core, mu, alg, k,
                                   sets=AmbientSets(1.5, 2.5))
            results.append((limit.tobytes(), trace))
        assert results[0][1].terminated == "converged"
        assert results[0][1].iterations >= 1
        assert results[1:] == results[:1] * 3

    # verification over the whole parent, on proper cores
    alg = algebras["SO3"]
    g, core, mu = ragged_core()
    groups_and_cores = [(g, core)]
    s3, perms, even = symmetric_group_3()
    g = build_action_groupoid(s3, perms)
    groups_and_cores.append((g, build_core(g, tuple(
        a for a in range(g.n_arrows) if a // 3 in even))))
    for g, core in groups_and_cores:
        rng = np.random.default_rng(53)
        phi = _exp(alg, alg.sample_ball(rng, 0.05, g.n_arrows))
        residuals = []
        for slab in (len(g.products) + 1, 1, 3, 7):
            monkeypatch.setattr(rectifier, "SLAB_PAIRS", slab)
            residuals.append((verify_core_morphism(phi, core, alg),
                              verify_core_morphism(phi, core, alg, full=True)))
        assert residuals[0][1] >= residuals[0][0] > 0.0
        assert residuals[1:] == residuals[:1] * 3


def failing_runs(algebras, constants):
    """(name, call) of iterations that fail with each of four errors."""
    so3, k = algebras["SO3"], constants["SO3"]
    g, core, mu, phi = make_perturbed(algebras, "SO3", seed=18, eps=0.3)
    yield "DefectTooLarge", lambda: iterate(phi, core, mu, so3, k)
    g = build_pair_groupoid(3)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    far = coboundary(g, so3, seed=19, scale=1.0)
    yield "RangeEscape", lambda: iterate(far, core, mu, so3, k,
                                         sets=AmbientSets(1.5, 2.5))
    u1 = algebras["U1"]
    turned = np.array([[[np.exp(0j)]]] * 9)
    turned[5] = [[np.exp(3.13j)]]   # distance ~ 0.643 * 3.13 > margin
    yield "DefectOverflow", lambda: iterate(columns(u1, turned), core, mu, u1,
                                            constants["U1"])
    g, core, mu, phi = make_perturbed(algebras, "SO3", seed=20, eps=0.012)
    bad = np.full(g.n_arrows, 60.0)
    yield "NonContraction", lambda: iterate(phi, core, bad, so3, k)


def test_iterate_errors_are_slab_invariant(algebras, constants, monkeypatch,
                                           capfd):
    # each error keeps its type, message, initial defect (and partial
    # trace) over slabs of 1, 3 and 7 pairs; the pass writes nothing and
    # warns of nothing
    for name, run in failing_runs(algebras, constants):
        seen = []
        for slab in (10 ** 6, 1, 3, 7):
            monkeypatch.setattr(rectifier, "SLAB_PAIRS", slab)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(HaarrectError) as err:
                    run()
            assert not caught
            seen.append((type(err.value).__name__, str(err.value),
                         err.value.initial_defect,
                         getattr(err.value, "trace", None)))
        assert seen[0][0] == name
        assert seen[1:] == seen[:1] * 3
    assert capfd.readouterr() == ("", "")


def test_log_domain_error_names_the_first_bad_pair_over_slabs(algebras):
    # the pass reads on past a log outside the margin, the first of which
    # the correction names, whatever slab it came in
    alg = algebras["U1"]    # margin 2.0, a half turn reaches ~2.02
    core = full_core(build_pair_groupoid(3))
    mu = attach_haar_density(core, "uniform")
    psi = np.ones((len(core.pairs), 1, 1), dtype=complex)
    psi[[20, 25]] = np.exp(1j * np.pi)
    psi = columns(alg, psi)
    k, p, _ = core.pairs[20]
    for slab in (1, 3, 7, len(core.pairs)):
        sweep = rectifier._PsiPass(alg, core.pairs, core, mu)
        for lo in range(0, len(core.pairs), slab):
            sweep.read(psi[..., lo:lo + slab], lo)
        with pytest.raises(LogDomainError,
                           match=re.escape(f"log psi({k}, {p}) outside")):
            sweep.correction()


def test_iterate_memory_is_bounded_by_the_slabs(algebras):
    # SO3 over pair(40): 64 000 core pairs, 3 steps; the pass holds its slab
    # buffers and one (n_arrows, widest fiber, dim) table, never a psi stack
    # of the whole core (4.6 MB of values alone)
    alg = algebras["SO3"]
    spec = GroupoidSpec(constructor="pair", size=40)
    g = build_groupoid(spec)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    k = constants_for(alg, ConstantsSpec(seed=101))
    phi, _ = generate_exact_morphism(g, spec, alg,
                                     MorphismSpec(kind="auto", scale=0.25))
    phi = perturb_morphism(phi, alg, PerturbationSpec(epsilon=0.01), g)
    tracemalloc.start()
    try:
        _, trace = iterate(phi, core, mu, alg, k, sets=AmbientSets(1.5, 2.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.terminated == "converged" and trace.iterations == 3
    assert peak <= 8 * 2 ** 20


def test_iterate_non_contraction_on_broken_density(algebras, constants):
    # a deliberately invalid density (bypassing the validator) blows the
    # correction up; the defect grows past 1/c_l and the run aborts with a
    # partial trace attached
    alg, k = algebras["SO3"], constants["SO3"]
    g, core, mu, phi = make_perturbed(algebras, "SO3", seed=20, eps=0.012)
    bad = np.full(g.n_arrows, 60.0)
    with pytest.raises(NonContraction) as err:
        iterate(phi, core, bad, alg, k, sets=None)
    assert err.value.trace is not None
    assert err.value.trace.terminated == "defect_grew"


# ---------------------------------------------------------------------------
# psi stacks of SO(2) and SO(3) against complex matrix products
# ---------------------------------------------------------------------------

def complex_psi(alg, phi, pairs):
    """psi over (k, p, kp) rows as a product of the complex matrices of the
    columns phi."""
    k, p, kp = np.asarray(pairs).T
    values = matrices(alg, phi).astype(complex)
    inv = values.conj().swapaxes(-1, -2)
    return inv[p] @ inv[k] @ values[kp]


def harness_cases(algebras):
    """Perturbed harness maps into SO2 and SO3 over pair(5) and cyclic
    actions, the last with a kernel-subgroup core (fewer core pairs than
    multipliable pairs)."""
    specs = [
        (GroupoidSpec(constructor="pair", size=5), None),
        (GroupoidSpec(constructor="action", group_order=6, space_size=3), None),
        (GroupoidSpec(constructor="action", group_order=4, space_size=2),
         (0, 1, 4, 5)),
    ]
    for tag in ("SO2", "SO3"):
        alg = algebras[tag]
        for i, (spec, arrows) in enumerate(specs):
            g = build_groupoid(spec)
            core = build_core(g, arrows or tuple(range(g.n_arrows)))
            phi, _ = generate_exact_morphism(g, spec, alg, MorphismSpec(seed=i))
            phi = perturb_morphism(
                phi, alg, PerturbationSpec(epsilon=0.05, seed=i + 7), g)
            yield alg, g, core, phi


def test_real_psi_stack_matches_complex_product(algebras):
    for alg, g, core, phi in harness_cases(algebras):
        pairs = core.pairs
        psi = psi_stack(alg, phi, pairs)
        assert psi.dtype == np.float64 and psi.shape == (alg.dim + 1,
                                                         len(pairs))
        # the matrix of a Hamilton product against the product of the
        # matrices: SO(3)'s entries are quadratic in the quaternion
        assert np.abs(matrices(alg, psi)
                      - complex_psi(alg, phi, pairs)).max() <= 4e-15


@pytest.mark.parametrize("tag", ["U1", "SO2", "SO3", "SU2"])
def test_iterate_and_verify_take_only_value_columns(algebras, tag):
    # values are (dim + 1, n_arrows) float64 columns; any other stack, the
    # (n_arrows, m, m) matrices and the (parts, m, m, n_arrows) columns of
    # matrix entries included, is a ValueError naming the expected shape
    alg = algebras[tag]
    g = build_pair_groupoid(2)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    identity = np.eye(alg.dim + 1)[:, [0] * g.n_arrows]
    assert identity.shape == (alg.dim + 1, g.n_arrows)
    k = constants_for(alg, ConstantsSpec(seed=101))
    limit, trace = iterate(identity, core, mu, alg, k)
    assert trace.iterations == 0 and limit.dtype == np.float64
    assert np.array_equal(limit, identity)
    assert verify_core_morphism(identity, core, alg, full=True) == 0.0
    expected = re.escape(f"(dim + 1, n_arrows) = {identity.shape}")
    m = MATRIX_DIM[alg.algebra_id]
    entries = np.zeros((1 + (tag in ("U1", "SU2")), m, m, g.n_arrows))
    for bad in (matrices(alg, identity), entries, identity.astype(complex),
                identity[:-1], np.vstack([identity, identity]),
                identity[..., :-1], identity[None]):
        with pytest.raises(ValueError, match=expected):
            iterate(bad, core, mu, alg, k)
        with pytest.raises(ValueError, match=expected):
            verify_core_morphism(bad, core, alg)


def test_real_psi_defect_correction_and_verification_match_complex(algebras):
    for alg, g, core, phi in harness_cases(algebras):
        pairs = core.pairs
        psi_c = columns(alg, complex_psi(alg, phi, pairs).real)
        assert abs(defect(phi, core, alg)
                   - stack_defect(alg, psi_c)) <= 1e-15
        mu = attach_haar_density(core, "uniform")
        corr, norms = correction(psi_stack(alg, phi, pairs), core, mu, alg)
        corr_c, norms_c = correction(psi_c, core, mu, alg)
        assert np.abs(corr - corr_c).max() <= 1e-15
        assert np.abs(norms - norms_c).max() <= 1e-15
        q, p = g.products[:, 0], g.products[:, 1]
        full = g.products[g.source[q] == g.target[p]]
        for rows, flag in ((pairs, False), (full, True)):
            expected = np.max(_distances_to_identity(
                alg, columns(alg, complex_psi(alg, phi, rows).real)))
            got = verify_core_morphism(phi, core, alg, full=flag)
            assert abs(got - expected) <= 1e-15


# ---------------------------------------------------------------------------
# morphism verification
# ---------------------------------------------------------------------------

def test_verify_exact_morphism_is_zero(algebras):
    alg = algebras["SU2"]
    g = build_pair_groupoid(4)
    core = full_core(g)
    phi = coboundary(g, alg, seed=22)
    assert verify_core_morphism(phi, core, alg) < 1e-14
    assert verify_core_morphism(phi, core, alg, full=True) < 1e-14


def test_verify_limit_within_metric_equivalence(algebras, constants):
    alg, k = algebras["SO3"], constants["SO3"]
    g, core, mu, phi = make_perturbed(algebras, "SO3", seed=23, eps=0.01)
    tol = 1e-12
    limit, trace = iterate(phi, core, mu, alg, k, tol=tol)
    assert verify_core_morphism(limit, core, alg) <= (k.d_prime / k.d) * tol


def test_partial_core_residual_reported_separately(algebras, constants):
    alg, k = algebras["U1"], constants["U1"]
    g = build_action_groupoid(FiniteGroup.cyclic(4), translations(4, 2))
    core = build_core(g, (0, 1, 4, 5))      # kernel subgroup {0, 2}
    mu = attach_haar_density(core, "uniform")
    rng = np.random.default_rng(25)
    theta = 0.04 * (2 * rng.random(8) - 1)
    phi = columns(alg, np.exp(1j * theta)[:, None, None])
    limit, trace = iterate(phi, core, mu, alg, k)
    core_res = verify_core_morphism(limit, core, alg)
    full_res = verify_core_morphism(limit, core, alg, full=True)
    assert core_res <= 1e-13
    # only the core identity is driven to zero; full pairs may stay off
    assert full_res > 100 * core_res


def symmetric_group_3():
    """S3 as a table over the permutations of (0, 1, 2) in lexicographic
    order, (ab)(x) = a(b(x)), and the indices of the even ones (A3)."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[x] for x in b)] for b in perms] for a in perms]
    even = [n for n, p in enumerate(perms)
            if sum(p[i] > p[j] for j in range(3) for i in range(j)) % 2 == 0]
    return FiniteGroup(table=np.array(table), identity=0), np.array(perms), even


@pytest.mark.parametrize("core_kind", ["full", "A3"])
@pytest.mark.parametrize("tag", ["SO3", "SU2"])
def test_s3_on_three_points_contracts_on_full_and_alternating_cores(
        algebras, constants, tag, core_kind):
    # non-abelian isotropy: each point is fixed by a swap, and S3 acts on
    # the three points; the A3 core is a proper core whose isotropy is
    # trivial, so only its pairs are driven to a morphism
    group, perms, even = symmetric_group_3()
    g = build_action_groupoid(group, perms)
    arrows = (range(g.n_arrows) if core_kind == "full"
              else [a for a in range(g.n_arrows) if a // 3 in even])
    core = build_core(g, tuple(arrows))
    mu = attach_haar_density(core, "uniform")
    alg, k = algebras[tag], constants[tag]
    rng = np.random.default_rng(31)
    phi = _compose(coboundary(g, alg, seed=31),
                   _exp(alg, alg.sample_ball(rng, 0.01, g.n_arrows)))
    tol = 1e-12
    limit, trace = iterate(phi, core, mu, alg, k, sets=AmbientSets(1.5, 2.5),
                           tol=tol)
    assert trace.terminated == "converged" and 1 <= trace.iterations <= 4
    assert all(trace.q_certified)
    assert all(trace.correction_bound_ok) and all(trace.step_bound_ok)
    assert verify_core_morphism(limit, core, alg) <= (k.d_prime / k.d) * tol
    full = verify_core_morphism(limit, core, alg, full=True)
    if core_kind == "full":
        assert full == trace.deltas[-1]
    else:
        # the pairs off the core keep about the perturbation's size
        assert full > 1e-3
