import numpy as np
import pytest

from haarrect.errors import (
    DefectOverflow,
    DefectTooLarge,
    NonContraction,
    NotComposable,
    RangeEscape,
)
from haarrect.groupoids import (
    FiniteGroup,
    HaarDensity,
    attach_haar_density,
    build_action_groupoid,
    build_core,
    build_pair_groupoid,
)
from haarrect.groups import (
    AmbientSets,
    BchConstants,
    _exp_matrices,
    _log_coords,
    left_distance,
)
from haarrect.sums import weighted_sum
from haarrect.rectifier import (
    _psi_stack,
    admissible_defect_radius,
    almost_morphism,
    average_correction,
    core_pairs,
    correct_once,
    defect,
    defect_element,
    iterate,
    q_bound,
    verify_core_morphism,
)


def full_core(g):
    return build_core(g, tuple(range(g.n_arrows)))


def coboundary(g, alg, seed=0, scale=0.2):
    rng = np.random.default_rng(seed)
    h = _exp_matrices(alg, alg.sample_ball(rng, scale, g.n_objects))
    values = np.array([h[g.target[a]] @ np.linalg.inv(h[g.source[a]])
                       for a in range(g.n_arrows)])
    return almost_morphism(values, alg.group_id, alg)


def unit_constants():
    return BchConstants(c=1.0, c_prime=1.0, c_dprime=1.0, d=1.0, d_prime=1.0,
                        c_l=1.0, c_d=1.0, sample_count=1000, safety_factor=1.0)


# ---------------------------------------------------------------------------
# defect map psi
# ---------------------------------------------------------------------------

def test_psi_identity_for_exact_morphism(algebras):
    alg = algebras["SO3"]
    g = build_pair_groupoid(tuple(range(3)))
    core = full_core(g)
    phi = coboundary(g, alg, seed=1)
    for k, p, kp in core_pairs(core):
        psi = defect_element(phi, core, k, p)
        assert np.abs(psi.matrix - np.eye(3)).max() < 1e-14


def test_psi_trivial_morphism_is_bitwise_identity(algebras):
    alg = algebras["SU2"]
    g = build_pair_groupoid(tuple(range(3)))
    core = full_core(g)
    phi = almost_morphism(np.array([np.eye(2, dtype=complex)] * 9), "SU2", alg)
    for k, p, kp in core_pairs(core)[:5]:
        psi = defect_element(phi, core, k, p)
        assert np.array_equal(psi.matrix, np.eye(2, dtype=complex))


def test_psi_single_perturbation_brute_force(algebras):
    # one arrow multiplied by exp(w), |w| = 0.01; all 27 pairs enumerated
    # with an independent matrix route (explicit inverses, direct indexing)
    alg = algebras["SO3"]
    g = build_pair_groupoid(tuple(range(3)))
    core = full_core(g)
    phi = coboundary(g, alg, seed=2)
    w = np.array([0.01, 0.0, 0.0])
    star = 5
    values = phi.values.copy()
    values[star] = values[star] @ _exp_matrices(alg, w[None])[0]
    phi_p = almost_morphism(values, "SO3", alg)

    count = 0
    for k in range(9):
        for p in range(9):
            if g.source[k] != g.target[p]:
                continue
            count += 1
            kp = g.compose(k, p)
            expected = (np.linalg.inv(values[p]) @ np.linalg.inv(values[k])
                        @ values[kp])
            got = defect_element(phi_p, core, k, p).matrix
            assert np.abs(got - expected).max() < 1e-13
    assert count == 27

    brute = max(
        left_distance(np.eye(3, dtype=complex),
                      np.linalg.inv(values[p]) @ np.linalg.inv(values[k])
                      @ values[g.compose(k, p)], alg)
        for k in range(9) for p in range(9) if g.source[k] == g.target[p]
    )
    assert abs(defect(phi_p, core, alg) - brute) < 1e-14
    assert 0.0 < defect(phi_p, core, alg) <= 3 * 0.01 * 1.01


def test_psi_not_composable(algebras):
    alg = algebras["SO3"]
    g = build_pair_groupoid(tuple(range(3)))
    core = full_core(g)
    phi = coboundary(g, alg)
    with pytest.raises(NotComposable):
        defect_element(phi, core, 0, 3)   # s(0) = 0 but t(3) = 1


def test_central_right_translation_law(algebras):
    # psi picks up exactly one inverse central factor: psi' = psi . z^-1;
    # the defect is *not* invariant, unlike conjugation (tested below)
    alg = algebras["SU2"]
    g = build_pair_groupoid(tuple(range(3)))
    core = full_core(g)
    phi = coboundary(g, alg, seed=3)
    z = -np.eye(2, dtype=complex)            # the nontrivial center of SU(2)
    phi_z = almost_morphism(phi.values @ z, "SU2", alg)
    for k, p, kp in core_pairs(core)[:6]:
        psi = defect_element(phi, core, k, p).matrix
        psi_z = defect_element(phi_z, core, k, p).matrix
        assert np.abs(psi_z - psi @ np.linalg.inv(z)).max() < 1e-13


def test_defect_invariant_under_conjugation(algebras):
    alg = algebras["SO3"]
    g = build_pair_groupoid(tuple(range(4)))
    core = full_core(g)
    rng = np.random.default_rng(8)
    phi = coboundary(g, alg, seed=4)
    values = phi.values.copy()
    values[2] = values[2] @ _exp_matrices(alg, alg.sample_ball(rng, 0.02, 1))[0]
    phi_p = almost_morphism(values, "SO3", alg)
    z = _exp_matrices(alg, alg.sample_ball(rng, 1.0, 1))[0]
    phi_c = almost_morphism(z @ phi_p.values @ z.conj().T, "SO3", alg)
    assert abs(defect(phi_p, core, alg) - defect(phi_c, core, alg)) < 1e-12


def test_defect_overflow(algebras):
    alg = algebras["U1"]   # margin 2.0, group diameter ~2.02
    g = build_pair_groupoid(tuple(range(3)))
    core = full_core(g)
    values = np.array([[[np.exp(0j)]]] * 9)
    values[5] = [[np.exp(3.13j)]]   # distance ~ 0.643 * 3.13 > margin
    phi = almost_morphism(values, "U1", alg)
    with pytest.raises(DefectOverflow):
        defect(phi, core, alg)


# ---------------------------------------------------------------------------
# averaging and one-step correction
# ---------------------------------------------------------------------------

def test_exact_morphism_average_is_identity(algebras):
    alg = algebras["SO3"]
    g = build_pair_groupoid(tuple(range(3)))
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    phi = coboundary(g, alg, seed=5)
    corrections, norms = average_correction(phi, core, mu, alg)
    assert norms.max() < 1e-14
    assert np.abs(corrections - np.eye(3)).max() < 1e-13


def test_trivial_morphism_fixed_point_bitwise(algebras):
    alg = algebras["SU2"]
    g = build_action_groupoid(FiniteGroup.cyclic(2), ("pt",), lambda a, x: x)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    phi = almost_morphism(np.array([np.eye(2, dtype=complex)] * 2), "SU2", alg)
    out = correct_once(phi, core, mu, alg)
    assert np.array_equal(out.values, phi.values)


def test_plus_minus_one_character_fixed_point_bitwise(algebras):
    # exact +-1 values stay bit-identical through a correction step
    alg = algebras["U1"]
    g = build_action_groupoid(FiniteGroup.cyclic(2), ("pt",), lambda a, x: x)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    values = np.array([[[1.0 + 0j]], [[-1.0 + 0j]]])
    phi = almost_morphism(values, "U1", alg)
    assert phi.range_certificate == pytest.approx(alg.scale * np.pi)
    out = correct_once(phi, core, mu, alg)
    assert np.array_equal(out.values, values)


def test_abelian_one_step_exactness_with_cocycle_oracle(algebras):
    alg = algebras["U1"]
    g = build_action_groupoid(FiniteGroup.cyclic(3), (0, 1, 2),
                              lambda a, x: (x + a) % 3)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    rng = np.random.default_rng(12)
    theta = np.array([2 * np.pi * (a // 3) / 3 for a in range(9)])
    theta += 0.05 * (2 * rng.random(9) - 1)
    phi = almost_morphism(np.exp(1j * theta)[:, None, None], "U1", alg)
    assert defect(phi, core, alg) > 1e-4

    out = correct_once(phi, core, mu, alg)
    assert defect(out, core, alg) <= 1e-14

    # closed-form abelian cocycle oracle: theta_hat = theta + sum w delta
    def principal(x):
        return np.angle(np.exp(1j * x))
    theta_hat = theta.copy()
    for p in range(9):
        fiber = core.fiber_at(int(g.target[p]))
        acc = 0.0
        for k in fiber:
            kp = g.compose(k, p)
            acc += (1.0 / len(fiber)) * principal(theta[kp] - theta[k] - theta[p])
        theta_hat[p] = theta[p] + acc
    assert np.abs(out.values[:, 0, 0] - np.exp(1j * theta_hat)).max() < 1e-13


def test_one_step_exact_for_any_invariant_density(algebras):
    # non-uniform right-invariant weights still solve the abelian cocycle
    alg = algebras["U1"]
    g = build_action_groupoid(FiniteGroup.cyclic(3), (0, 1, 2),
                              lambda a, x: (x + a) % 3)
    core = full_core(g)
    phi_w = (0.5, 0.3, 0.2)
    weights = {a: phi_w[((a % 3) + (a // 3)) % 3] for a in range(9)}
    mu = attach_haar_density(core, weights)
    rng = np.random.default_rng(13)
    theta = np.array([2 * np.pi * (a // 3) / 3 for a in range(9)])
    theta += 0.03 * (2 * rng.random(9) - 1)
    phi = almost_morphism(np.exp(1j * theta)[:, None, None], "U1", alg)
    out = correct_once(phi, core, mu, alg)
    assert defect(out, core, alg) <= 1e-14


def test_correction_norm_bound_and_step_identity(algebras, constants):
    alg = algebras["SO3"]
    k = constants["SO3"]
    g = build_pair_groupoid(tuple(range(4)))
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    rng = np.random.default_rng(21)
    phi = coboundary(g, alg, seed=6)
    noise = _exp_matrices(alg, alg.sample_ball(rng, 0.01, g.n_arrows))
    phi = almost_morphism(np.einsum("nij,njk->nik", phi.values, noise),
                          "SO3", alg)
    delta = defect(phi, core, alg)
    corrections, norms = average_correction(phi, core, mu, alg)
    assert norms.max() <= (k.d / k.d_prime) * delta + 1e-9

    out = correct_once(phi, core, mu, alg)
    moves = [left_distance(phi.values[p], out.values[p], alg)
             for p in range(g.n_arrows)]
    assert abs(max(moves) - norms.max()) < 1e-13


def test_ragged_fiber_average_matches_per_arrow_sum_bitwise(algebras):
    # Z4 acting on a 4-cycle plus a fixed point; the core takes the whole
    # free orbit (fibers of 4) but only the subgroup {0, 2} at the fixed
    # point (fibers of 2), so fiber widths differ between components
    alg = algebras["SO3"]
    g = build_action_groupoid(FiniteGroup.cyclic(4), tuple(range(5)),
                              lambda a, x: x if x == 4 else (x + a) % 4)
    core = build_core(g, [a * 5 + x for a in range(4) for x in range(4)]
                      + [4, 14])
    assert {len(core.fiber_at(z)) for z in range(5)} == {2, 4}
    # a function of the target is right invariant; non-uniform per fiber
    weights = {a: 1.0 + int(g.target[a]) for a in core.arrow_subset}
    mu = attach_haar_density(core, weights)
    rng = np.random.default_rng(41)
    phi = almost_morphism(
        _exp_matrices(alg, alg.sample_ball(rng, 0.02, g.n_arrows)), "SO3", alg)

    # reference: the per-arrow compensated sum over the fiber, in fiber
    # order, of the same batched logs
    pairs = core_pairs(core)
    logs = _log_coords(alg, _psi_stack(phi, pairs))
    log_of = {(int(k), int(p)): v for (k, p, _), v in zip(pairs, logs)}
    ref = np.array([
        weighted_sum(np.array([mu.weight(k) for k in fiber]),
                     np.array([log_of[(k, p)] for k in fiber]))
        for p in range(g.n_arrows)
        for fiber in [core.fiber_at(int(g.target[p]))]
    ])
    corrections, norms = average_correction(phi, core, mu, alg)
    assert np.array_equal(norms, alg.norm(ref))
    assert np.array_equal(corrections, _exp_matrices(alg, ref))


def test_average_precondition_enforced(algebras):
    alg = algebras["SO3"]
    g = build_pair_groupoid(tuple(range(3)))
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    rng = np.random.default_rng(31)
    phi = coboundary(g, alg, seed=7)
    noise = _exp_matrices(alg, alg.sample_ball(rng, 0.3, g.n_arrows))
    phi = almost_morphism(np.einsum("nij,njk->nik", phi.values, noise),
                          "SO3", alg)
    with pytest.raises(DefectTooLarge):
        average_correction(phi, core, mu, alg, max_defect=0.01)


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
    g = build_pair_groupoid(tuple(range(n_points)))
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    rng = np.random.default_rng(seed)
    phi = coboundary(g, alg, seed=seed)
    noise = _exp_matrices(alg, alg.sample_ball(rng, eps, g.n_arrows))
    phi = almost_morphism(np.einsum("nij,njk->nik", phi.values, noise),
                          alg.group_id, alg)
    return g, core, mu, phi


def test_iterate_exact_terminates_at_zero(algebras, constants):
    alg = algebras["SO3"]
    g = build_pair_groupoid(tuple(range(3)))
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
    current = phi
    for n in range(trace.iterations):
        brute = max(
            left_distance(
                np.eye(3, dtype=complex),
                np.linalg.inv(current.values[p]) @ np.linalg.inv(current.values[kk])
                @ current.values[kp], alg)
            for kk, p, kp in core_pairs(core)
        )
        assert abs(brute - trace.deltas[n]) < 1e-13
        current = correct_once(current, core, mu, alg)
    assert abs(defect(current, core, alg) - trace.deltas[-1]) < 1e-13


def test_iterate_equivariance_under_conjugation(algebras, constants):
    alg, k = algebras["SO3"], constants["SO3"]
    g, core, mu, phi = make_perturbed(algebras, "SO3", seed=16, eps=0.008)
    rng = np.random.default_rng(99)
    z = _exp_matrices(alg, alg.sample_ball(rng, 1.2, 1))[0]
    phi_c = almost_morphism(z @ phi.values @ z.conj().T, "SO3", alg)
    lim_a, _ = iterate(phi, core, mu, alg, k)
    lim_b, _ = iterate(phi_c, core, mu, alg, k)
    conj = z @ lim_a.values @ z.conj().T
    assert np.abs(conj - lim_b.values).max() < 1e-12


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
    g = build_pair_groupoid(tuple(range(3)))
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    phi = coboundary(g, alg, seed=19, scale=1.0)   # range up to ~2
    if phi.range_certificate <= 1.5:
        pytest.skip("seed produced a small coboundary")
    with pytest.raises(RangeEscape):
        iterate(phi, core, mu, alg, constants["SO3"], sets=AmbientSets(1.5, 2.5))


def test_iterate_non_contraction_on_broken_density(algebras, constants):
    # a deliberately invalid density (bypassing the validator) blows the
    # correction up; the defect grows past 1/c_l and the run aborts with a
    # partial trace attached
    alg, k = algebras["SO3"], constants["SO3"]
    g, core, mu, phi = make_perturbed(algebras, "SO3", seed=20, eps=0.012)
    bad = HaarDensity(core=core, weights={a: 60.0 for a in core.arrow_subset})
    with pytest.raises(NonContraction) as err:
        iterate(phi, core, bad, alg, k, sets=None)
    assert err.value.trace is not None
    assert err.value.trace.terminated == "defect_grew"


# ---------------------------------------------------------------------------
# morphism verification
# ---------------------------------------------------------------------------

def test_verify_exact_morphism_is_zero(algebras):
    alg = algebras["SU2"]
    g = build_pair_groupoid(tuple(range(4)))
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
    g = build_action_groupoid(FiniteGroup.cyclic(4), (0, 1),
                              lambda a, x: (x + a) % 2)
    core = build_core(g, (0, 1, 4, 5))      # kernel subgroup {0, 2}
    mu = attach_haar_density(core, "uniform")
    rng = np.random.default_rng(25)
    theta = 0.04 * (2 * rng.random(8) - 1)
    phi = almost_morphism(np.exp(1j * theta)[:, None, None], "U1", alg)
    limit, trace = iterate(phi, core, mu, alg, k)
    core_res = verify_core_morphism(limit, core, alg)
    full_res = verify_core_morphism(limit, core, alg, full=True)
    assert core_res <= 1e-13
    # only the core identity is driven to zero; full pairs may stay off
    assert full_res > 100 * core_res
