import numpy as np
import pytest

from conftest import (
    TAU_GROUP,
    defect,
    group_membership_residual,
    translations,
)
from haarrect.errors import (
    DefectOverflow,
    DefectTooLarge,
    HaarrectError,
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
    _distances_to_identity,
    _exp_matrices,
    _log_coords,
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
    IterationTrace,
    _correction,
    _max_distance,
    _psi_stack,
    _radius,
    admissible_defect_radius,
    iterate,
    q_bound,
    verify_core_morphism,
)


def full_core(g):
    return build_core(g, tuple(range(g.n_arrows)))


def coboundary(g, alg, seed=0, scale=0.2):
    rng = np.random.default_rng(seed)
    h = _exp_matrices(alg, alg.sample_ball(rng, scale, g.n_objects))
    return np.array([h[g.target[a]] @ np.linalg.inv(h[g.source[a]])
                     for a in range(g.n_arrows)])


def unit_constants():
    return BchConstants(c=1.0, c_prime=1.0, c_dprime=1.0, d=1.0, d_prime=1.0,
                        c_l=1.0, c_d=1.0, sample_count=1000, safety_factor=1.0)


# ---------------------------------------------------------------------------
# defect map psi
# ---------------------------------------------------------------------------

def test_psi_identity_for_exact_morphism(algebras):
    alg = algebras["SO3"]
    g = build_pair_groupoid(3)
    core = full_core(g)
    phi = coboundary(g, alg, seed=1)
    psi = _psi_stack(phi, core.pairs)
    assert group_membership_residual(psi, "SO3") <= TAU_GROUP
    assert np.abs(psi - np.eye(3)).max() < 1e-14


def test_psi_trivial_morphism_is_bitwise_identity(algebras):
    alg = algebras["SU2"]
    g = build_pair_groupoid(3)
    core = full_core(g)
    phi = np.array([np.eye(2, dtype=complex)] * 9)
    psi = _psi_stack(phi, core.pairs[:5])
    assert np.array_equal(psi, np.broadcast_to(np.eye(2, dtype=complex),
                                               psi.shape))


def test_psi_single_perturbation_brute_force(algebras):
    # one arrow multiplied by exp(w), |w| = 0.01; all 27 pairs enumerated
    # with an independent matrix route (explicit inverses, direct indexing)
    alg = algebras["SO3"]
    g = build_pair_groupoid(3)
    core = full_core(g)
    phi = coboundary(g, alg, seed=2)
    w = np.array([0.01, 0.0, 0.0])
    star = 5
    phi_p = phi.copy()
    phi_p[star] = phi_p[star] @ _exp_matrices(alg, w[None])[0]

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
    got = _psi_stack(phi_p, rows)
    assert group_membership_residual(got, "SO3") <= TAU_GROUP
    assert np.abs(got - np.array(expected)).max() < 1e-13

    brute = _distances_to_identity(alg, np.array(expected)).max()
    assert abs(defect(phi_p, core, alg) - brute) < 1e-14
    assert 0.0 < defect(phi_p, core, alg) <= 3 * 0.01 * 1.01


def test_central_right_translation_law(algebras):
    # psi picks up exactly one inverse central factor: psi' = psi . z^-1;
    # the defect is *not* invariant, unlike conjugation (tested below)
    alg = algebras["SU2"]
    g = build_pair_groupoid(3)
    core = full_core(g)
    phi = coboundary(g, alg, seed=3)
    z = -np.eye(2, dtype=complex)            # the nontrivial center of SU(2)
    phi_z = phi @ z
    psi = _psi_stack(phi, core.pairs[:6])
    psi_z = _psi_stack(phi_z, core.pairs[:6])
    assert group_membership_residual(psi, "SU2") <= TAU_GROUP
    assert group_membership_residual(psi_z, "SU2") <= TAU_GROUP
    assert np.abs(psi_z - psi @ np.linalg.inv(z)).max() < 1e-13


def test_defect_invariant_under_conjugation(algebras):
    alg = algebras["SO3"]
    g = build_pair_groupoid(4)
    core = full_core(g)
    rng = np.random.default_rng(8)
    phi = coboundary(g, alg, seed=4)
    phi_p = phi.copy()
    phi_p[2] = phi_p[2] @ _exp_matrices(alg, alg.sample_ball(rng, 0.02, 1))[0]
    z = _exp_matrices(alg, alg.sample_ball(rng, 1.0, 1))[0]
    phi_c = z @ phi_p @ z.conj().T
    assert abs(defect(phi_p, core, alg) - defect(phi_c, core, alg)) < 1e-12


def test_defect_overflow(algebras):
    alg = algebras["U1"]   # margin 2.0, group diameter ~2.02
    g = build_pair_groupoid(3)
    core = full_core(g)
    phi = np.array([[[np.exp(0j)]]] * 9)
    phi[5] = [[np.exp(3.13j)]]   # distance ~ 0.643 * 3.13 > margin
    with pytest.raises(DefectOverflow):
        defect(phi, core, alg)


# ---------------------------------------------------------------------------
# averaging and one-step correction
# ---------------------------------------------------------------------------

def test_exact_morphism_average_is_identity(algebras):
    alg = algebras["SO3"]
    g = build_pair_groupoid(3)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    phi = coboundary(g, alg, seed=5)
    corrections, norms = _correction(_psi_stack(phi, core.pairs), core, mu, alg)
    assert norms.max() < 1e-14
    assert np.abs(corrections - np.eye(3)).max() < 1e-13


def test_trivial_morphism_fixed_point_bitwise(algebras):
    alg = algebras["SU2"]
    g = build_action_groupoid(FiniteGroup.cyclic(2), translations(2, 1))
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    phi = np.array([np.eye(2, dtype=complex)] * 2)
    corrections, _ = _correction(_psi_stack(phi, core.pairs), core, mu, alg)
    out = np.einsum("nij,njk->nik", phi, corrections)
    assert np.array_equal(out, phi)


def test_plus_minus_one_character_fixed_point_bitwise(algebras):
    # exact +-1 values stay bit-identical through a correction step
    alg = algebras["U1"]
    g = build_action_groupoid(FiniteGroup.cyclic(2), translations(2, 1))
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    phi = np.array([[[1.0 + 0j]], [[-1.0 + 0j]]])
    assert _radius(alg, phi) == pytest.approx(alg.scale * np.pi)
    corrections, _ = _correction(_psi_stack(phi, core.pairs), core, mu, alg)
    out = np.einsum("nij,njk->nik", phi, corrections)
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
    assert defect(phi, core, alg) > 1e-4

    corrections, _ = _correction(_psi_stack(phi, core.pairs), core, mu, alg)
    out = np.einsum("nij,njk->nik", phi, corrections)
    assert defect(out, core, alg) <= 1e-14

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
    corrections, _ = _correction(_psi_stack(phi, core.pairs), core, mu, alg)
    out = np.einsum("nij,njk->nik", phi, corrections)
    assert defect(out, core, alg) <= 1e-14


def test_correction_norm_bound_and_step_identity(algebras, constants):
    alg = algebras["SO3"]
    k = constants["SO3"]
    g = build_pair_groupoid(4)
    core = full_core(g)
    mu = attach_haar_density(core, "uniform")
    rng = np.random.default_rng(21)
    phi = coboundary(g, alg, seed=6)
    noise = _exp_matrices(alg, alg.sample_ball(rng, 0.01, g.n_arrows))
    phi = np.einsum("nij,njk->nik", phi, noise)
    delta = defect(phi, core, alg)
    corrections, norms = _correction(_psi_stack(phi, core.pairs), core, mu, alg)
    assert norms.max() <= (k.d / k.d_prime) * delta + 1e-9

    out = np.einsum("nij,njk->nik", phi, corrections)
    moves = _distances_to_identity(
        alg, phi.conj().swapaxes(-1, -2) @ out)
    assert abs(max(moves) - norms.max()) < 1e-13


def test_ragged_fiber_average_matches_per_arrow_sum_bitwise(algebras):
    # Z4 acting on a 4-cycle plus a fixed point; the core takes the whole
    # free orbit (fibers of 4) but only the subgroup {0, 2} at the fixed
    # point (fibers of 2), so fiber widths differ between components
    alg = algebras["SO3"]
    g = build_action_groupoid(
        FiniteGroup.cyclic(4),
        [[x if x == 4 else (x + a) % 4 for x in range(5)] for a in range(4)])
    core = build_core(g, [a * 5 + x for a in range(4) for x in range(4)]
                      + [4, 14])
    assert {len(core.fiber_at(z)) for z in range(5)} == {2, 4}
    # a function of the target is right invariant; non-uniform per fiber
    weights = {a: 1.0 + int(g.target[a]) for a in core.arrow_subset}
    mu = attach_haar_density(core, weights)
    rng = np.random.default_rng(41)
    phi = _exp_matrices(alg, alg.sample_ball(rng, 0.02, g.n_arrows))

    # reference: the per-arrow compensated sum over the fiber, in fiber
    # order, of the same batched logs
    pairs = core.pairs
    logs = _log_coords(alg, _psi_stack(phi, pairs))
    log_of = {(int(k), int(p)): v for (k, p, _), v in zip(pairs, logs)}
    ref = np.array([
        weighted_sum(mu[list(fiber)],
                     np.array([log_of[(k, p)] for k in fiber]))
        for p in range(g.n_arrows)
        for fiber in [core.fiber_at(int(g.target[p]))]
    ])
    corrections, norms = _correction(_psi_stack(phi, pairs), core, mu, alg)
    assert np.array_equal(norms, alg.norm(ref))
    assert np.array_equal(corrections, _exp_matrices(alg, ref))


def test_ragged_padding_keeps_the_sign_of_a_zero_fiber_sum(algebras,
                                                           monkeypatch):
    # the core of the ragged test above, in SU2; on the narrow fibers (the
    # fixed point) every psi is a turn about the third axis whose first two
    # log coordinates are -0.0, so their plain fiber sum is -0.0, while the
    # compensated sum is +0.0; the padding after those fibers must keep it
    alg = algebras["SU2"]
    g = build_action_groupoid(
        FiniteGroup.cyclic(4),
        [[x if x == 4 else (x + a) % 4 for x in range(5)] for a in range(4)])
    core = build_core(g, [a * 5 + x for a in range(4) for x in range(4)]
                      + [4, 14])
    mu = attach_haar_density(
        core, {a: 1.0 + int(g.target[a]) for a in core.arrow_subset})
    pairs = core.pairs
    rng = np.random.default_rng(43)
    psi = _exp_matrices(alg, alg.sample_ball(rng, 0.02, len(pairs)))
    narrow = g.target[pairs[:, 1]] == 4
    half = 0.01 * rng.random(narrow.sum())
    psi[narrow] = 0.0
    psi[narrow, 0, 0] = np.exp(0.5j * half)
    psi[narrow, 1, 1] = np.exp(-0.5j * half)
    psi[narrow, 0, 1] = complex(-0.0, -0.0)
    psi[narrow, 1, 0] = complex(0.0, -0.0)
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
        return _exp_matrices(alg, coords)

    monkeypatch.setattr(rectifier, "_exp_matrices", exp_spy)
    corrections, norms = _correction(psi, core, mu, alg)
    assert seen[0].tobytes() == ref.tobytes()
    assert norms.tobytes() == alg.norm(ref).tobytes()
    assert corrections.tobytes() == _exp_matrices(alg, ref).tobytes()


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
    noise = _exp_matrices(alg, alg.sample_ball(rng, eps, g.n_arrows))
    phi = np.einsum("nij,njk->nik", phi, noise)
    return g, core, mu, phi


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
    current = phi
    for n in range(trace.iterations):
        brute = _distances_to_identity(alg, np.array([
            np.linalg.inv(current[p]) @ np.linalg.inv(current[kk])
            @ current[kp]
            for kk, p, kp in core.pairs])).max()
        assert abs(brute - trace.deltas[n]) < 1e-13
        corrections, _ = _correction(_psi_stack(current, core.pairs), core,
                                     mu, alg)
        current = np.einsum("nij,njk->nik", current, corrections)
    assert abs(defect(current, core, alg) - trace.deltas[-1]) < 1e-13


def test_iterate_equivariance_under_conjugation(algebras, constants):
    alg, k = algebras["SO3"], constants["SO3"]
    g, core, mu, phi = make_perturbed(algebras, "SO3", seed=16, eps=0.008)
    rng = np.random.default_rng(99)
    z = _exp_matrices(alg, alg.sample_ball(rng, 1.2, 1))[0]
    phi_c = z @ phi @ z.conj().T
    lim_a, _ = iterate(phi, core, mu, alg, k)
    lim_b, _ = iterate(phi_c, core, mu, alg, k)
    conj = z @ lim_a @ z.conj().T
    assert np.abs(conj - lim_b).max() < 1e-12


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
    # the defect and the next step's logs share one sine/cosine pass
    alg = algebras[tag]
    g, core, mu, phi = make_perturbed(algebras, tag, seed=21, eps=0.01)
    sine_cosine, rows = groups._sine_cosine, []
    monkeypatch.setattr(groups, "_sine_cosine", lambda alg, m: (
        rows.append(len(m)) or sine_cosine(alg, m)))
    _, trace = iterate(phi, core, mu, alg, constants[tag])
    assert trace.iterations >= 1
    # U1's log is the signed atan2 of the shared sine and cosine
    assert rows.count(len(core.pairs)) == trace.iterations + 1


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
# real psi stacks for SO(2) and SO(3)
# ---------------------------------------------------------------------------

def complex_psi(phi, pairs):
    """psi over (k, p, kp) rows as a product of the complex values."""
    k, p, kp = np.asarray(pairs).T
    values = phi.astype(complex)
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
        psi = _psi_stack(phi, pairs)
        assert psi.dtype == np.float64
        assert np.abs(psi - complex_psi(phi, pairs)).max() <= 1e-15


def test_iterate_stores_real_groups_in_float64(algebras, constants):
    # iterate coerces its input once: complex-typed values of a real group
    # run as their float64 real part, bit for bit
    outcomes = []
    for alg, g, core, phi in harness_cases(algebras):
        assert phi.dtype == np.float64
        k = constants_for(alg, ConstantsSpec(seed=101))
        mu = attach_haar_density(core, "uniform")
        runs = []
        for values in (phi, phi.astype(complex)):
            try:
                limit, trace = iterate(values, core, mu, alg, k)
            except HaarrectError as exc:
                runs.append((type(exc), exc.initial_defect))
            else:
                assert limit.dtype == np.float64
                runs.append((limit.tobytes(), trace))
        assert runs[0] == runs[1]
        outcomes.append(isinstance(runs[0][1], IterationTrace))
    assert any(outcomes)
    for tag in ("U1", "SU2"):
        alg = algebras[tag]
        g = build_pair_groupoid(2)
        core = full_core(g)
        identity = np.eye(alg.matrix_dim)[None].repeat(g.n_arrows, axis=0)
        limit, trace = iterate(identity, core,
                               attach_haar_density(core, "uniform"), alg,
                               constants[tag])
        assert limit.dtype == complex and trace.iterations == 0
        assert np.array_equal(limit, identity)


def test_real_psi_defect_correction_and_verification_match_complex(algebras):
    for alg, g, core, phi in harness_cases(algebras):
        pairs = core.pairs
        psi_c = complex_psi(phi, pairs)
        assert abs(defect(phi, core, alg)
                   - _max_distance(alg, psi_c)[0]) <= 1e-15
        mu = attach_haar_density(core, "uniform")
        corr, norms = _correction(_psi_stack(phi, pairs), core, mu, alg)
        corr_c, norms_c = _correction(psi_c, core, mu, alg)
        assert np.abs(corr - corr_c).max() <= 1e-15
        assert np.abs(norms - norms_c).max() <= 1e-15
        q, p = g.products[:, 0], g.products[:, 1]
        full = g.products[g.source[q] == g.target[p]]
        for rows, flag in ((pairs, False), (full, True)):
            expected = np.max(_distances_to_identity(alg, complex_psi(phi, rows)))
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
    phi = np.exp(1j * theta)[:, None, None]
    limit, trace = iterate(phi, core, mu, alg, k)
    core_res = verify_core_morphism(limit, core, alg)
    full_res = verify_core_morphism(limit, core, alg, full=True)
    assert core_res <= 1e-13
    # only the core identity is driven to zero; full pairs may stay off
    assert full_res > 100 * core_res
