"""Defect measurement and Haar-averaged correction of almost-morphisms.

An almost-morphism assigns a group element to every arrow of a groupoid.
Its defect against a core K is the worst left-invariant distance of
psi(k, p) = phi(p)^-1 phi(k)^-1 phi(k p) from the identity over the pairs
(k, p) with k in K.  One correction step multiplies each value phi(p) by
the exponential of the fiber-weighted average of log psi(., p); iterating
contracts the defect quadratically, which is certified step by step against
the polynomial bound q and the two in-proof bounds.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DefectOverflow,
    DefectTooLarge,
    LogDomainError,
    NonContraction,
    NotComposable,
    RangeEscape,
)
from .groups import (
    GroupElement,
    _distances_to_identity,
    _exp_matrices,
    _log_coords,
)
from .sums import NeumaierSum

Q_CERT_SLACK = 1e-12        # slack on the per-step quadratic certificate
CORRECTION_BOUND_SLACK = 1e-9   # slack on |A| <= (d/d') * defect


@dataclass(frozen=True)
class AlmostMorphism:
    """Arrow-indexed group values with a recomputed range certificate."""

    values: np.ndarray          # (n_arrows, n, n) complex
    target_group: str
    range_certificate: float

    def value(self, arrow):
        return GroupElement(matrix=self.values[arrow], group_id=self.target_group)

    @property
    def n_arrows(self):
        return self.values.shape[0]


def almost_morphism(values, target_group, alg):
    """Build an AlmostMorphism, recomputing the range certificate."""
    values = np.asarray(values, dtype=complex)
    cert = float(np.max(_distances_to_identity(alg, values)))
    return AlmostMorphism(values=values, target_group=target_group,
                          range_certificate=cert)


@dataclass(frozen=True)
class IterationTrace:
    """Per-step audit record of one rectification run.

    deltas has one more entry than the step lists: deltas[n] is the defect
    before step n and the final entry is the defect of the returned map.
    """

    deltas: tuple
    correction_norms: tuple
    step_moves: tuple
    q_bounds: tuple
    q_certified: tuple
    correction_bound_ok: tuple
    step_bound_ok: tuple
    constants_used: object
    terminated: str
    admissible_radius: float

    def __post_init__(self):
        n = len(self.correction_norms)
        if not (len(self.deltas) == n + 1 == len(self.step_moves) + 1
                == len(self.q_certified) + 1 == len(self.q_bounds) + 1):
            raise ValueError("inconsistent trace lengths")
        if any(d < 0 for d in self.deltas):
            raise ValueError("defects must be nonnegative")

    @property
    def iterations(self):
        return len(self.correction_norms)

    @property
    def total_displacement(self):
        """Cauchy certificate: total distance moved across all steps."""
        return float(np.sum(self.step_moves)) if self.step_moves else 0.0


def core_pairs(core):
    """Rows (k, p, kp) with k in the core and s(k) = t(p), in index order;
    build_core enumerates them once and keeps them on the core."""
    return core.pairs


def _psi_stack(phi, pairs):
    """psi(k, p) = phi(p)^-1 phi(k)^-1 phi(kp) over (k, p, kp) rows; the
    one psi path of the defect, correction and verification."""
    k, p, kp = np.asarray(pairs, dtype=np.intp).reshape(-1, 3).T
    inv = phi.values.conj().swapaxes(-1, -2)
    return inv[p] @ inv[k] @ phi.values[kp]


def defect_element(phi, core, k, p):
    """psi(k, p) = phi(p)^-1 phi(k)^-1 phi(k p) as a GroupElement."""
    g = core.parent
    if k not in set(core.arrow_subset):
        raise NotComposable(f"arrow {k} is not in the core")
    if g.source[k] != g.target[p] or not g.is_multipliable(k, p):
        raise NotComposable(f"pair ({k}, {p}) is not multipliable")
    m = _psi_stack(phi, [(k, p, g.compose(k, p))])[0]
    return GroupElement(matrix=m, group_id=phi.target_group)


def _max_distance(alg, psi):
    """Defect of a psi stack: its worst distance from the identity, which
    is measurable up to the injectivity margin; beyond it, an overflow."""
    dists = _distances_to_identity(alg, psi)
    if not np.all(np.isfinite(dists)):
        raise DefectOverflow("non-finite defect distances")
    worst = float(np.max(dists))
    if worst > alg.injectivity_margin:
        raise DefectOverflow(
            f"defect {worst:.6g} beyond measurable range "
            f"(margin {alg.injectivity_margin:.6g})"
        )
    return worst


def defect(phi, core, alg, pairs=None):
    """Max distance of psi from the identity over the core pairs."""
    pairs = core_pairs(core) if pairs is None else pairs
    return _max_distance(alg, _psi_stack(phi, pairs))


def average_correction(phi, core, density, alg, max_defect=None, pairs=None):
    """Fiber-averaged correction A(p) = exp(sum_k w_k log psi(k, p)).

    The integration fiber for an arrow p is the core source fiber over
    t(p); composability forces that choice.  Returns the stacked correction
    matrices and their distances to the identity (exact for the radial
    realization: |exp(w)| = |w|).
    """
    pairs = core_pairs(core) if pairs is None else np.asarray(pairs)
    psi = _psi_stack(phi, pairs)
    if max_defect is not None:
        current = _max_distance(alg, psi)
        if current > max_defect:
            raise DefectTooLarge(current, max_defect)
    return _correction(psi, pairs, density, alg, phi.n_arrows)


def _correction(psi, pairs, density, alg, n_arrows):
    """average_correction from the psi stack over the core pairs."""
    # pair rows in (p, k) order: each arrow's fiber, in fiber order
    order = np.argsort(pairs[:, 1], kind="stable")
    logs = _log_coords(alg, psi)[order]
    bad = np.flatnonzero(alg.norm(logs) > alg.injectivity_margin)
    if bad.size:
        k, p, _ = pairs[order[bad[0]]]
        raise LogDomainError(f"log psi({k}, {p}) outside injectivity margin")
    weights = np.array([density.weight(k) for k in pairs[order, 0]])

    # Neumaier sums over fiber position, all arrows of one fiber width at
    # once: per arrow the same additions in the same order as weighted_sum
    width = np.bincount(pairs[:, 1], minlength=n_arrows)
    start = np.cumsum(width) - width
    avg_coords = np.zeros((n_arrows, alg.dim))
    for w in np.unique(width[width > 0]):
        arrows = np.flatnonzero(width == w)
        rows = start[arrows, None] + np.arange(w)
        acc = NeumaierSum(shape=(len(arrows), alg.dim))
        for j in range(w):
            acc.add(weights[rows[:, j], None] * logs[rows[:, j]])
        avg_coords[arrows] = acc.value
    return _exp_matrices(alg, avg_coords), alg.norm(avg_coords)


def correct_once(phi, core, density, alg, sets=None, max_defect=None):
    """One correction step: phi_hat(p) = phi(p) . A(p).

    With ``sets`` given, raises RangeEscape when any corrected value leaves
    the ambient compact.
    """
    corrections, _ = average_correction(phi, core, density, alg,
                                        max_defect=max_defect)
    return _apply_correction(phi, corrections, alg, sets, "corrected map")


def _apply_correction(phi, corrections, alg, sets, what):
    """phi . A; RangeEscape if ``sets`` is given and it leaves the compact."""
    new_values = np.einsum("nij,njk->nik", phi.values, corrections)
    out = almost_morphism(new_values, phi.target_group, alg)
    if sets is not None and out.range_certificate > sets.K_radius + 1e-9:
        raise RangeEscape(f"{what} left the ambient compact",
                          radius=out.range_certificate, limit=sets.K_radius)
    return out


def q_bound(C, k):
    """Quadratic contraction polynomial q(C)."""
    if C < 0:
        raise ValueError("C must be nonnegative")
    return (2.0 * k.c * k.c_l * (k.d_prime * k.c_l + 2.0 * k.d_prime
                                 + k.c * k.c_l * C)
            / k.d_prime ** 2 * C * C)


def admissible_defect_radius(k):
    """Largest certified entry defect: min(1/c_l, 1/c_d, q(C) <= C/2 root).

    For abelian targets the quadratic coefficient vanishes and only the
    two reciprocal guards bind.
    """
    guards = []
    if k.c_l > 0:
        guards.append(1.0 / k.c_l)
    if k.c_d > 0:
        guards.append(1.0 / k.c_d)
    a2 = 2.0 * k.c * k.c_l * (k.d_prime * k.c_l + 2.0 * k.d_prime) / k.d_prime ** 2
    a3 = 2.0 * (k.c * k.c_l) ** 2 / k.d_prime ** 2
    # q(C) <= C/2  <=>  a2*C + a3*C^2 <= 1/2
    if a3 > 0:
        guards.append((-a2 + np.sqrt(a2 * a2 + 2.0 * a3)) / (2.0 * a3))
    elif a2 > 0:
        guards.append(0.5 / a2)
    return float(min(guards))


def iterate(phi0, core, density, alg, constants, sets=None, tol=1e-12,
            max_iter=50):
    """Run the correction iteration until the defect drops below tol.

    Certifies every step against q and the two in-proof bounds
    (|A| <= (d/d') * defect and step <= 1/c_d), and raises NonContraction
    only if the defect grows past the averaging precondition 1/c_l.
    """
    # one psi stack per map: its defect and, next step, its correction
    pairs = core_pairs(core)
    psi = _psi_stack(phi0, pairs)
    delta = _max_distance(alg, psi)
    admissible = admissible_defect_radius(constants)
    if delta > admissible:
        raise DefectTooLarge(delta, admissible)
    if sets is not None and phi0.range_certificate > sets.W_radius + 1e-9:
        raise RangeEscape(
            "initial map does not take values in W",
            radius=phi0.range_certificate, limit=sets.W_radius,
        )

    deltas = [delta]
    correction_norms, step_moves, q_bounds = [], [], []
    q_flags, corr_ok, step_ok = [], [], []

    def trace(terminated):
        return IterationTrace(
            deltas=tuple(deltas),
            correction_norms=tuple(correction_norms),
            step_moves=tuple(step_moves),
            q_bounds=tuple(q_bounds),
            q_certified=tuple(q_flags),
            correction_bound_ok=tuple(corr_ok),
            step_bound_ok=tuple(step_ok),
            constants_used=constants,
            terminated=terminated,
            admissible_radius=admissible,
        )

    phi = phi0
    n = 0
    while delta > tol and n < max_iter:
        # the averaging precondition, checked against the defect in hand
        if delta > 1.0 / constants.c_l:
            raise DefectTooLarge(delta, 1.0 / constants.c_l)
        corrections, a_norms = _correction(psi, pairs, density, alg, phi.n_arrows)
        corr_norm = float(np.max(a_norms))
        phi_next = _apply_correction(phi, corrections, alg, sets, f"iterate {n + 1}")
        # independent step measurement (must agree with corr_norm by left
        # invariance; both are recorded)
        step = float(np.max(_distances_to_identity(
            alg, np.einsum("nij,njk->nik",
                           phi.values.conj().swapaxes(-1, -2), phi_next.values)
        )))
        psi = _psi_stack(phi_next, pairs)
        delta_next = _max_distance(alg, psi)
        qb = q_bound(delta, constants)

        correction_norms.append(corr_norm)
        step_moves.append(step)
        q_bounds.append(qb)
        q_flags.append(delta_next <= qb + Q_CERT_SLACK)
        corr_ok.append(
            corr_norm <= (constants.d / constants.d_prime) * delta
            + CORRECTION_BOUND_SLACK
        )
        step_ok.append(step <= 1.0 / constants.c_d + Q_CERT_SLACK)

        deltas.append(delta_next)
        phi = phi_next
        n += 1
        if delta_next > 1.0 / constants.c_l:
            raise NonContraction(n, delta_next, trace=trace("defect_grew"))
        delta = delta_next

    return phi, trace("converged" if delta <= tol else "max_iter")


def verify_core_morphism(phi, core, alg, full=False):
    """Max morphism residual d(phi(kp), phi(k) phi(p)) over pair lists.

    With ``full`` the residual runs over every declared-multipliable pair of
    the parent groupoid (full morphism verification); otherwise only over
    the core pairs, which is what the averaging limit guarantees.
    """
    if full:
        g = core.parent
        q, p = g.products[:, 0], g.products[:, 1]
        pairs = g.products[g.source[q] == g.target[p]]
    else:
        pairs = core_pairs(core)
    # d(phi(kp), phi(k) phi(p)) is the distance of psi(k, p) from identity
    return float(np.max(_distances_to_identity(alg, _psi_stack(phi, pairs)),
                        initial=0.0))
