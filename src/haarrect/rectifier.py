"""Defect measurement and Haar-averaged correction of almost-morphisms.

An almost-morphism assigns a group element to every arrow of a groupoid;
it is held as the (dim + 1, n_arrows) float64 columns of its values, unit
complex numbers or unit quaternions (see `groups`).  Its defect against a
core K is the worst left-invariant distance of psi(k, p) =
phi(p)^-1 phi(k)^-1 phi(k p) from the identity over the pairs (k, p) with
k in K.  One correction step multiplies each value phi(p) by the
exponential of the fiber-weighted average of log psi(., p); iterating
contracts the defect quadratically, which is certified step by step
against the polynomial bound q and the two in-proof bounds.
"""

import numpy as np

from .errors import (
    DefectOverflow,
    DefectTooLarge,
    HaarrectError,
    LogDomainError,
    NonContraction,
    RangeEscape,
    Value,
)
from .groups import _angle_pass, _compose, _distances_to_identity, _exp
from .groups import _inverse, _log_coords
from .sums import NeumaierSum

Q_CERT_SLACK = 1e-12        # slack on the per-step quadratic certificate
CORRECTION_BOUND_SLACK = 1e-9   # slack on |A| <= (d/d') * defect
# pairs per psi slab.  On SO3 pair(20) and pair(50) runs (2-core Xeon), 4096
# ran 8-12% faster than 2048 in the median, and 8192 within 4096's spread
SLAB_PAIRS = 4096


class IterationTrace(Value):
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
    terminated: str

    def _check(self):
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


def _value_columns(phi, alg, n_arrows):
    """``phi`` as float64 value columns of n_arrows arrows, or ValueError."""
    shape = (alg.dim + 1, n_arrows)
    if np.shape(phi) != shape or np.iscomplexobj(phi):
        raise ValueError(f"values must be a real (dim + 1, n_arrows) = "
                         f"{shape} stack, not a {np.asarray(phi).dtype} "
                         f"{np.shape(phi)} one")
    return np.asarray(phi, dtype=float)


def _radius(alg, values):
    """Largest distance of a value stack from the identity (0 if empty)."""
    return float(np.max(_distances_to_identity(alg, values), initial=0.0))


class _PsiPass:
    """psi(k, p) = phi(p)^-1 phi(k)^-1 phi(kp) over (k, p, kp) rows, read in
    slabs of SLAB_PAIRS rows: the one psi path of the defect, the correction
    and verification.

    The gather buffers are allocated once and reused by every slab of
    every pass.  One `_angle_pass` reads each slab's psi: its worst
    distance from the identity and, given a core's weights, the logs whose
    weighted values fill the core's fiber table, from which `correction`
    averages.
    """

    def __init__(self, alg, pairs, core=None, weights=None):
        self.alg, self.pairs, self.weights = alg, pairs, weights
        self.slab = max(1, min(SLAB_PAIRS, len(pairs)))
        self._work = np.empty((3, (alg.dim + 1) * self.slab))
        self._worst, self._bad = [], None
        if weights is not None:
            # pair i of arrow p fills its row of an (n_arrows, widest fiber)
            # table from the left, at slot i + shift[p]; the rest stays 0.0
            width = core.by_source[2][core.parent.target]
            self._table = np.zeros((len(width), width.max(), alg.dim))
            self._slots = self._table.reshape(-1, alg.dim)
            self._shift = (np.arange(len(width)) * width.max()
                           - (np.cumsum(width) - width))
            self._ragged = bool(self._shift.any())

    def psi_slabs(self, phi):
        """(first row, psi columns) of each slab of rows, for the value
        columns phi: two products of gathered columns per slab."""
        inv, parts = _inverse(phi), self.alg.dim + 1
        for lo in range(0, len(self.pairs), self.slab):
            k, p, kp = self.pairs[lo:lo + self.slab].T
            a, b, c = self._work[:, :parts * len(k)].reshape(3, parts, len(k))
            # the rows index validated tables, so clipping moves none; the
            # default mode would stage each gather in a temporary
            np.take(inv, p, axis=1, out=a, mode="clip")
            np.take(inv, k, axis=1, out=b, mode="clip")
            np.take(phi, kp, axis=1, out=c, mode="clip")
            yield lo, _compose(_compose(a, b), c)

    def read(self, psi, lo):
        """Read the psi columns of rows lo, lo + 1, ... in one angle pass:
        their worst distance and, with weights, their weighted logs."""
        alg = self.alg
        angles = _angle_pass(alg, psi)
        self._worst.append(np.max(alg.factor * angles[1], initial=0.0))
        if self.weights is None:
            return
        logs = _log_coords(alg, psi, angles)
        if self._bad is None:
            bad = np.flatnonzero(alg.norm(logs) > alg.injectivity_margin)
            self._bad = lo + bad[0] if bad.size else None
        rows = slice(lo, lo + len(logs))
        w = self.weights[self.pairs[rows, 0], None]
        if self._ragged:
            slots = np.arange(lo, rows.stop) + self._shift[self.pairs[rows, 1]]
            self._slots[slots] = w * logs
        else:
            np.multiply(w, logs, out=self._slots[rows])

    def run(self, phi):
        """Read psi of the value columns phi over every row; returns self."""
        self._worst, self._bad = [], None
        for lo, psi in self.psi_slabs(phi):
            self.read(psi, lo)
        return self

    @property
    def worst(self):
        """Largest distance of the psi read from the identity (0 if none)."""
        return float(np.max(self._worst, initial=0.0))

    def defect(self):
        """The worst distance, measurable up to the injectivity margin;
        beyond it, an overflow."""
        worst = self.worst
        if not np.isfinite(worst):
            raise DefectOverflow("non-finite defect distances")
        if worst > self.alg.injectivity_margin:
            raise DefectOverflow(f"defect {worst:.6g} beyond measurable range "
                                 f"(margin {self.alg.injectivity_margin:.6g})")
        return worst

    def correction(self):
        """Fiber-averaged correction A(p) = exp(sum_k w_k log psi(k, p)) of
        the psi read, with its distances to the identity (exact for the
        radial realization: |exp(w)| = |w|).

        The integration fiber for an arrow p is the core source fiber over
        t(p); composability forces that choice.  A log outside the
        injectivity margin is a LogDomainError naming its first pair.
        """
        if self._bad is not None:
            k, p, _ = self.pairs[self._bad]
            raise LogDomainError(f"log psi({k}, {p}) outside injectivity "
                                 f"margin")
        # per arrow, the same additions in the same order as weighted_sum
        # over its fiber, then +0.0s, which leave a NeumaierSum's bits
        # alone: its sum and correction start at +0.0, and x + y is -0.0
        # only if both are
        acc = NeumaierSum(shape=(len(self._table), self.alg.dim))
        for j in range(self._table.shape[1]):
            acc.add(self._table[:, j])
        avg_coords = acc.value
        return _exp(self.alg, avg_coords), self.alg.norm(avg_coords)


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
    # q(C) <= C/2  <=>  a2*C + a3*C^2 <= 1/2; the root tends to 0 as the
    # constants grow, and 0 stands for it where they overflow
    disc = a2 * a2 + 2.0 * a3
    if a3 > 0:
        guards.append((-a2 + np.sqrt(disc)) / (2.0 * a3) if disc < np.inf
                      else 0.0)
    elif a2 > 0:
        guards.append(0.5 / a2)
    return float(min(guards))


def iterate(phi0, core, weights, alg, constants, sets=None, tol=1e-12,
            max_iter=50):
    """Run the correction iteration until the defect drops below tol.

    ``phi0``, the initial map's values, and the returned limit are
    (dim + 1, n_arrows) value columns (see `groups`); any other stack is a
    ValueError.
    ``weights`` is the density from ``attach_haar_density``: one weight per
    arrow of the parent groupoid, 0 off the core.  Certifies every step
    against q and the two in-proof bounds (|A| <= (d/d') * defect and
    step <= 1/c_d), and raises NonContraction only if the defect grows past
    the averaging precondition 1/c_l.  With ``sets``, the initial map must
    take values in W and every step must stay in K (RangeEscape).  A package
    error raised after the initial defect is measured carries that defect
    as ``initial_defect``.
    """
    phi = _value_columns(phi0, alg, core.parent.n_arrows)
    # one psi pass per map: its defect and the logs of its correction
    sweep = _PsiPass(alg, core.pairs, core, weights)
    delta = sweep.run(phi).defect()
    initial = delta
    try:
        if sets is not None:
            radius = _radius(alg, phi)
            if radius > sets.W_radius + 1e-9:
                raise RangeEscape("initial map does not take values in W",
                                  radius=radius, limit=sets.W_radius)
        admissible = admissible_defect_radius(constants)
        if delta > admissible:
            raise DefectTooLarge(delta, admissible)

        # the columns of the trace, in IterationTrace's field order
        columns = ([delta], [], [], [], [], [], [])
        deltas, correction_norms, step_moves, q_bounds = columns[:4]
        q_flags, corr_ok, step_ok = columns[4:]
        trace = lambda end: IterationTrace(*map(tuple, columns), end)

        n = 0
        while delta > tol and n < max_iter:
            corrections, a_norms = sweep.correction()
            corr_norm = float(np.max(a_norms))
            phi_next = _compose(phi, corrections)
            if sets is not None:
                radius = _radius(alg, phi_next)
                if radius > sets.K_radius + 1e-9:
                    raise RangeEscape(
                        f"iterate {n + 1} left the ambient compact",
                        radius=radius, limit=sets.K_radius)
            # independent step measurement (must agree with corr_norm by left
            # invariance; both are recorded)
            step = _radius(alg, _compose(_inverse(phi), phi_next))
            delta_next = sweep.run(phi_next).defect()
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
            # the averaging precondition of the next step (the entry check
            # put the first defect within admissible <= 1/c_l)
            if delta_next > 1.0 / constants.c_l:
                raise NonContraction(n, delta_next, trace=trace("defect_grew"))
            delta = delta_next

        return phi, trace("converged" if delta <= tol else "max_iter")
    except HaarrectError as exc:
        exc.initial_defect = initial
        raise


def verify_core_morphism(phi, core, alg, full=False):
    """Max morphism residual d(phi(kp), phi(k) phi(p)) over pair lists.

    With ``full`` the residual runs over every declared-multipliable pair of
    the parent groupoid (full morphism verification); otherwise only over
    the core pairs, which is what the averaging limit guarantees.  ``phi``
    is (dim + 1, n_arrows) value columns, as for `iterate`.
    """
    phi = _value_columns(phi, alg, core.parent.n_arrows)
    pairs = core.parent.products if full else core.pairs
    # d(phi(kp), phi(k) phi(p)) is the distance of psi(k, p) from identity
    return _PsiPass(alg, pairs).run(phi).worst
