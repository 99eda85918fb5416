"""Fourier-space field energies of vector-valued and classical currents.

Energy = 1/2 (2 pi)^-3 int |jhat(xi)|^2 / |xi|^2 dxi of a transverse current

    jhat(r u) = i phi(r) r sum_lam e^{i r u.x_lam} c_lam(u),

with r = |xi|, u a unit direction and the site terms c_lam(u) = u x V_lam.
The rule is a spherical product: Gauss-Legendre radial nodes r_i on
[0, r_far] (weights rw_i) times unit directions, Gauss-Legendre in
cos(theta) and uniform in the azimuth.  It is closed under u -> -u by
construction: its directions are the antipodal closure of the upper
hemisphere's u_k (cos(theta) >= 0, weights dw_k), each of u_k and -u_k
weighted dw_k / 2, and the node r_i (+-u_k) carries the weight
rw_i r_i^2 dw_k / 2.  The lower hemisphere is the point mirror of the
upper one.  For even n_phi the azimuths phi and phi + pi are both on the
grid, and this is the full product rule up to node roundoff; for odd n_phi
the lower hemisphere's azimuths are offset by pi / n_phi from it, which
integrates as well, since the uniform azimuth sum is exact to the same
degree at any offset.

The rule is summed over site pairs.  With H_lam,mu(u) = <c_lam(u), c_mu(u)>
(summed over vector and spin components) and tau = u.(x_mu - x_lam),

    |jhat(r u)|^2 = phi(r)^2 r^2 sum_{lam,mu} e^{i r tau} H_lam,mu(u).

The weight's r^2 cancels the 1/|xi|^2.  The site terms are linear in u, so
c_lam(-u) = -c_lam(u) and H(-u) = H(u), while tau changes sign: over a pair
u, -u the sines of r tau cancel for every current, complex ones included,
and the cosines add.  So with a_i = rw_i r_i^2 phi(r_i)^2 the sum runs over
the upper hemisphere alone,

    E = 1/2 (2 pi)^-3 sum_k dw_k [ (sum_i a_i) sum_lam H_lam,lam(u_k)
        + 2 sum_{lam<mu} C_k Re H_lam,mu(u_k) ],

    C_k = sum_i a_i cos(r_i tau).

Every node keeps its weight and its integrand value: only the order of
summation differs from summing |jhat|^2 node by node.  H is formed once per
upper direction, and a node pair costs one cosine per site pair.  The
angular sum stays the discrete rule, direction by direction, with no Bessel
functions: this module deliberately shares no integration code with the
kernel module, since the equality of the field energy with -<A_M X, X> is
used as a cross-validation of two independent numerical paths.  For the
same reason the module builds no A_M: classical_decomposition_check reads
<A_M X, X> from the operator its caller assembled and sets the classical
field energy of X's spin vectors against it.

The rule is sized by the geometry (rule_sizes).  A pair at distance D puts
cos(r u.dx) into the integrand, a phase of up to x = r_far D on the rule,
so the nodes each axis needs grow linearly in x.  With D the largest
site-pair distance,

    n_theta = max(8, 2 ceil((6 + 0.33 x) / 2)),   n_phi = 2 n_theta,
    n_radial = max(28, ceil(26 + 0.26 x)).

The constants come from a scan (scripts/field_energy_scan.py and a sweep
of each axis with the other one fine): two sites with moments 0.8 and
-0.5 at D along five directions, s = 1/2 and 3/2, three random states
each.  The smallest sizes whose worst relative th_egal residual
|<A_M X, X> + E| / |<A_M X, X>| reached its roundoff floor (<= 1e-14,
the floor itself being 1e-15 to 1e-14) were

    D lam        0  0.5   1   3   5  10  20   40   80
    n_theta      -    8  10  16  22  34  60  116  228
    n_radial    28   28  28  32   -  48  68  112  200

One step of 2 in n_theta below these left 1e-14 to 5e-14 at D >= 3/lam,
and each step further lost a factor 3 to 100.  The radial floor is the
Gaussian's own: below 28 nodes the diagonal terms lose digits at any D
(1.1e-13 at 26).  At D = 0 the integrand is a quadratic in u times that
Gaussian, and the law gives 28 x 8 x 16.  The rule grows as (lam D)^3,
so it is refused with ResourceError beyond MAX_RULE_NODES = 2^25 nodes,
which the sized rule passes from D = 92.5/lam on: at 80/lam it has
205 x 234 x 468 = 22.4 million nodes.

The rule's factors are built once per process for each profile and rule
size, and held read-only.  So are a_i and the cosine sums C_k of each
site-pair geometry, which depend on the profile, the rule sizes and the
displacements x_mu - x_lam, but not on the current.  Their key is (profile,
n_radial, n_theta, n_phi, displacements), and at most 8 keys are kept,
upper directions x pairs x 8 B each: 0.8 KB for a pair at 1/lam
(29 x 10 x 20), 2 KB at 3/lam, 438 KB at 80/lam.  Every current on one
geometry reuses them.  On a 2-core x86_64 box a warm two-site field energy
takes 0.13 ms at 1/lam, and 15 ms at 92/lam, where the first call,
cosines included, takes 0.35 s.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .cutoff import CutoffProfile, phi_eval
from .kernel import a11_origin
from .spin_algebra import ProductState, _require_unit, site_spin_operators
from .spin_operator import HermitianSpinOperator, SpinSystem, \
    _scaled_distances, quadratic_form
# unused, but perfbench/tracing.py pins this name (ROADMAP item 2a)
from .spin_operator import assemble_am  # noqa: F401
from .errors import DomainError, ResourceError, _integer

# The sizing law of the module docstring
THETA_FLOOR, THETA_A, THETA_KAPPA = 8, 6.0, 0.33
RADIAL_FLOOR, RADIAL_A, RADIAL_KAPPA = 28, 26.0, 0.26
MAX_RULE_NODES = 1 << 25
# Default of a rule size: sized from the geometry by rule_sizes
SIZED = object()
# directions x site pairs x radial nodes per batch: 2 MB for the cosine block
_BATCH_NODES = 1 << 18


@dataclass
class FourierCurrent:
    """Transverse current jhat(r u) = i phi(r) r sum_lam e^{i r u.x_lam} c_lam.

    evaluator maps unit directions u (n, 3) to the site terms
    c_lam(u) = u x V_lam, of shape (n, P, 3) for a classical current or
    (n, P, 3, spin_dim) for a spin-valued one; field_energy relies on
    c_lam(-u) = -c_lam(u).  positions (P, 3) holds the sites x_lam.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    positions: np.ndarray
    profile: CutoffProfile


def _site_terms(V):
    """Evaluator of the site terms u x V_lam, for V (P, 3, ...).

    The cross product is folded into E[j, (lam, m, e)] = sum_k eps_mjk
    V[lam, k, e], so n directions cost one real (n, 3) @ (3, 6 P d) product
    on the (re, im) pairs of E.
    """
    V3 = np.asarray(V, dtype=complex).reshape(len(V), 3, -1)
    E = np.zeros((3,) + V3.shape, dtype=complex)  # [j, lam, m, e]
    for m, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        E[j, :, m], E[k, :, m] = V3[:, k], -V3[:, j]
    E_real = E.reshape(3, -1).view(float)
    shape = np.shape(V)

    def evaluator(u):
        u = np.atleast_2d(u)
        return (u @ E_real).view(complex).reshape((len(u),) + shape)

    return evaluator


def vector_current(system: SpinSystem, profile: CutoffProfile, X) -> FourierCurrent:
    """Spin-space-valued current jhat(xi, X) of a spin state X, its site
    terms from the site spins applied to X (site_spin_operators)."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (system.spin_dim,):
        raise DomainError(f"spin state needs {system.spin_dim} components")
    _require_unit(X, "vector current requires a normalized state")
    sigX = site_spin_operators(system.s, system.P, X)  # (P, 3, dim)
    V = system.moments[:, None, None] * sigX
    return FourierCurrent(evaluator=_site_terms(V),
                          positions=system.positions, profile=profile)


def classical_current(system: SpinSystem, profile: CutoffProfile, S) -> FourierCurrent:
    """Classical current jhat(xi, S) of magnet orientations S in (S_2)^P."""
    S = np.asarray(S, dtype=float)
    if S.shape != (system.P, 3):
        raise DomainError("need one unit orientation per particle")
    _require_unit(S, "orientations must be unit vectors", 1e-10)
    V = system.moments[:, None] * S  # (P, 3)
    return FourierCurrent(evaluator=_site_terms(V),
                          positions=system.positions, profile=profile)


@functools.lru_cache(maxsize=16)
def _spherical_nodes(profile, n_radial, n_theta, n_phi):
    """Factors of the spherical-product rule, over its upper hemisphere.

    Returns the radial nodes rn and weights rw on [0, r_far], and the unit
    directions dirs (n, 3) with cos(theta) >= 0 and their weights dw: the
    rule is the antipodal closure of dirs, each u and -u weighted dw / 2, and
    its node r u carries the weight rw r^2 dw / 2.  A ring above the equator
    has twice its Gauss-Legendre weight, the equator ring (odd n_theta) its
    own.  The four arrays are read-only: every call at the same arguments
    shares them.
    """
    r_far = profile.far_radius()
    rn, rw = leggauss(n_radial)
    rn = 0.5 * r_far * (rn + 1.0)
    rw = 0.5 * r_far * rw
    # leggauss's nodes are exactly antisymmetric, and an odd rule's middle
    # node is exactly 0
    cn, cw = leggauss(n_theta)
    cn, cw = cn[n_theta // 2:], np.where(cn > 0.0, 2.0 * cw, cw)[n_theta // 2:]
    ph = 2.0 * math.pi * np.arange(n_phi) / n_phi
    pw = 2.0 * math.pi / n_phi
    st = np.sqrt(1.0 - cn * cn)
    dirs = np.stack([np.outer(st, np.cos(ph)).ravel(),
                     np.outer(st, np.sin(ph)).ravel(),
                     np.repeat(cn, n_phi)], axis=1)  # (len(cn) n_phi, 3)
    dw = np.repeat(cw, n_phi) * pw
    for arr in (rn, rw, dirs, dw):
        arr.flags.writeable = False
    return rn, rw, dirs, dw


@functools.lru_cache(maxsize=8)
def _radial_cosines(profile, n_radial, n_theta, n_phi, dx):
    """Radial weights a_i and the cosine sums C of one geometry, per batch.

    dx is the flat tuple of the site-pair displacements.  The directions
    go in batches of about _BATCH_NODES radial nodes, and block b holds
    C[k, p] = sum_i a_i cos(r_i u_k.dx_p) for the b-th batch, so each sum
    has the shapes and bits of a loop over those batches.  The current does
    not enter: every field energy of one geometry and rule shares them,
    read-only.
    """
    rn, rw, dirs, _ = _spherical_nodes(profile, n_radial, n_theta, n_phi)
    a = rw * rn * rn * phi_eval(profile, rn) ** 2
    dx = np.array(dx).reshape(-1, 3)  # (pairs, 3)
    step = max(1, _BATCH_NODES // (max(len(dx), 1) * n_radial))
    blocks = []
    for b in range(0, len(dirs), step):
        # r_i tau, (n, pairs, n_radial)
        phase = (dirs[b:b + step] @ dx.T)[:, :, None] * rn
        blocks.append(np.cos(phase) @ a)
    for arr in [a] + blocks:
        arr.flags.writeable = False
    return a, tuple(blocks)


def rule_sizes(profile: CutoffProfile, positions, n_radial=SIZED,
               n_theta=SIZED, n_phi=SIZED) -> tuple[int, int, int]:
    """(n_radial, n_theta, n_phi) of the rule for sites at positions (P, 3).

    A size that is given must be a positive integer and is kept.  Each one
    left SIZED follows the module docstring's law in x = r_far D, D the
    largest site-pair distance; a sized n_phi is twice the rule's n_theta.
    Raises ResourceError when the rule has more than MAX_RULE_NODES nodes.
    """
    given = {"n_radial": n_radial, "n_theta": n_theta, "n_phi": n_phi}
    # before any cache lookup, where True would find the rule of 1
    sizes = {name: _integer(n, name) for name, n in given.items()
             if n is not SIZED}
    if min(sizes.values(), default=1) < 1:
        raise DomainError("field energy needs at least one node per axis")
    if len(sizes) < 3:
        scale, _, gap = _scaled_distances(positions)
        spread = scale * float(gap.max())  # a float overflows to inf quietly
        # past 1e6 the rule is far over budget; the cap keeps inf out of ceil
        x = min(profile.far_radius() * spread, 1e6)
        sizes.setdefault("n_radial", max(
            RADIAL_FLOOR, math.ceil(RADIAL_A + RADIAL_KAPPA * x)))
        sizes.setdefault("n_theta", max(
            THETA_FLOOR, 2 * math.ceil((THETA_A + THETA_KAPPA * x) / 2)))
        sizes.setdefault("n_phi", 2 * sizes["n_theta"])
    n_radial, n_theta, n_phi = (sizes[name] for name in given)
    nodes = n_radial * n_theta * n_phi
    if nodes > MAX_RULE_NODES:
        raise ResourceError(
            f"field-energy rule {n_radial} x {n_theta} x {n_phi} has {nodes} "
            f"nodes, above the budget of {MAX_RULE_NODES}")
    return n_radial, n_theta, n_phi


def field_energy(current: FourierCurrent, n_radial=SIZED, n_theta=SIZED,
                 n_phi=SIZED) -> float:
    """Energy 1/2 (2 pi)^-3 int |jhat|^2 / |xi|^2 dxi, summed over site pairs.

    The rule is rule_sizes' for the current's sites; a size given here
    overrides that axis.  Integrable at xi = 0 because jhat(xi) = O(|xi|);
    the radial Gauss rule keeps the origin off the node set.
    """
    n_radial, n_theta, n_phi = rule_sizes(current.profile, current.positions,
                                          n_radial, n_theta, n_phi)
    _, _, dirs, dw = _spherical_nodes(current.profile, n_radial, n_theta,
                                      n_phi)
    lam, mu = np.triu_indices(len(current.positions), k=1)
    dx = current.positions[mu] - current.positions[lam]  # (pairs, 3)
    a, cosines = _radial_cosines(current.profile, n_radial, n_theta, n_phi,
                                 tuple(dx.ravel()))
    a_sum = np.sum(a)
    total, b = 0.0, 0
    for C in cosines:  # one block per batch of directions
        u, w = dirs[b:b + len(C)], dw[b:b + len(C)]
        b += len(C)
        c = current.evaluator(u)
        # Re H[n, lam, mu] = Re <c_lam, c_mu>, over the (re, im) parts of c
        c = np.ascontiguousarray(c, dtype=complex)
        c = c.reshape(c.shape[:2] + (-1,)).view(float)  # (n, P, 6 d)
        H = c @ c.transpose(0, 2, 1)
        diag = a_sum * np.trace(H, axis1=1, axis2=2)
        pairs = 2.0 * np.sum(C * H[:, lam, mu], axis=1)
        total += float(w @ (diag + pairs))
    return 0.5 * (2.0 * math.pi) ** -3 * total


def higher_spin_constant(s) -> float:
    """Constant C(s) = 2 s (s+1) - 1/2 of the classical decomposition."""
    return 2.0 * s * (s + 1.0) - 0.5


def classical_decomposition_check(A: HermitianSpinOperator,
                                  system: SpinSystem, profile: CutoffProfile,
                                  states: Sequence[ProductState]) -> list:
    """Compare <A_M X, X> against the magnet-energy decomposition for each
    ProductState X of states.

    A is the A_M that assemble_am built for system and profile; lhs reads
    it through quadratic_form.

    lhs = <A_M X, X>;
    rhs = -(classical field energy at S(X))
          - C(s) A_11(0) sum_lam M[lam]^2.
    Returns one (lhs, rhs, |lhs - rhs|) per state.
    """
    lhs = [quadratic_form(A, X.vector) for X in states]
    rhs = [-field_energy(classical_current(system, profile, X.spin_vectors))
           - higher_spin_constant(system.s) * a11_origin(profile)
           * float(np.sum(system.moments ** 2)) for X in states]
    return [(a, b, abs(a - b)) for a, b in zip(lhs, rhs)]
