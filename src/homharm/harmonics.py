"""Wigner d and D matrices, spherical harmonics, Clebsch-Gordan coefficients
and the complex-to-real basis change for SO(3) irreps.

Conventions (fixed once, inherited by every other module):

* D^l_{mn}(alpha, beta, gamma) = exp(-i m alpha) d^l_{mn}(beta) exp(-i n gamma),
  row index m, column index n, both running -l..l (array index m + l).
* Spherical harmonics carry the Condon-Shortley phase and are orthonormal
  with respect to the *normalized* sphere measure (total area 1):
  Y^l_m(alpha, beta) = sqrt(2l+1) * conj(D^l_{m0}(alpha, beta, 0)).
  The conventional 4pi-normalized harmonics are ours divided by sqrt(4pi).
* Clebsch-Gordan coefficients follow the standard real-positive
  highest-weight (Condon-Shortley) convention, <l1 m1 l2 m2 | l m>.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .groups import Rotation3

# ---------------------------------------------------------------------------
# Wigner small-d matrices
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _degree_constants(l: int) -> tuple:
    """The beta-independent constants of degree l >= 1, as read-only vectors.

    root[n + l] = sqrt(C(2l, l + n)) and sign[n + l] = (-1)^(l - n) for
    n = -l..l serve the closed boundary form; m = -(l-1)..l-1 with
    R = sqrt(l^2 - m^2), Q = sqrt((l-1)^2 - m^2), u = 1/R and v = Q/R serve
    _interior_constants.
    """
    n = np.arange(-l, l + 1)
    m = n[1:-1]
    R = np.sqrt(l * l - m * m)
    Q = np.sqrt((l - 1) ** 2 - m * m)
    consts = (np.sqrt(np.array([math.comb(2 * l, l + j) for j in n], dtype=float)),
              (-1.0) ** (l - n), m, Q, R, 1.0 / R, Q / R)
    for arr in consts:
        arr.setflags(write=False)
    return consts


@functools.lru_cache(maxsize=4096)
def _interior_constants(l: int, lo: int, hi: int) -> tuple:
    """E, a u_m u_n and c v_m v_n of degree l >= 2 on the interior rows
    m = -(l-1)..l-1 and the interior columns n = lo..hi, read-only; the last
    cut to the rows and columns |.| <= l-2 of delta^{l-1} (empty when no
    column has |n| <= l-2).  E = A - C - 1 at beta = 0 for the recursion
    d^l = A d^{l-1} - C d^{l-2}, in the cancellation-free form

        (m-n)^2 / (Rm Rn) * (l(l-1) / ((l-1)^2 - mn + Qm Qn)
                             + l^2 / (l^2 - mn + Rm Rn)),

    exactly 0 at m = n; the first denominator vanishes only at
    m = n = +-(l-1).
    """
    _, _, m, Q, R, u, v = _degree_constants(l)
    j = slice(lo + l - 1, hi + l)
    n, Qn, Rn = m[j], Q[j], R[j]
    m, Qm, Rm = m[:, None], Q[:, None], R[:, None]
    mn = m * n
    den = (l - 1) ** 2 - mn + Qm * Qn
    consts = ((m - n) ** 2 * (l * (l - 1) / np.where(den > 0, den, 1.0)
                              + l * l / (l * l - mn + Rm * Rn)) / (Rm * Rn),
              (2 * l - 1) * l * np.outer(u, u[j]),
              (l / (l - 1) * np.outer(v, v[j]))[1:-1, max(lo, 2 - l) - lo:
                                                 min(hi, l - 2) - lo + 1])
    for arr in consts:
        arr.setflags(write=False)
    return consts


def _wigner_d_columns(lmax: int, betas, lo: int, hi: int):
    """Columns n = lo..hi of the small-d matrices d^l(beta), l = 0..lmax.

    Yields, for l = 0..lmax in order, a real array [n_beta, 2l+1, n_cols]
    over m = -l..l and the columns max(lo, -l)..min(hi, l), or None where
    degree l has none of them (l < min |n|).  Degree l does not depend on
    lmax.  Only the last two degrees are held, so a caller that stores each
    degree as it comes holds nothing else of size O(lmax^2).

    Entries with |m| = l or |n| = l use the closed boundary form in
    half-angle sines/cosines.  Interior entries follow the three-term
    recursion in l (upward, the numerically dominant direction), written for
    the difference delta^l = d^l - d^{l-1}:

        delta^l_{mn} = (E_{mn} - t a u_m u_n) d^{l-1}_{mn}
                       + c v_m v_n delta^{l-1}_{mn}

    with t = 1 - cos(beta), a = (2l-1) l, c = l/(l-1) and the constants of
    _interior_constants.  The plain recursion loses O(l^2) ulps near the
    poles, where its two characteristic roots meet at 1; this form does not.
    The interior columns of degree l are the columns of degree l-1, so each
    step carries d^{l-1} whole and adds the boundary columns n = +-l that
    lie in lo..hi.  Betas above pi/2 are computed at pi - beta and
    reflected with d^l_{mn}(pi - beta) = (-1)^(l+n) d^l_{-m,n}(beta), so t
    stays small; each degree is reflected as it is yielded, on a copy, as
    the recursion reads the unreflected one.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    flip = betas > np.pi / 2
    betas = np.where(flip, np.pi - betas, betas)
    c, s = np.cos(betas / 2.0), np.sin(betas / 2.0)
    e = np.arange(2 * lmax + 1)
    cp, sp = c[:, None] ** e, s[:, None] ** e
    t = (2.0 * s * s)[:, None, None]                      # 1 - cos(beta)
    first = max(1, lo, -hi)                       # the first degree from 1 on
    if lo <= 0 <= hi:
        prev = np.ones((len(betas), 1, 1))
        yield prev
    else:
        yield from [None] * min(first, lmax + 1)
    delta = -t                                    # d^1_00 - d^0_00
    for l in range(first, lmax + 1):
        a, b = max(lo, -l), min(hi, l)            # the columns of degree l
        root, sign = _degree_constants(l)[:2]
        h = root * cp[:, :2 * l + 1] * sp[:, 2 * l::-1]  # d^l_{ln} = sign_n h_n
        cols = slice(a + l, b + l + 1)
        d = np.empty((len(betas), 2 * l + 1, b - a + 1))
        d[:, -1] = sign[cols] * h[:, cols]                        # m = l
        d[:, 0] = h[:, ::-1][:, cols]                             # m = -l
        if b == l:
            d[:, 1:-1, -1] = h[:, 1:-1]                           # n = l
        if a == -l:
            d[:, 1:-1, 0] = sign[1:-1] * h[:, -2:0:-1]            # n = -l
        f, g = max(a, 1 - l), min(b, l - 1)       # interior: the columns of d^{l-1}
        if f <= g and l == 1:
            d[:, 1, -a] = np.cos(betas)                           # d^1_00
        elif f <= g:
            E, aUU, cVV = _interior_constants(l, f, g)
            step = (E - t * aUU) * prev
            if cVV.size:
                i = max(f, 2 - l) - f
                step[:, 1:-1, i:i + cVV.shape[1]] += cVV * delta
            d[:, 1:-1, f - a:g - a + 1] = prev + step
            delta = step
        prev = d
        if flip.any():
            d = d.copy()
            d[flip] = d[flip][:, ::-1] * sign[cols]
        yield d


def wigner_d_stack(lmax: int, betas) -> list[np.ndarray]:
    """All small-d matrices d^l(beta) for l = 0..lmax at each beta: a list
    indexed by l of real arrays [n_beta, 2l+1, 2l+1], the columns
    -lmax..lmax of _wigner_d_columns.
    """
    return list(_wigner_d_columns(lmax, betas, -lmax, lmax))


def wigner_D_matrix(l: int, g: Rotation3) -> np.ndarray:
    """D^l_{mn}(g) = exp(-i m alpha) d^l_{mn}(beta) exp(-i n gamma)."""
    return _wigner_D_blocks(l, [g])[l][0]


def _wigner_D_blocks(lmax: int, rotations) -> list:
    """[D^l(g_r) for l = 0..lmax], each [R, 2l+1, 2l+1]: the conjugate of
    _rotate on identity blocks; the bits depend neither on R nor on lmax."""
    if lmax < 0:
        raise ValueError("degree l must be >= 0")
    eye = [np.eye(2 * l + 1)[None] for l in range(lmax + 1)]
    return [np.conj(b[:, 0]) for b in _rotate(rotations, eye)]


# (Delta^l = d^l(pi/2), Z^l) of every degree used so far, read-only and never
# evicted: (2l+1)^2 + (2l+2)(2l+1) floats each, 0.09 MiB up to l = 15
_deltas: list = []
_I_POWERS = np.array([1, 1j, -1, -1j])                   # i^n at n mod 4


def _delta(lmax: int) -> list:
    """[(Delta^l, Z^l) for l = 0..lmax], the degrees not yet held from one
    recursion at pi/2, with the zonal fold Z^l = _fold(Delta^l, 0)."""
    if len(_deltas) <= lmax:
        for D in wigner_d_stack(lmax, [np.pi / 2])[len(_deltas):]:
            D, Z = D[0], _fold(D[0], 0)
            D.flags.writeable = Z.flags.writeable = False
            _deltas.append((D, Z))
    return _deltas[:lmax + 1]


def _fold(D: np.ndarray, n: int) -> np.ndarray:
    """Column n of d^l(beta) as a trigonometric polynomial from
    Delta^l = D = d^l(pi/2): [2l+2, 2l+1], so that d^l_{mn}(beta) =
    (_fold_basis(beta, l) @ _fold(D, n))[m + l].  It folds q and -q of

        d^l_{mn}(beta) = sum_q Delta_{qm} Delta_{qn} cos((m - n) pi/2 - q beta)

    (Trapani & Navaza 2006) into rows 2q, 2q+1, the cos(q beta) and
    sin(q beta) coefficients."""
    l = len(D) // 2
    P, k = D * D[:, l + n:l + n + 1], (np.arange(-l, l + 1) - n) % 4    # P: [q, m]
    phi = np.array([[1.0, 0, -1, 0], [0, 1, 0, -1]])[:, k]   # cos, sin((m-n) pi/2)
    Z = P[l:, None] * phi                                     # [q, cos/sin, m]
    Z[1:] += P[:l][::-1, None] * phi * [[1.0], [-1.0]]
    return Z.reshape(2 * l + 2, -1)


def _fold_basis(betas, lmax: int) -> np.ndarray:
    """[..., 2lmax+2]: cos(q beta), sin(q beta) interleaved for q = 0..lmax,
    the rows of _fold; its first 2l+2 entries serve degree l."""
    qb = np.multiply.outer(betas, np.arange(lmax + 1))
    return np.stack([np.cos(qb), np.sin(qb)], axis=-1).reshape(
        qb.shape[:-1] + (2 * lmax + 2,))


def _delta_cache_info() -> dict:
    """Degrees held by the Delta^l and Z^l cache and their bytes."""
    return {"degrees": list(range(len(_deltas))),
            "bytes": sum(D.nbytes + Z.nbytes for D, Z in _deltas)}


def _rotate(rotations, coeffs: list) -> list:
    """conj(D^l(g_r)) a for each degree's a [C, 2l+1, K] (or None), as
    [R, C, 2l+1, K], never forming D^l: two products with the real Delta^l
    between diagonal phases,

    conj(D^l(g)) a = e^{im alpha} i^{-m} Delta^T e^{iq beta} Delta i^n e^{in gamma} a

    (Risbo 1996; Pinchon & Hoggan 2007).  Each product is an einsum over
    columns (r, c, k, re/im), not BLAS: every entry sums its rows in order,
    so its bits depend neither on R nor on the other degrees."""
    lmax = len(coeffs) - 1
    m = np.arange(-lmax, lmax + 1)[:, None]
    ea, eb, eg = np.exp(1j * m * np.array([[g.alpha, g.beta, g.gamma]
                                           for g in rotations]).T[:, None])
    ea, eb, eg = (e[:, :, None, None] for e in    # [2lmax+1, R, 1, 1]
                  (ea * _I_POWERS[-m % 4], eb, eg * _I_POWERS[m % 4]))
    out = []
    for l, (a, (D, _)) in enumerate(zip(coeffs, _delta(lmax))):
        j = slice(lmax - l, lmax + l + 1)
        if a is not None:                               # x: [2l+1, R, C, K]
            x = eg[j] * a.transpose(1, 0, 2)[:, None]
            x = eb[j] * np.einsum("qn,n...->q...", D, x.view(float)).view(complex)
            x = ea[j] * np.einsum("qm,q...->m...", D, x.view(float)).view(complex)
            a = x.transpose(1, 2, 0, 3)
        out.append(a)
    return out


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------


def sph_harm_matrix(lmax: int, alphas, betas) -> np.ndarray:
    """Stacked Y^l_m values, shape [n_points, (lmax+1)^2].

    Coefficient index runs over l = 0..lmax, m = -l..l (offset l^2 + l + m).
    The d^l_{m0} come from the zonal folds Z^l of _zonal.
    """
    alphas = np.asarray(alphas, dtype=float).ravel()
    phase = np.exp(1j * np.outer(alphas, np.arange(-lmax, lmax + 1)))
    return np.concatenate(
        [np.sqrt(2 * l + 1) * phase[:, lmax - l:lmax + l + 1] * d
         for l, d in enumerate(_zonal(lmax, betas))], axis=1)


def _zonal(lmax: int, betas) -> list:
    """d^l_{m0}(beta) for l = 0..lmax, [n_beta, 2l+1] per degree: _fold_basis
    times Z^l, an einsum so that no beta's bits depend on the batch."""
    f = _fold_basis(np.ravel(betas).astype(float), lmax)
    return [np.einsum("rq,qn->rn", f[:, :2 * l + 2], Z)
            for l, (_, Z) in enumerate(_delta(lmax))]


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients
# ---------------------------------------------------------------------------


def clebsch_gordan(l1: int, m1: int, l2: int, m2: int, l: int, m: int) -> float:
    """Clebsch-Gordan coefficient <l1 m1 l2 m2 | l m> via the Racah formula.

    The prefactor and the alternating sum are exact rationals; the value is
    squared exactly and takes one float square root.
    """
    if min(l1, l2, l) < 0:
        raise ValueError("degrees must be nonnegative")
    if abs(m1) > l1 or abs(m2) > l2 or abs(m) > l:
        raise ValueError("|m| must not exceed the degree")
    if m != m1 + m2 or not (abs(l1 - l2) <= l <= l1 + l2):
        return 0.0
    f = math.factorial
    pref = Fraction(
        (2 * l + 1) * f(l1 + l2 - l) * f(l1 - l2 + l) * f(-l1 + l2 + l),
        f(l1 + l2 + l + 1),
    ) * Fraction(
        f(l + m) * f(l - m) * f(l1 - m1) * f(l1 + m1) * f(l2 - m2) * f(l2 + m2)
    )
    kmin = max(0, l2 - l - m1, l1 - l + m2)
    kmax = min(l1 + l2 - l, l1 - m1, l2 + m2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        denom = (f(k) * f(l1 + l2 - l - k) * f(l1 - m1 - k) * f(l2 + m2 - k)
                 * f(l - l2 + m1 + k) * f(l - l1 - m2 + k))
        total += Fraction((-1) ** k, denom)
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    # value = total * sqrt(pref); square exactly, take one float sqrt
    sq = pref * total * total
    return sign * math.sqrt(sq.numerator / sq.denominator)


def cg_matrix(t: int, l_in: int, l_out: int) -> np.ndarray:
    """Coupling tensor C[i, mu, j] = <l_out i | t mu, l_in j>.

    Shape [2*l_out+1, 2t+1, 2*l_in+1]; nonzero only for i = mu + j.
    """
    C = np.zeros((2 * l_out + 1, 2 * t + 1, 2 * l_in + 1))
    for mu in range(-t, t + 1):
        for j in range(-l_in, l_in + 1):
            i = mu + j
            if abs(i) <= l_out:
                C[i + l_out, mu + t, j + l_in] = clebsch_gordan(
                    t, mu, l_in, j, l_out, i)
    return C


# ---------------------------------------------------------------------------
# Real basis change
# ---------------------------------------------------------------------------


def real_basis_change(l: int) -> np.ndarray:
    """Unitary U with S^l = U Y^l real: conjugating D^l by U gives a real
    orthogonal representation.

    Rows follow the standard real-harmonic ordering mu = -l..l (sine terms
    for mu < 0, the zonal term at mu = 0, cosine terms for mu > 0).
    """
    if l < 0:
        raise ValueError("degree l must be >= 0")
    mu, r = np.arange(1, l + 1), 1.0 / np.sqrt(2.0)
    U = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
    U[l, l] = 1.0
    U[l + mu, l + mu], U[l + mu, l - mu] = (-1.0) ** mu * r, r
    U[l - mu, l + mu], U[l - mu, l - mu] = -1j * (-1.0) ** mu * r, 1j * r
    return U


def _wigner_D_real_blocks(lmax: int, rotations) -> list:
    """[U D^l(g_r) U^H for l = 0..lmax], real [R, 2l+1, 2l+1] per degree,
    from one _wigner_D_blocks call over the R rotations."""
    Us = [real_basis_change(l) for l in range(lmax + 1)]
    return [(U @ D @ U.conj().T).real
            for U, D in zip(Us, _wigner_D_blocks(lmax, rotations))]


def wigner_D_real(l: int, g: Rotation3) -> np.ndarray:
    """Real orthogonal form of D^l(g): U D^l(g) U^H."""
    return _wigner_D_real_blocks(l, [g])[l][0]


def real_sph_harm_matrix(lmax: int, alphas, betas) -> np.ndarray:
    """Real orthonormal harmonics S^l_mu = (U Y^l)_mu stacked like
    sph_harm_matrix, in real arithmetic: sqrt(2l+1) d^l_00(beta) at mu = 0,
    and sqrt(2(2l+1)) (-1)^mu d^l_{|mu|0}(beta) times cos(mu alpha) for
    mu > 0 or sin(|mu| alpha) for mu < 0."""
    alphas = np.asarray(alphas, dtype=float).ravel()
    ma = np.multiply.outer(alphas, np.arange(1, lmax + 1))
    cos, sin = np.cos(ma), np.sin(ma)
    blocks = []                                           # mu = -l..l
    for l, d in enumerate(_zonal(lmax, betas)):
        w = np.sqrt(2 * (2 * l + 1)) * (-1.0) ** np.arange(1, l + 1) * d[:, l + 1:]
        blocks += [(w * sin[:, :l])[:, ::-1], np.sqrt(2 * l + 1) * d[:, l:l + 1],
                   w * cos[:, :l]]
    return np.concatenate(blocks, axis=1)
