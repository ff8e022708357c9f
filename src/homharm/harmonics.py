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

import math
from fractions import Fraction

import numpy as np

from .groups import Rotation3

# ---------------------------------------------------------------------------
# Wigner small-d matrices
# ---------------------------------------------------------------------------


def wigner_d_stack(lmax: int, betas) -> list[np.ndarray]:
    """All small-d matrices d^l(beta) for l = 0..lmax at each beta.

    Returns a list indexed by l of real arrays [n_beta, 2l+1, 2l+1].
    Interior entries follow the three-term recursion in l (upward, the
    numerically dominant direction); entries with |m| = l or |n| = l use the
    closed boundary form in half-angle sines/cosines.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    nb = betas.shape[0]
    x = np.cos(betas)
    c = np.cos(betas / 2.0)
    s = np.sin(betas / 2.0)

    out = [np.ones((nb, 1, 1))]
    if lmax == 0:
        return out

    d1 = np.zeros((nb, 3, 3))
    sc = np.sqrt(2.0) * s * c  # sin(beta)/sqrt(2)
    d1[:, 0, 0] = c * c
    d1[:, 0, 1] = sc
    d1[:, 0, 2] = s * s
    d1[:, 1, 0] = -sc
    d1[:, 1, 1] = x
    d1[:, 1, 2] = sc
    d1[:, 2, 0] = s * s
    d1[:, 2, 1] = -sc
    d1[:, 2, 2] = c * c
    out.append(d1)

    for l in range(2, lmax + 1):
        d = np.zeros((nb, 2 * l + 1, 2 * l + 1))
        # boundary rows m = -l, l (all n) and columns n = -l, l
        n_all = np.arange(-l, l + 1)
        binom = np.array([math.comb(2 * l, l - n) for n in n_all], dtype=float)
        root = np.sqrt(binom)
        cp = c[:, None] ** (l + n_all)[None, :]
        sp = s[:, None] ** (l - n_all)[None, :]
        sign = (-1.0) ** (l - n_all)
        d[:, 2 * l, :] = sign[None, :] * root[None, :] * cp * sp       # m = l
        cp2 = c[:, None] ** (l - n_all)[None, :]
        sp2 = s[:, None] ** (l + n_all)[None, :]
        root2 = np.sqrt(np.array([math.comb(2 * l, l + n) for n in n_all],
                                 dtype=float))
        d[:, 0, :] = root2[None, :] * cp2 * sp2                         # m = -l
        m_in = np.arange(-l + 1, l)
        rootc = np.sqrt(np.array([math.comb(2 * l, l - m) for m in m_in],
                                 dtype=float))
        d[:, 1:2 * l, 2 * l] = rootc[None, :] * (c[:, None] ** (l + m_in)
                                                 * s[:, None] ** (l - m_in))
        rootd = np.sqrt(np.array([math.comb(2 * l, l + m) for m in m_in],
                                 dtype=float))
        signd = (-1.0) ** (m_in + l)
        d[:, 1:2 * l, 0] = signd[None, :] * rootd[None, :] * (
            c[:, None] ** (l - m_in) * s[:, None] ** (l + m_in))

        # interior |m|, |n| <= l-1 via the recursion
        M, N = np.meshgrid(m_in, m_in, indexing="ij")
        denom = (l - 1) * np.sqrt((l * l - M * M) * (l * l - N * N))
        coefA = (2 * l - 1) * ((l - 1) * l * x[:, None, None] - M * N) / denom
        coefB = l * np.sqrt(((l - 1) ** 2 - M * M) * ((l - 1) ** 2 - N * N)) / denom
        prev = out[l - 1]
        prev2 = np.zeros_like(prev)
        prev2[:, 1:2 * l - 2, 1:2 * l - 2] = out[l - 2]
        d[:, 1:2 * l, 1:2 * l] = coefA * prev - coefB * prev2
        out.append(d)
    return out


def wigner_d(l: int, beta: float) -> np.ndarray:
    """Real orthogonal small-d matrix d^l(beta), indices m, n in -l..l."""
    if l < 0:
        raise ValueError("degree l must be >= 0")
    return wigner_d_stack(l, [beta])[l][0]


def wigner_D_matrix(l: int, g: Rotation3) -> np.ndarray:
    """D^l_{mn}(g) = exp(-i m alpha) d^l_{mn}(beta) exp(-i n gamma)."""
    if l < 0:
        raise ValueError("degree l must be >= 0")
    m = np.arange(-l, l + 1)
    d = wigner_d(l, g.beta)
    return (np.exp(-1j * m * g.alpha)[:, None] * d
            * np.exp(-1j * m * g.gamma)[None, :])


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------


def sph_harm(l: int, m: int, alpha, beta):
    """Y^l_m at azimuth alpha, colatitude beta (orthonormal, unit-area sphere).

    Y^l_m(alpha, beta) = sqrt(2l+1) exp(i m alpha) d^l_{m0}(beta); dividing by
    sqrt(4pi) recovers the usual quantum-mechanics normalization.
    """
    if abs(m) > l:
        raise ValueError("|m| must not exceed l")
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    d = wigner_d_stack(l, np.ravel(beta))[l][:, l + m, l]
    val = np.sqrt(2 * l + 1) * np.exp(1j * m * alpha) * d.reshape(beta.shape)
    return val if val.shape else complex(val)


def sph_harm_matrix(lmax: int, alphas, betas) -> np.ndarray:
    """Stacked Y^l_m values, shape [n_points, (lmax+1)^2].

    Coefficient index runs over l = 0..lmax, m = -l..l (offset l^2 + l + m).
    """
    alphas = np.asarray(alphas, dtype=float).ravel()
    betas = np.asarray(betas, dtype=float).ravel()
    stack = wigner_d_stack(lmax, betas)
    npts = alphas.shape[0]
    Y = np.empty((npts, (lmax + 1) ** 2), dtype=complex)
    for l in range(lmax + 1):
        m = np.arange(-l, l + 1)
        Y[:, l * l:(l + 1) ** 2] = (np.sqrt(2 * l + 1)
                                    * np.exp(1j * np.outer(alphas, m))
                                    * stack[l][:, :, l])
    return Y


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
    n = 2 * l + 1
    U = np.zeros((n, n), dtype=complex)
    U[l, l] = 1.0
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for mu in range(1, l + 1):
        U[l + mu, l + mu] = (-1.0) ** mu * inv_sqrt2
        U[l + mu, l - mu] = inv_sqrt2
        U[l - mu, l + mu] = -1j * (-1.0) ** mu * inv_sqrt2
        U[l - mu, l - mu] = 1j * inv_sqrt2
    return U


def wigner_D_real(l: int, g: Rotation3) -> np.ndarray:
    """Real orthogonal form of D^l(g): U D^l(g) U^H."""
    U = real_basis_change(l)
    M = U @ wigner_D_matrix(l, g) @ U.conj().T
    return M.real


def real_sph_harm_matrix(lmax: int, alphas, betas) -> np.ndarray:
    """Real orthonormal harmonics S^l_mu stacked like sph_harm_matrix."""
    Y = sph_harm_matrix(lmax, alphas, betas)
    S = np.empty_like(Y, dtype=float)
    for l in range(lmax + 1):
        U = real_basis_change(l)
        block = Y[:, l * l:(l + 1) ** 2] @ U.T
        S[:, l * l:(l + 1) ** 2] = block.real
    return S
