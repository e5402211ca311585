"""Strongly regular graph parameter arithmetic.

Centers on the one-parameter family

    ((p+2)(p^2+4p+2), p(p+3), p-2, p),   p >= 2,

which arises as the local graph of an antipodal tight diameter-4 graph with
local eigenvalue parameters (p, p+2).  Provides exact spectra, the
eigenspace multiplicities and the fixed-point order bound mu*v/(k - theta)
used by the automorphism constraint engine.  The second eigenmatrix of the
associated 3-class scheme is kept in tests/oracles.py, where it holds the
character values of at4tools.higman to an independent route.
"""

from __future__ import annotations

from collections import namedtuple

from .exactnum import exact_sqrt


class SpectrumError(ValueError):
    """Raised when SRG parameters admit no integral (or conference) spectrum.
    ``reason`` names the failure as feasibility_basic reports it."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class SrgParams(namedtuple("SrgParams", "v k lam mu")):
    """Parameter tuple (v, k, lam, mu) of a strongly regular graph."""

    __slots__ = ()

    def identity_holds(self) -> bool:
        """The basic counting identity k(k - lam - 1) = (v - k - 1) mu."""
        return self.k * (self.k - self.lam - 1) == (self.v - self.k - 1) * self.mu


class Spectrum(namedtuple("Spectrum", "k theta_pos m_pos theta_neg m_neg conference", defaults=(False,))):
    """Eigenvalues of an SRG: k once, theta_pos and theta_neg with
    multiplicities m_pos and m_neg.

    ``conference=True`` (default False) marks the half-case where the
    non-principal eigenvalues are irrational; both multiplicities are then
    (v-1)/2 and the theta fields are None.
    """

    __slots__ = ()


def local_family_params(p: int) -> SrgParams:
    """Local-graph family member for parameter p >= 2."""
    if p < 2:
        raise ValueError(f"family requires p >= 2, got {p}")
    params = SrgParams((p + 2) * (p * p + 4 * p + 2), p * (p + 3), p - 2, p)
    assert params.identity_holds()
    return params


def srg_spectrum(params: SrgParams) -> Spectrum:
    """Exact spectrum of an SRG parameter tuple.

    Raises SpectrumError when the discriminant is negative, or is not a
    square and the parameters are not of conference type, or when a
    multiplicity fails to be a non-negative integer.
    """
    v, k, lam, mu = params
    if not params.identity_holds():
        raise SpectrumError("counting-identity", f"violated counting identity: {tuple(params)}")
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    if disc < 0:
        raise SpectrumError("negative-discriminant", f"negative discriminant {disc}: {tuple(params)}")
    root = exact_sqrt(disc)
    if root is None:
        # conference type: 2k + (v-1)(lam-mu) = 0 forces equal multiplicities
        if 2 * k + (v - 1) * (lam - mu) == 0 and (v - 1) % 2 == 0:
            half = (v - 1) // 2
            return Spectrum(k, None, half, None, half, conference=True)
        raise SpectrumError(
            "irrational-spectrum", f"irrational spectrum with unequal multiplicities: {tuple(params)}"
        )
    if root == 0:
        raise SpectrumError("repeated-eigenvalue", f"repeated non-principal eigenvalue: {tuple(params)}")
    theta_pos = (lam - mu + root) // 2
    theta_neg = (lam - mu - root) // 2
    num = 2 * k + (v - 1) * (lam - mu)
    if num % root != 0 or (v - 1 - num // root) % 2 != 0:
        raise SpectrumError("non-integral-multiplicities", f"non-integral multiplicities: {tuple(params)}")
    m_pos = (v - 1 - num // root) // 2
    m_neg = (v - 1) - m_pos
    if m_pos < 0 or m_neg < 0:
        raise SpectrumError("negative-multiplicity", f"negative multiplicity: {tuple(params)}")
    return Spectrum(k, theta_pos, m_pos, theta_neg, m_neg)


def family_multiplicities(p: int) -> tuple[int, int]:
    """Multiplicities (n1, n2) of the two non-principal eigenspaces at p."""
    s = (p + 2) ** 2 - 2
    return ((p + 3) * s // 2, (p + 1) * s // 2 - 1)


def clique_bound(p: int) -> int:
    """Upper bound (p+2)^2 on clique size in a family member."""
    if p < 2:
        raise ValueError(f"clique_bound requires p >= 2, got {p}")
    return (p + 2) ** 2


def fixed_point_order_bound(params: SrgParams) -> int:
    """Bound floor(mu*v/(k - theta_pos)) on the fixed subgraph of a non-trivial automorphism.

    Only defined for integral spectra.  For the local family this evaluates
    to (p+2)^2 - 2; for the antipodal quotient of the covering graph it
    evaluates to (p+1)(p+2)(p+4).
    """
    spec = srg_spectrum(params)
    if spec.conference:
        raise SpectrumError("irrational-spectrum", f"bound needs an integral spectrum: {tuple(params)}")
    return params.mu * params.v // (params.k - spec.theta_pos)


def feasibility_basic(params: SrgParams) -> dict:
    """Screen (v, k, lam, mu) for the basic SRG feasibility conditions: the
    report ``{"ok": ..., "reasons": [...]}`` with one machine-readable
    reason for every failure."""
    reasons = []
    v, k, lam, mu = params
    if min(v, k, lam, mu) < 0:
        reasons.append("negative-parameter")
    if v <= k:
        reasons.append("valency-not-below-order")
    if not params.identity_holds():
        reasons.append("counting-identity")
    else:
        try:
            srg_spectrum(params)
        except SpectrumError as err:
            reasons.append(err.reason)
    return {"ok": not reasons, "reasons": reasons}
