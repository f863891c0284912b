"""Finite discrete signal priors and their shrinkage expectations.

The marginal distribution of one signal entry is a finite list of atoms.
A sparse Bernoulli signal with sparsity kappa has mass kappa at 1 and
1 - kappa at 0; the atom at zero is the off-support mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .kernels import _check_positive, _gauss_moments

__all__ = ["Prior", "sparse_bernoulli", "prior_expect_e"]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class Prior:
    """Finite discrete marginal distribution: atoms of (value, probability).

    Atoms are stored sorted by value; values must be distinct and finite,
    probabilities in (0, 1] and summing to one within 1e-12.  E[X^2] is
    computed once here: the saddle solver reads it on every gradient.  So
    are the renormalized nonzero atoms, which every support prediction reads.
    """

    atoms: tuple[tuple[float, float], ...]
    _second_moment: float = field(init=False, repr=False, compare=False)
    _nonzero_atoms: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("prior needs at least one atom")
        atoms = tuple(sorted((float(v), float(p)) for v, p in self.atoms))
        total = 0.0
        prev = None
        for v, p in atoms:
            if not math.isfinite(v):
                raise ValueError(f"atom value must be finite, got {v!r}")
            if not (0.0 < p <= 1.0):
                raise ValueError(f"atom probability must be in (0, 1], got {p}")
            if prev is not None and v == prev:
                raise ValueError(f"duplicate atom value {v}")
            prev = v
            total += p
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1 within {_PROB_TOL}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_second_moment", sum(p * v * v for v, p in atoms))
        nz = [(v, p) for v, p in atoms if v != 0.0]
        mass = sum(p for _, p in nz)
        object.__setattr__(self, "_nonzero_atoms", tuple((v, p / mass) for v, p in nz))

    def second_moment(self) -> float:
        """E[X^2] of the marginal."""
        return self._second_moment

    def nonzero_atoms(self) -> tuple[tuple[float, float], ...]:
        """Atoms conditioned on being nonzero, probabilities renormalized.

        Computed once at construction; a prior with no nonzero atom is valid
        and raises ValueError here.
        """
        if not self._nonzero_atoms:
            raise ValueError("prior has no nonzero atoms")
        return self._nonzero_atoms


def sparse_bernoulli(kappa: float) -> Prior:
    """Prior with mass kappa at 1 and 1 - kappa at 0, for kappa in (0, 1)."""
    kappa = float(kappa)
    if not (0.0 < kappa < 1.0):
        raise ValueError(f"kappa must be in (0, 1), got {kappa}")
    return Prior(atoms=((0.0, 1.0 - kappa), (1.0, kappa)))


def prior_expect_e(p: Prior, gamma: float, tau: float, chi: float) -> float:
    """E[e(gamma*X + tau*H; chi)] with X from the prior, H standard normal.

    Expands to the probability-weighted sum of per-atom Gaussian expectations.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    _check_positive("tau", tau)
    _check_positive("chi", chi)
    return _prior_moments(p, gamma, tau, chi)[0]


def _prior_moments(
    p: Prior, gamma: float, tau: float, chi: float
) -> tuple[float, float, float, float, float]:
    """(E e, E|eta|, P(|a| <= chi), its partials in chi and tau) for a = gamma*X + tau*H.

    Arguments are unchecked: the saddle solver's root loops call this with
    tau, chi > 0 by construction.
    """
    e = abs_eta = inside = inside_chi = inside_tau = 0.0
    for v, prob in p.atoms:
        atom_e, atom_abs_eta, atom_inside, atom_chi, atom_tau = _gauss_moments(gamma * v, tau, chi)
        e += prob * atom_e
        abs_eta += prob * atom_abs_eta
        inside += prob * atom_inside
        inside_chi += prob * atom_chi
        inside_tau += prob * atom_tau
    return e, abs_eta, inside, inside_chi, inside_tau

