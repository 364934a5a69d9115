"""Smooth radial cutoff pair (chi, phi) generating the dyadic decomposition.

chi is a C-infinity radial smoothstep equal to 1 on {rho <= 3/4}, supported in
{rho <= 4/3}, built from the transition bump b(t) = exp(-1/t):

    chi(rho) = 1 - b(tau) / (b(tau) + b(1 - tau)),
    tau = (rho - 3/4) / (4/3 - 3/4).

phi(rho) = chi(rho/2) - chi(rho) is then supported in {3/4 <= rho <= 8/3} and

    chi(rho) + sum_{q >= 0} phi(2^{-q} rho) = 1

for every rho, with the sum telescoping to finitely many terms.  A second
variant with b(t) = exp(-1/t^2) exists to spot-check that norms built from
different admissible cutoffs are equivalent; only the block multipliers,
``besov_norm`` and the comb kernel take a pair, and everything built on them
uses the default one.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

GAMMA = 4.0 / 3.0
CHI_FLAT_RADIUS = 0.75  # chi is identically 1 below this radius

_TRANSITION_POWERS = {"exp": 1.0, "exp-sq": 2.0}


class CutoffPair:
    """The pair (chi, phi) with gamma = 4/3, valued in [0, 1]."""

    def __init__(self, transition: str = "exp"):
        if transition not in _TRANSITION_POWERS:
            raise ValueError(
                f"unknown transition {transition!r}; "
                f"choose from {sorted(_TRANSITION_POWERS)}"
            )
        self.name = transition
        self._power = _TRANSITION_POWERS[transition]
        self.gamma = GAMMA

    def chi(self, rho):
        rho = np.abs(np.asarray(rho, dtype=float))
        tau = (rho - CHI_FLAT_RADIUS) / (GAMMA - CHI_FLAT_RADIUS)
        out = np.ones_like(rho)
        out[tau >= 1.0] = 0.0
        mid = (tau > 0.0) & (tau < 1.0)
        if np.any(mid):
            t = tau[mid]
            lo = np.exp(-1.0 / t**self._power)
            hi = np.exp(-1.0 / (1.0 - t) ** self._power)
            out[mid] = hi / (lo + hi)
        return out if out.ndim else float(out)

    def phi(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = self.chi(rho / 2.0) - self.chi(rho)
        return out if np.ndim(out) else float(out)

    def __repr__(self):
        return f"CutoffPair(transition={self.name!r})"


def build_cutoffs(transition: str = "exp") -> CutoffPair:
    """Shared cutoff pair per transition profile (cached, hence hashable).

    The default is resolved before the cache, so ``build_cutoffs()`` is
    ``build_cutoffs("exp")`` and every cache keyed on the pair holds one copy.
    """
    return _shared_pair(transition)


@lru_cache(maxsize=None)
def _shared_pair(transition: str) -> CutoffPair:
    return CutoffPair(transition)


def partition_defect(radii, cutoffs: CutoffPair | None = None) -> float:
    """Max deviation of chi(rho) + sum_q phi(2^-q rho) from 1 over ``radii``."""
    cut = cutoffs or build_cutoffs()
    rho = np.abs(np.asarray(radii, dtype=float)).ravel()
    total = cut.chi(rho)
    rho_max = float(rho.max(initial=0.0))
    if rho_max > 0:
        # telescoping: terms vanish once 2^-q rho < 3/4
        q_top = int(np.ceil(np.log2(max(rho_max, 1.0) / CHI_FLAT_RADIUS))) + 1
        for q in range(q_top + 1):
            total = total + cut.phi(rho / 2.0**q)
    return float(np.max(np.abs(1.0 - total)))


def default_test_radii() -> np.ndarray:
    """Dense radial lattice used to certify the partition of unity."""
    return np.concatenate([np.linspace(0.0, 8.0, 10000), np.geomspace(1e-3, 512.0, 10000)])
