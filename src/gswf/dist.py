"""Per-voter preference distributions over the six linear orders.

A voter's preferences over three alternatives are encoded as a triple
``(x, y, z)`` of pairwise choices.  Transitivity excludes ``(0,0,0)`` and
``(1,1,1)``, leaving six admissible triples, kept everywhere in the fixed
order below (top row, then bottom row of the defining table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bfn import per_voter_pass
from .errors import ValidationError, float_array

#: Admissible per-voter triples ``(x_i, y_i, z_i)`` in canonical order.
ADMISSIBLE_TRIPLES: tuple[tuple[int, int, int], ...] = (
    (1, 1, 0),
    (0, 1, 1),
    (1, 0, 1),
    (0, 0, 1),
    (1, 0, 0),
    (0, 1, 0),
)

TRIPLE_LABELS: tuple[str, ...] = tuple(
    "".join(str(b) for b in t) for t in ADMISSIBLE_TRIPLES
)

#: Tolerance for validating that probability vectors sum to one.
SUM_TOL = 1e-12

#: Slack within which an (alpha, beta, gamma) input is renormalized instead
#: of rejected; gamma absorbs the correction.
RENORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TripleDistribution:
    """Probabilities of the six admissible triples, in canonical order."""

    p: np.ndarray

    def __post_init__(self) -> None:
        arr = float_array("probabilities", self.p)
        if arr.shape != (6,):
            raise ValidationError(f"expected six probabilities, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"probabilities must be finite, got {arr.tolist()}")
        if np.any(arr < 0):
            bad = TRIPLE_LABELS[int(np.argmin(arr))]
            raise ValidationError(f"probability of triple {bad} is negative")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    def as_dict(self) -> dict[str, float]:
        return {f"p{label}": float(v) for label, v in zip(TRIPLE_LABELS, self.p)}


@dataclass(frozen=True)
class EvenProductDistribution:
    """The family ``D(alpha, beta, gamma)`` with ``alpha+beta+gamma = 1/2``.

    Each triple has the same probability as its bitwise complement:
    ``Pr[110] = Pr[001] = alpha``, ``Pr[011] = Pr[100] = beta``,
    ``Pr[101] = Pr[010] = gamma``.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            v = float(float_array(name, getattr(self, name)))
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
            if v < 0:
                raise ValidationError(f"{name} must be nonnegative, got {v!r}")
            object.__setattr__(self, name, v)
        total = self.alpha + self.beta + self.gamma
        if abs(total - 0.5) > RENORM_TOL:
            raise ValidationError(f"alpha+beta+gamma must equal 1/2, got {total!r}")
        # Absorb sub-RENORM_TOL decimal noise into gamma.
        adjusted = 0.5 - self.alpha - self.beta
        if adjusted < -RENORM_TOL:
            raise ValidationError("alpha + beta exceed 1/2")
        object.__setattr__(self, "gamma", max(adjusted, 0.0))

    @classmethod
    def uniform(cls) -> "EvenProductDistribution":
        """All six linear orders equally likely (``alpha=beta=gamma=1/6``)."""
        return cls(1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0)

    @property
    def deltas(self) -> tuple[float, float, float]:
        """Noise parameters ``(4a-1, 4b-1, 4c-1)``, each in ``[-1, 1]``."""
        return (4 * self.alpha - 1, 4 * self.beta - 1, 4 * self.gamma - 1)

    def to_triple_distribution(self) -> TripleDistribution:
        a, b, c = self.alpha, self.beta, self.gamma
        return TripleDistribution(np.array([a, b, c, a, b, c]))

    def as_dict(self) -> dict[str, float]:
        d = self.to_triple_distribution().as_dict()
        d.update(alpha=self.alpha, beta=self.beta, gamma=self.gamma)
        return d


def as_triple_distribution(dist) -> TripleDistribution:
    """Coerce either distribution type to the six-probability form."""
    if isinstance(dist, TripleDistribution):
        return dist
    if isinstance(dist, EvenProductDistribution):
        return dist.to_triple_distribution()
    raise ValidationError(f"not a distribution: {dist!r}")


def even_product_law(dist) -> EvenProductDistribution:
    """The even product law ``dist`` is; ValidationError if it is not one.

    A six-probability law that :func:`is_even_product` accepts becomes
    ``D(alpha, beta, gamma)`` with each parameter the mean of a triple's and
    its complement's probability, so ``--triples a,b,c,a,b,c`` gives the
    same law as ``--alpha a --beta b --gamma c``.
    """
    if isinstance(dist, EvenProductDistribution):
        return dist
    t = as_triple_distribution(dist)
    if not is_even_product(t):
        raise ValidationError("the closed form only applies to even product distributions "
                              "(each triple as likely as its complement)")
    return EvenProductDistribution(*((t.p[:3] + t.p[3:]) / 2))


def per_voter_spectrum(t: TripleDistribution) -> np.ndarray:
    """Signed-character coefficients of the per-voter mass function.

    The mass function lives on ``{0,1}^3`` with coordinates ``(x, y, z)``
    mapped to mask bits 0, 1, 2; the two inadmissible corners carry zero
    mass.  For an even product input the three singleton coefficients
    vanish and the pair coefficients are ``(4a-1)/8`` at mask ``0b011``,
    ``(4b-1)/8`` at ``0b110`` and ``(4c-1)/8`` at ``0b101``.
    """
    values = np.zeros(8, dtype=np.float64)
    for (x, y, z), p in zip(ADMISSIBLE_TRIPLES, t.p):
        values[x | (y << 1) | (z << 2)] = p
    return per_voter_pass(values, [[1.0, 1.0], [-1.0, 1.0]]) / 8.0


#: How far a triple's and its complement's probabilities may differ.
_EVEN_TOL = 1e-12


def is_even_product(t: TripleDistribution) -> bool:
    """True iff each triple is as likely as its complement, to within
    :data:`_EVEN_TOL`.

    Equivalent to all three singleton coefficients of
    :func:`per_voter_spectrum` vanishing.
    """
    return bool(np.all(np.abs(t.p[:3] - t.p[3:]) <= _EVEN_TOL))

