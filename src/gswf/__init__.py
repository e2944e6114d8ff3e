"""Spectral analysis of three-alternative voting rules.

Computes the probability of a cyclic (irrational) societal outcome for
triples of Boolean choice functions, both by a closed form over
Fourier-Walsh spectra and by exhaustive profile enumeration, and ships an
executable battery of bound verifications plus extremal search tools.
"""

from .bfn import (
    BooleanFunction,
    PseudoSpectrum,
    WalshSpectrum,
    dual,
    evaluate,
    expectation,
    inverse_walsh_transform,
    is_balanced,
    is_cyclic_invariant,
    is_invariant_under,
    is_monotone,
    is_self_dual,
    level_weights,
    walsh_transform,
    walsh_transform_naive,
)
from .catalog import FamilySpec, binary_entropy, eta, make, parse_function_spec, preset_gswf
from .dist import (
    EvenProductDistribution,
    TripleDistribution,
    is_even_product,
    per_voter_spectrum,
)
from .errors import CapacityError, GswfError, HypothesisViolation, ValidationError
from .rationality import (
    Gswf,
    WResult,
    biased_inner_product,
    noise_operator_convolution,
    noise_operator_spectral,
    w_formula,
    w_from_spectra,
    w_monte_carlo,
    w_oracle,
    w_prime,
)
from .search import ClassFilter, ExtremalResult, extremal_w, random_search
from .theorems import BoundReport, run_all, suite_passed, w_prime_first_level_bound

__version__ = "0.1.0"

__all__ = [
    "BooleanFunction",
    "BoundReport",
    "CapacityError",
    "ClassFilter",
    "EvenProductDistribution",
    "ExtremalResult",
    "FamilySpec",
    "Gswf",
    "GswfError",
    "HypothesisViolation",
    "PseudoSpectrum",
    "TripleDistribution",
    "ValidationError",
    "WResult",
    "WalshSpectrum",
    "biased_inner_product",
    "binary_entropy",
    "dual",
    "eta",
    "evaluate",
    "expectation",
    "extremal_w",
    "inverse_walsh_transform",
    "is_balanced",
    "is_cyclic_invariant",
    "is_even_product",
    "is_invariant_under",
    "is_monotone",
    "is_self_dual",
    "level_weights",
    "make",
    "noise_operator_convolution",
    "noise_operator_spectral",
    "parse_function_spec",
    "per_voter_spectrum",
    "preset_gswf",
    "random_search",
    "run_all",
    "suite_passed",
    "w_formula",
    "w_from_spectra",
    "w_monte_carlo",
    "w_oracle",
    "w_prime",
    "w_prime_first_level_bound",
    "walsh_transform",
    "walsh_transform_naive",
]
