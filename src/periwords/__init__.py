"""Local periods and periodicity complexity of finite and infinite words.

The package computes positionwise local periods (with explicit repetition-word
witnesses), running complexity averages as exact rationals, return-word and
power-of-two factorizations, the minimal-return chain of a recurrent word, and
a family of parametrized words whose complexity peaks can be dialed up at
chosen positions.  A checker layer turns each structural claim about these
objects into a replayable pass/fail report, and the CLI exposes the lot.
"""

# numpy imports faster from here than from deep inside the package
import numpy as np  # noqa: F401

from .errors import DescriptorError, InsufficientWindowError
from .factorize import (
    AlphaChain,
    AlphaChainEntry,
    DyadicFactorization,
    ReturnFactorization,
    alpha_chain,
    b_floor,
    dyadic_factorization,
    h_floor,
    max_exponent,
    occurrences,
    repetition_exponent_estimate,
    return_factorization,
    return_words,
)
from .periods import (
    CapExceeded,
    PeriodProfile,
    RepetitionWitness,
    critical_positions,
    h_of,
    is_lyndon,
    is_primitive,
    is_unbordered,
    least_conjugate,
    local_period,
    local_period_infinite,
    local_period_oracle,
    local_period_sum,
    period,
    profile,
    shortest_border,
)
from .words import (
    BINARY,
    Alphabet,
    HolubParams,
    WordSource,
    anchor_length,
    anchor_word,
    fibonacci_source,
    holub_for_target,
    holub_letter,
    holub_letters,
    holub_toeplitz,
    holub_u,
    holub_word,
    lex_compare,
    morphic_source,
    parse_descriptor,
    predicted_peak_period,
    predicted_witness,
    thue_morse_source,
    toeplitz_fill,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphaChain",
    "AlphaChainEntry",
    "BINARY",
    "CapExceeded",
    "DescriptorError",
    "DyadicFactorization",
    "HolubParams",
    "InsufficientWindowError",
    "PeriodProfile",
    "RepetitionWitness",
    "ReturnFactorization",
    "WordSource",
    "alpha_chain",
    "anchor_length",
    "anchor_word",
    "b_floor",
    "critical_positions",
    "dyadic_factorization",
    "fibonacci_source",
    "h_floor",
    "h_of",
    "holub_for_target",
    "holub_letter",
    "holub_letters",
    "holub_toeplitz",
    "holub_u",
    "holub_word",
    "is_lyndon",
    "is_primitive",
    "is_unbordered",
    "least_conjugate",
    "lex_compare",
    "local_period",
    "local_period_infinite",
    "local_period_oracle",
    "local_period_sum",
    "max_exponent",
    "morphic_source",
    "occurrences",
    "parse_descriptor",
    "period",
    "predicted_peak_period",
    "predicted_witness",
    "profile",
    "repetition_exponent_estimate",
    "return_factorization",
    "return_words",
    "shortest_border",
    "thue_morse_source",
    "toeplitz_fill",
]
