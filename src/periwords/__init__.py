"""Local periods and periodicity complexity of finite and infinite words.

The package computes positionwise local periods (with explicit repetition-word
witnesses), running complexity averages as exact rationals, return-word and
power-of-two factorizations, the minimal-return chain of a recurrent word, and
a family of parametrized words whose complexity peaks can be dialed up at
chosen positions.  A checker layer turns each structural claim about these
objects into a replayable pass/fail report, and the CLI exposes the lot.

Every name is imported from the module that defines it (``periwords.periods``,
``periwords.words``, ...); the package itself exposes only ``__version__``.
"""

# numpy imports faster from here than from deep inside the package
import numpy as np  # noqa: F401

__version__ = "0.1.0"
