"""Coordinate-conditioned neural field for 4D volume segmentation.

The package trains one shared field plus per-subject latent codes on
synthetic beating-heart phantoms, then segments unseen subjects by
fitting only a fresh latent against their intensities.

This module stays import-light on purpose: the command-line entry point
must be able to cap BLAS thread counts before numpy is first loaded, so
the numerical machinery lives in submodules (``nisf.model``,
``nisf.training``, ``nisf.inference``, ...) and is imported on demand.
"""

from .errors import (ContractError, DimensionError, FormatVersionError,
                     NisfError, NumericalError, PayloadError)

__version__ = "0.1.0"

__all__ = ["ContractError", "DimensionError", "FormatVersionError", "NisfError",
           "NumericalError", "PayloadError", "__version__"]
