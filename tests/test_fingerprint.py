"""Numerics fingerprint: the pinned digest over the float bits of a fixed run.

The digest lives in ``src`` (``experiments.numerics_digest``), where it
keys the desk-scale cache; see its docstring for the run it covers. A
change that moves any bit of these numbers changes the digest; a change
meant to keep every value (a refactor or a speed-up) must leave it as it is.

The digest was taken with numpy 2.4 and OpenBLAS 0.3.31 on an AVX-512
Xeon. Another BLAS build or CPU may sum products in another order; there,
re-take the digest on the parent commit before judging a change by it.
"""

from nisf.experiments import numerics_digest

DIGEST = "338a2d5f5d27c0c21e9b8d19b77b75d43a5c33f7fd5c313cd72602c41bfaba37"


def test_numerics_fingerprint_is_pinned():
    assert numerics_digest() == DIGEST
