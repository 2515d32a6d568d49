"""Numerical laboratory for a boundary-controlled heavy chain.

Closed-loop analysis of a cart/chain/payload system under static boundary
feedback: coefficient admissibility, sampled energy (dissipativity) checks,
semi-discrete spectra and simulation, and frequency-domain resolvent
machinery built on a variation-of-constants kernel.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
