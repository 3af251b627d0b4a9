"""Exact Fourier expansions of reflective orthogonal modular forms.

Three towers of theta blocks, their arithmetic lifts, and the matching
Borcherds products, all handled as truncated exact series.  Importing
the package runs ``series`` alone; each other module is registered here
and runs on its first use (``series._lazy``).
"""

from .series import FourierSeries, TruncationWindow, _lazy

for _name in ("lattices", "jacobi", "lifting", "borcherds", "verification"):
    _lazy(__name__ + "." + _name)
del _name

__all__ = ["FourierSeries", "TruncationWindow"]
__version__ = "0.1.0"
