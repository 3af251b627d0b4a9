"""Exact Fourier expansions of reflective orthogonal modular forms.

Three towers of theta blocks, their arithmetic lifts, and the matching
Borcherds products, all handled as truncated exact series.
"""

from .series import FourierSeries, TruncationWindow

__all__ = ["FourierSeries", "TruncationWindow"]
__version__ = "0.1.0"
