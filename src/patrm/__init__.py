"""Limiting joint trace moments of patterned random matrices.

Five ensembles (Wigner, Toeplitz, Hankel, Reverse Circulant, Symmetric
Circulant), their pair-matched words and exact limit volumes, Monte Carlo
cross-validation against simulated matrices, spectral reports for sums,
and asymptotic-freeness diagnostics for Wigner against the rest.
"""

__version__ = "0.1.0"
