"""Exact finite-field verification of the extended mid point varieties
behind five families of prime Q-Fano 3-folds: point counts, dimensions,
singular loci as rank loci, resolution fiber dichotomies, degree and genus
numerology, and divisor-class identities.

Each name is imported from the module that defines it; the package root
holds only __version__ and the OpenBLAS thread default."""

__version__ = "0.1.0"

import os

# Every float32 product runs in row blocks small enough for OpenBLAS to keep
# on the calling thread, and the int64 products do not use BLAS, so the
# thread pool that OpenBLAS starts when numpy is imported does no work; its
# threads only spin at start-up. Set before the first import of numpy; a
# value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
