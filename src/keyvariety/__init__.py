"""Exact finite-field verification of the extended mid point varieties
behind five families of prime Q-Fano 3-folds: point counts, dimensions,
singular loci as rank loci, resolution fiber dichotomies, degree and genus
numerology, and divisor-class identities."""

__version__ = "0.1.0"

import os

# Every float32 product runs in row blocks small enough for OpenBLAS to keep
# on the calling thread, and the int64 products do not use BLAS, so the
# thread pool that OpenBLAS starts when numpy is imported does no work; its
# threads only spin at start-up. Set before the first import of numpy; a
# value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .algebra import (ParseError, OffVarietyError, PointAffineRep, Polynomial,
                      SmallPrime, matrix_rank_mod_p, parse_poly)
from .catalog import (ALL_CASES, MAIN_CASES, VarietySpec, build_case,
                      normalize_pairing, plane_containment_check,
                      plucker_ideal, spec_dump)
from .incidence import (FiberReport, fiber_over, linalg_equiv_check,
                        subspace_from_plucker)
from .invariants import (DimensionEstimate, SingularScanReport, ci_degree,
                         estimate_dimension, grassmann_degree, singular_scan)
from .numerology import (ClassLattice, case_table_check, normal_bundle_ledger,
                         run_ledger, verify_identity)
from .projspace import ScanPlan, ScanResult, proj_point_count
from .sections import SectionSpec, cut, section_report

__all__ = [name for name in dir() if not name.startswith("_")]
