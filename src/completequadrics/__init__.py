"""Exact tools for the birational geometry of spaces of complete quadrics."""

from .quadrics import SymmetricForm, compound, restrict, random_form
from .chowform import (
    plucker,
    chow_eval,
    chow_limit,
    limit_support_coefficients,
    flag_wedge,
)
from .picard import (
    DivisorClass,
    CurveClass,
    convert,
    pair,
    cone_membership,
    canonical,
    is_fano,
    class_P,
    curves_x3,
    table_x3,
    derive_class_from_pairings,
)
from .pencils import Pencil, count_degenerations, count_tangencies, bk_number
from .chambers import classify, classify_segment, chamber_census, forced_base_loci
from .schubert import SchubertClass, sigma, pieri1, duality_pair, sigma1_power_degree
from .verify import run_all

__all__ = [
    "SymmetricForm", "compound", "restrict", "random_form",
    "plucker", "chow_eval", "chow_limit", "limit_support_coefficients", "flag_wedge",
    "DivisorClass", "CurveClass", "convert", "pair", "cone_membership",
    "canonical", "is_fano", "class_P", "curves_x3", "table_x3",
    "derive_class_from_pairings",
    "Pencil", "count_degenerations", "count_tangencies", "bk_number",
    "classify", "classify_segment", "chamber_census", "forced_base_loci",
    "SchubertClass", "sigma", "pieri1", "duality_pair", "sigma1_power_degree",
    "run_all",
]
