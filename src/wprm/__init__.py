"""Weighted projective spaces over finite fields and the Reed-Muller style
codes built on them: point enumeration, hypersurface zero counting, extremal
polynomial families, and exact code parameters.
"""

from .finite_field import GF, FiniteField, field_from_spec
from .weighted_space import (BudgetExceeded, DelormeStep, SingularLocusReport,
                             WeightSystem, WeightedPoint,
                             WeightedProjectiveSpace, canonicalize,
                             delorme_normalize, delorme_reduce,
                             enumerate_points, is_well_formed, orbit_size,
                             projective_count, singular_locus, space)
from .weighted_poly import (AffinePolynomial, WeightedPolynomial,
                            dehomogenize_chart0, dim_Sd, dim_plane_formula,
                            dim_plane_equal_weight_formula, format_polynomial,
                            homogenize_chart0, monomial_basis,
                            parse_polynomial, weighted_degree)
from .zero_sets import (BoundReport, FamilySpec, MaxZerosResult, PrimitivePair,
                        build_family, check_bounds, count_zeros,
                        count_zeros_affine, family_zero_count,
                        lower_bound_witness, max_zeros, max_zeros_lower_bound,
                        min_pair_lcm, torus_closed_form, torus_count)
from .plane_lines import GradedSubstitution, LineSystem, PlaneLine
from .codes import (CodeInstance, CodeParameters, TableEntry, ThresholdCheck,
                    build_code, code_parameters, comparison_table, encode,
                    evaluation_column, export_generator_matrix,
                    lambda_display, lambda_threshold_checks,
                    min_distance_exhaustive, min_distance_formula,
                    min_distance_witness, truncate3)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
