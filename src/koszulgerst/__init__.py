"""Exact Gerstenhaber structure on Hochschild cohomology of Koszul quiver
algebras: minimal bimodule resolution, cup products, homotopy liftings,
brackets, derivation operators and Maurer-Cartan checks.
"""

from .algfile import parse_cochain, parse_presentation, parse_value
from .bracket import (bar_circle_bracket, bar_cocycle_basis,
                      bracket_via_derivation, bracket_via_lifting,
                      maurer_cartan_check, oracle_compare, restrict_along_iota)
from .cohomology import (Cochain, CochainSpace, coboundary, cocycle_space,
                         cup_product, is_coboundary, same_class)
from .errors import (CharacteristicTwo, CochainError, DegreeUnderflow,
                     DimensionMismatch, FieldMismatch, InconsistentBasis,
                     InfiniteDimensional, KoszulGerstError, MissingParameter,
                     NoSolution, NonQuadraticRelation, NotConfluent, ParseError,
                     UnboundedComputation, UnknownPreset, UnsupportedField)
from .fields import PrimeField, QQ, Rationals, field_from_name
from .koszul import ComultTable, KoszulCobasis, build_koszul_basis
from .lifting import (HomotopyLifting, derivation_lift, lifting_residual, solve_lifting,
                      verify_lifting)
from .linalg import echelon_basis
from .presets import load_complex, load_presentation
from .quiver import Path, PathVector, QuadraticPresentation, Quiver
from .resolution import BimoduleElement, DiagonalTerm, KoszulComplex
from .rewriting import RewriteSystem, build_rewrite_system

__version__ = "0.1.0"
