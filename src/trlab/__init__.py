"""tensor-rank-lab: exact rank invariants of multilinear forms over GF(q)."""

from .checks import (CheckOutcome, RankReport, check_suite, gowers_bias_identity,
                     gowers_norm_power, multilinear_bias)
from .errors import CapExceeded, InputError, LabError, SurveyViolation
from .forms import (MultilinearForm, PolynomialFn, contract, evaluate, flatten,
                    gen_diagonal, gen_from_matrix, gen_random, gen_rank_one,
                    move_slot_first, polarize, poly_from_obj, poly_to_obj,
                    restrict, tensor_from_obj, tensor_to_obj)
from .gfq import FieldCtx, field_from_order, field_new
from .linalg import (Matrix, Subspace, batch_rank, gaussian_binomial, kernel_basis,
                     left_kernel_basis, rank, rref)
from .pencils import (KernelImageReport, MaxRankReduction, Pencil,
                      RadicalRestrictionReport, RankProfile, kernel_image_check,
                      kronecker_block, max_rank_reduction, pencil_from_obj,
                      pencil_to_obj, radical_restriction_check, rank_profile)
from .ranks import (CodimEstimate, SchmidtRank, SliceRank, SubspaceWitness,
                    ZeroSetCount, analytic_rank_charsum, analytic_rank_count,
                    codim_estimate, generic_max_rank, schmidt_rank,
                    slice_rank_exact, subspace_rank_exact, zero_set_count)
from .survey import SurveyConfig, config_from_obj, run_survey

__version__ = "0.1.0"
