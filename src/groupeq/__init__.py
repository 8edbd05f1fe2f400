"""groupeq: exact solvers and singularity classification for systems of
equations over abelian and nilpotent groups."""

from .abelian import (
    AbelianGroupDescriptor,
    GroupElement,
    Summand,
    divide_exact,
    order,
    primary_component,
)
from .counterexamples import (
    GrowthReport,
    bad_support_check,
    gen_bad,
    gen_pbad,
    gen_zbad,
    pbad_growth,
    zbad_bound_check,
)
from .errors import GroupEqError
from .intmath import INFINITE, crt_pair, inv_mod
from .nilpotent import (
    HeisenbergGroup,
    TableGroup,
    WordSystem,
    brute_force_group_solve,
    commutator,
    evaluate_word,
    heisenberg_mod,
    heisenberg_q,
    nth_root_heisenberg_q,
    solve_nilpotent_bounded,
    solve_nilpotent_divisible,
)
from .solve_abelian import (
    EchelonState,
    Solution,
    brute_force_solve,
    solve_auto,
    solve_bounded,
    solve_divisible,
    solve_mod_p,
)
from .systems import (
    AbelianEquation,
    AbelianSystem,
    Const,
    EquationStream,
    EquationSystem,
    GroupEquation,
    SingularityReport,
    VarPow,
    classify_matrix,
    exponent_row,
    is_nonsingular,
    is_p_nonsingular,
    is_unimodular,
    verify_solution,
)

__version__ = "0.1.0"
