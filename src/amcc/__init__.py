"""Exact contextuality toolkit.

Empirical models carry exact rational weights; the contextual fraction
comes from an exact single-phase simplex, certified by its dual prices and
a verified decomposition; possibilistic strong contextuality, parity-vector
scans, affine support solving, and the bundled reference reconstruction
round out the pipeline. All headline quantities can be recomputed with the
`verify-paper` CLI subcommand.
"""

from .affine import (
    AffineFamily,
    Classification,
    classify,
    family_member_params,
    ns_dimension,
    ns_dimension_closed_form,
    parameter_bounds,
    solve_support,
)
from .csp import (
    AugmentationPlan,
    apply_plan,
    reconstruct_tables,
    reference_plan,
    search_plans,
)
from .errors import PreconditionError, ResourceLimitError, VerificationError
from .lp import CfResult, contextual_fraction, simplex_solve
from .model import (
    EmpiricalModel,
    corpus,
    corpus_names,
    deterministic_model,
    ghz_322,
    is_maximal_marginals,
    is_no_signaling,
    marginalize,
    mix_models,
    model_from_json,
    model_to_json,
    parity_amcc_422,
    pr_box,
    uniform_model,
)
from .parity import (
    ParitySystem,
    build_symmetric_model,
    parity_satisfiable,
    parity_scan,
    parity_system_from_vector,
)
from .possibilistic import (
    SupportModel,
    formula_of,
    strong_contextuality,
    support_from_json,
    support_of,
    support_to_json,
)
from .rational import BACKEND, rat, rat_from_str, rat_str
from .scenario import MeasurementScenario, bell_scenario
from .verify import covering_ncf, chsh_cf, random_no_signaling_model, run_checks

__version__ = "0.1.0"
