"""chcslim: argument-slimming transformations for constrained Horn clauses.

The package parses constraint logic programs with linear integer
arithmetic, removes unnecessary predicate arguments by two
derivability-preserving transformations (non-linking variable removal and
constrained argument erasure), evaluates bounded least models, emits
SMT-LIB HORN scripts, and drives external solvers for comparison runs.
"""

from .bounded import (BoundedModel, EvalBudgetError, EvalError,
                      bounded_least_model, derives_unsafe)
from .cfar import (CfarReport, Erasure, Violation, cfar_transform,
                   erasure_lines, full_erasure, verify_safe_erasure)
from .constraints import (Parts, TriState, constrained_to, forall_exists_valid,
                          is_satisfiable)
from .emit import SmtEmitError, emit_clp, emit_smtlib_horn
from .nlr import NlrReport, linkvars, nlr_transform
from .parser import ParseError, parse_program
from .pipeline import (ConfigError, PipelineConfig, RunRecord,
                       invariant_failures, report, run_pipeline,
                       solve_external)
from .syntax import (QUERY, ArrayCon, Atom, Clause, Const, Constraint,
                     LinExpr, Program, ProgramError, RelCon, Var)

__version__ = "0.1.0"

__all__ = [
    "ArrayCon", "Atom", "BoundedModel", "CfarReport", "Clause", "ConfigError",
    "Const", "Constraint", "Erasure", "EvalBudgetError",
    "EvalError", "LinExpr", "NlrReport", "ParseError", "Parts", "PipelineConfig",
    "Program", "ProgramError", "QUERY", "RelCon", "RunRecord", "SmtEmitError",
    "TriState", "Var", "Violation", "bounded_least_model", "cfar_transform",
    "constrained_to", "derives_unsafe", "emit_clp",
    "emit_smtlib_horn", "erasure_lines", "forall_exists_valid",
    "full_erasure", "invariant_failures", "is_satisfiable", "linkvars",
    "nlr_transform", "parse_program", "report", "run_pipeline",
    "solve_external", "verify_safe_erasure",
]