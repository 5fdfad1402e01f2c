"""Compile CNF into FBDD, OBDD, or decision-DNNF by recording exhaustive
DPLL search traces, then answer queries on the compiled circuits."""

from ._kernel import BACKEND as KERNEL_BACKEND
from .checks import (
    GuidedCnf,
    GuidedScriptError,
    MembershipReport,
    check_decision_dnnf,
    check_fbdd,
    check_obdd,
    circuit_to_cnf,
    compile_guided,
    isomorphic,
)
from .cnf import Cnf, DimacsError, brute_force_count, parse_dimacs
from .compiler import (
    Cache,
    CompileConfig,
    VarOrder,
    compile_cnf,
    compile_decomposed,
    compile_free,
    compile_ordered,
    compute_key,
    select_variable,
)
from .queries import (
    EqVerdict,
    LanguageError,
    condition_circuit,
    entails_clause,
    enumerate_models,
    is_consistent,
    is_implicant,
    is_valid,
    model_count,
    prob_equiv,
)
from .store import Circuit, NnfFormatError, NodeStore, StoreError, parse_nnf, serialize, stats

__version__ = "0.1.0"

__all__ = [
    "Cache",
    "Circuit",
    "Cnf",
    "CompileConfig",
    "DimacsError",
    "EqVerdict",
    "GuidedCnf",
    "GuidedScriptError",
    "KERNEL_BACKEND",
    "LanguageError",
    "MembershipReport",
    "NnfFormatError",
    "NodeStore",
    "StoreError",
    "VarOrder",
    "brute_force_count",
    "check_decision_dnnf",
    "check_fbdd",
    "check_obdd",
    "circuit_to_cnf",
    "compile_cnf",
    "compile_decomposed",
    "compile_free",
    "compile_guided",
    "compile_ordered",
    "compute_key",
    "condition_circuit",
    "entails_clause",
    "enumerate_models",
    "is_consistent",
    "is_implicant",
    "is_valid",
    "isomorphic",
    "model_count",
    "parse_dimacs",
    "parse_nnf",
    "prob_equiv",
    "select_variable",
    "serialize",
    "stats",
]
