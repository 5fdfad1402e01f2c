"""Compile CNF into FBDD, OBDD, or decision-DNNF by recording exhaustive
DPLL search traces, then answer queries on the compiled circuits."""

from ._kernel import BACKEND as KERNEL_BACKEND
from .checks import (
    GuidedCnf,
    GuidedScriptError,
    GuidedScriptTooLarge,
    MembershipReport,
    check_decision_dnnf,
    check_fbdd,
    check_obdd,
    circuit_to_cnf,
    compile_guided,
    isomorphic,
)
from .cnf import Cnf, DimacsError, parse_dimacs
from .compiler import (
    CompileConfig,
    VarOrder,
    compile_cnf,
    compile_decomposed,
    compile_free,
    compile_ordered,
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
    "Circuit",
    "Cnf",
    "CompileConfig",
    "DimacsError",
    "EqVerdict",
    "GuidedCnf",
    "GuidedScriptError",
    "GuidedScriptTooLarge",
    "KERNEL_BACKEND",
    "LanguageError",
    "MembershipReport",
    "NnfFormatError",
    "NodeStore",
    "StoreError",
    "VarOrder",
    "check_decision_dnnf",
    "check_fbdd",
    "check_obdd",
    "circuit_to_cnf",
    "compile_cnf",
    "compile_decomposed",
    "compile_free",
    "compile_guided",
    "compile_ordered",
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
    "serialize",
    "stats",
]
