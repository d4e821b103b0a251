"""The public surface of `sideinfo`, pinned: a change to it has to edit this file on purpose."""

import dataclasses
import inspect
import types

import sideinfo as si

PUBLIC_NAMES = [
    "ActionMatrixLoss", "AlphabetTooLarge", "BayesResult", "BenefitReport", "ConvexOracle",
    "ConvexityViolation", "DIReport", "DiRateResult", "Dist", "DpaAuditReport", "EmptySample",
    "ExplicitProcess", "HorizonTooLarge", "Joint", "MarkovJointProcess", "ModelFile", "NegativeMass",
    "NotNormalized", "NotProper", "NotStationary", "ParameterOutOfRange", "ProprietyReport", "SchemaError",
    "ScoringRuleLoss", "SideinfoError", "SufficiencyCert", "SufficientSet", "Transform", "UnboundedBelow",
    "UnknownLoss", "UnknownSymbol", "ValidationError", "VarModel", "ViolationWitness",
    "WitnessVerificationFailed", "ZeroConditioningEvent", "audit_dpa", "audit_propriety", "bayes_risk",
    "benefit", "benefit_from_G", "builtin_loss", "causally_cond_entropy", "check_convex_oracle",
    "check_sufficient", "condition_on_y", "conditional_benefit", "conditional_mutual_information",
    "conservation_check", "di_rate", "directed_info", "empirical_joint", "entropy", "enumerate_sufficient",
    "find_violation", "g_normalized", "geweke_F", "granger_noncausal", "jensen_gap", "marginals",
    "mutual_information", "neg_entropy_oracle", "parse_model", "point_mass", "proof_family", "push_forward",
    "read_sample_csv", "reverse_delayed_di", "savage_from_G", "serialize_model", "sum_squares_oracle",
    "transfer_entropy", "v_envelope", "validate_dist", "validate_joint", "verify_witness", "write_model",
]

# Every option with a default: keyword parameters of the exported functions and of the
# public methods of exported classes, and defaulted dataclass fields (exceptions aside).
OPTIONS = {
    "ActionMatrixLoss": ["name"],
    "BayesResult": ["grid_gap"],
    "ConvexOracle": ["symmetric"],
    "Dist": ["correction"],
    "ScoringRuleLoss": ["proper", "name", "vector_fn"],
    "audit_dpa": ["tol", "seed"],
    "audit_propriety": ["trials", "seed", "n"],
    "bayes_risk": ["seed"],
    "check_convex_oracle": ["pairs", "seed"],
    "di_rate": ["direction", "max_n", "tol"],
    "enumerate_sufficient": ["seed"],
    "find_violation": ["budget", "seed", "tol"],
    "geweke_F": ["direction"],
    "proof_family": ["tail"],
    "savage_from_G": ["n"],
    "transfer_entropy": ["direction"],
    "verify_witness": ["tol"],
}


def _defaulted(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]


def _options(name: str, obj) -> dict[str, list[str]]:
    if not inspect.isclass(obj):
        return {name: _defaulted(obj)}
    if issubclass(obj, BaseException):
        return {}
    out = {}
    if dataclasses.is_dataclass(obj):
        out[name] = [f.name for f in dataclasses.fields(obj) if f.default is not dataclasses.MISSING]
    for attr, member in vars(obj).items():
        if not attr.startswith("_") and isinstance(member, (types.FunctionType, staticmethod, classmethod)):
            out[f"{name}.{attr}"] = _defaulted(getattr(obj, attr))
    return out


def test_public_surface_pinned():
    names = sorted(k for k, v in vars(si).items() if not k.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES and len(names) == 77
    options = {}
    for name in names:
        options.update(_options(name, getattr(si, name)))
    assert {k: v for k, v in options.items() if v} == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 27
