"""One input-error class: every rejected input is a ValidationError.

The parametrized test drives every raise site a caller's input reaches in
the layer modules, plus the rejections no other test runs, and checks the
class and the whole message.  The guard below reads the package source
with `ast`, so a raise of a new ad-hoc class fails here instead of slipping
past `except ValidationError`.  A second guard fails on any BLAS-backed
numpy call in the package: OpenBLAS picks its kernel by CPU, so such a
call's last bits differ from host to host.
"""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from probemax import (
    DiscreteFinite,
    Exponential,
    Instance,
    ThresholdPolicy,
    Uniform,
    ValidationError,
    adaptive_optimum_dp,
    expected_max_exact_discrete,
    gen_instance,
    minimize_hmax,
    point_mass,
    rho,
    select_gap2_set,
    simulate,
    solve_continuous,
    static_optimum_enum,
)
from probemax import errors
from probemax.distributions import Distribution
from probemax.errors import InstanceTooLarge
from probemax.gap_continuous import compute_psi_star
from probemax.minmax import h_derivative_continuous

SRC = Path(errors.__file__).resolve().parent

#: The classes a package module may raise, and errors.py's classes by base.
RAISABLE = {"ValidationError", "InstanceTooLarge", "GuaranteeViolation"}
HIERARCHY = {
    "ProbemaxError": "Exception",
    "ValidationError": "ProbemaxError",
    "InstanceTooLarge": "ValidationError",
    "GuaranteeViolation": "ProbemaxError",
}

TWO_UNIFORM = Instance([Uniform(0, 1), Uniform(0, 1)], 2)
COIN = DiscreteFinite([(0, 0.5), (1, 0.5)])
#: Values a few ulps below the largest float, in two orders: both variables'
#: means are finite, the E[max] of the pair is not.
HUGE_VALUES = (1.7976931348623153e308, 1.7976931348623155e308, 1.7976931348623147e308,
               1.7976931348623155e308, 1.7976931348623157e308)
HUGE_PROBS = (0.038461538461538464, 0.38461538461538464, 0.07692307692307693,
              0.15384615384615385, 0.34615384615384615)
HUGE_PAIR = [DiscreteFinite(zip(v, HUGE_PROBS)) for v in (HUGE_VALUES, HUGE_VALUES[::-1])]



class Constant(Distribution):
    """A point mass at 1 of none of the three families, every oracle defined."""

    def mean(self):
        return 1.0

    def survival(self, r):
        return 1.0 if r <= 1.0 else 0.0

    def tail_moment_one(self, r):
        return self.survival(r)

    def g_value(self, r):
        return max(1.0 - r, 0.0)

    def draw(self, u):
        return u * 0.0 + 1.0


class NarrowUniform(Uniform):
    """A subclass the packed oracles would read with Uniform's formulas."""


#: site -> (call that rejects its input, class, whole message).
SITES = {
    "distributions.cond_exp_ge: empty tail": (
        lambda: point_mass(1.0).cond_exp_ge(2.0),
        ValidationError, "P(X >= 2.0) = 0, conditional expectation undefined"),
    "gap2.check_epsilon": (
        lambda: select_gap2_set(TWO_UNIFORM, 2.0),
        ValidationError, "epsilon=2.0 must lie strictly inside (0, 1)"),
    "gap_continuous._require_continuous": (
        lambda: solve_continuous(Instance([Uniform(0, 1), point_mass(1.0)], 1)),
        ValidationError, "variable 1 has a discontinuous CDF"),
    "gap_continuous.compute_psi_star: far from a minimizer": (
        lambda: compute_psi_star(TWO_UNIFORM, 0.9),
        ValidationError,
        "survival sums 0.19999999999999996 and 0.19999999999999996 do not straddle 1 "
        "within 0.0001; r_star=0.9 is too far from a minimizer"),
    "minmax.Instance: non-integer k": (
        lambda: Instance([Uniform(0, 1)], 1.0),
        ValidationError, "budget k=1.0 must be an integer"),
    "minmax.Instance.subset: non-integer index": (
        lambda: TWO_UNIFORM.subset([0.5]),
        ValidationError, "index 0.5 is not an integer"),
    "minmax.Instance.subset: index out of range": (
        lambda: rho(TWO_UNIFORM, [5]),
        ValidationError, "index 5 outside [0, 2)"),
    "minmax.Instance.subset: duplicate index": (
        lambda: rho(TWO_UNIFORM, [1, 1]),
        ValidationError, "duplicate indices in subset (1, 1)"),
    "minmax.minimize_hmax: bad tolerance": (
        lambda: minimize_hmax(TWO_UNIFORM, 0.0),
        ValidationError, "xi_target=0.0 must be a positive real"),
    "minmax.rho: empty subset": (
        lambda: rho(TWO_UNIFORM, []),
        ValidationError, "empty subset has no root threshold"),
    "minmax.rho: zero mean": (
        lambda: rho(Instance([point_mass(0.0), point_mass(1.0)], 1), [0]),
        ValidationError, "subset with zero total mean has root 0 and no guarantee"),
    "minmax.h_derivative_continuous: discontinuous member": (
        lambda: h_derivative_continuous(Instance([point_mass(1.0)], 1), 0.5, [0]),
        ValidationError, "variable 0 has a discontinuous CDF; derivative undefined"),
    "oracles._require_discrete": (
        lambda: adaptive_optimum_dp(Instance([COIN, Uniform(0, 1)], 1)),
        ValidationError, "variable 1 is not finite discrete"),
    "oracles.adaptive_optimum_dp: state budget": (
        # (k + 1) * 2^n * (1 + atoms) = 2 * 2^18 * 37 states
        lambda: adaptive_optimum_dp(Instance([COIN] * 18, 1)),
        InstanceTooLarge, "state bound 19398656 exceeds budget 5000000"),
    "oracles.static_optimum_enum: subset budget": (
        lambda: static_optimum_enum(Instance([COIN] * 20, 10)),
        InstanceTooLarge, "184756 subsets exceed budget 100000"),
    "policy_eval.expected_max_exact_discrete: not discrete": (
        lambda: expected_max_exact_discrete([COIN, Uniform(0, 1)], [0, 1]),
        ValidationError, "variable 1 is not finite discrete; exact E[max] unavailable"),
    "policy_eval.expected_max_exact_discrete: empty subset": (
        lambda: expected_max_exact_discrete([COIN], []),
        ValidationError, "empty subset"),
    "policy_eval.expected_max_exact_discrete: negative index": (
        lambda: expected_max_exact_discrete([COIN, COIN], [-1]),
        ValidationError, "index -1 outside [0, 2)"),
    "policy_eval.expected_max_exact_discrete: index out of range": (
        lambda: expected_max_exact_discrete([COIN, COIN], [5]),
        ValidationError, "index 5 outside [0, 2)"),
    "policy_eval.expected_max_exact_discrete: duplicate index": (
        lambda: expected_max_exact_discrete([COIN, COIN], [0, 0]),
        ValidationError, "duplicate indices in subset (0, 0)"),
    "policy_eval.expected_max_exact_discrete: non-integer index": (
        lambda: expected_max_exact_discrete([COIN, COIN], [1.5]),
        ValidationError, "index 1.5 is not an integer"),
    "policy_eval.expected_max_exact_discrete: overflow": (
        lambda: expected_max_exact_discrete(HUGE_PAIR, [0, 1]),
        ValidationError, "exact E[max] overflows the floating-point range"),
    "instance_io.gen_instance: non-integer n": (
        lambda: gen_instance(2.5, 1, "discrete", 0),
        ValidationError, "n=2.5 must be an integer"),
    "instance_io.gen_instance: float seed": (
        lambda: gen_instance(2, 1, "discrete", 1.5),
        ValidationError, "seed=1.5 must be an integer"),
    "instance_io.gen_instance: string seed": (
        lambda: gen_instance(2, 1, "discrete", "7"),
        ValidationError, "seed='7' must be an integer"),
    "minmax.Instance: foreign variable type": (
        lambda: Instance([Uniform(0, 1), Constant(), Constant()], 1),
        ValidationError,
        "variable 1 is a Constant, not a DiscreteFinite, Uniform or Exponential"),
    "minmax.Instance: subclass of a family": (
        lambda: Instance([NarrowUniform(0, 1)], 1),
        ValidationError,
        "variable 0 is a NarrowUniform, not a DiscreteFinite, Uniform or Exponential"),
}


@pytest.mark.parametrize("site", list(SITES))
def test_rejected_input_is_a_validation_error(site):
    call, cls, message = SITES[site]
    with pytest.raises(ValidationError) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message


#: Entry point -> call with that integer argument set to its parameter.
INTEGER_ARGS = {
    "Instance.k": lambda v: Instance([Uniform(0, 1), COIN], v),
    "minimize_hmax.xi_target": lambda v: minimize_hmax(TWO_UNIFORM, v),
    "gen_instance.n": lambda v: gen_instance(v, 1, "mixed", 3),
    "gen_instance.seed": lambda v: gen_instance(4, 2, "mixed", v),
    "simulate.trials": lambda v: simulate(ThresholdPolicy([COIN], 0.5), v, 5),
    "simulate.seed": lambda v: simulate(ThresholdPolicy([COIN], 0.5), 100, v),
}


@pytest.mark.parametrize("value", [np.int64(1), np.int32(1), True], ids=repr)
@pytest.mark.parametrize("site", list(INTEGER_ARGS))
def test_integer_arguments_take_numpy_integers_but_not_bool(site, value):
    call = INTEGER_ARGS[site]
    if isinstance(value, bool):
        with pytest.raises(ValidationError, match="=True must be"):
            call(value)
    else:
        assert call(value) == call(1)


#: Entry point -> (call with that real argument set to its parameter,
#: whole message at 10**400, which is beyond the float range).
REAL_ARGS = {
    "Uniform.b": (lambda v: Uniform(0, v), "uniform endpoints must be finite"),
    "Exponential.rate": (lambda v: Exponential(v), "exponential rate inf must be positive"),
    "DiscreteFinite value": (
        lambda v: DiscreteFinite([(v, 1)]), "support value inf must be finite and non-negative"),
    "ThresholdPolicy.threshold": (
        lambda v: ThresholdPolicy([Uniform(0, 1)], v),
        "threshold inf must be finite and non-negative"),
    "minimize_hmax.xi_target": (
        lambda v: minimize_hmax(TWO_UNIFORM, v), f"xi_target={10**400!r} must be a positive real"),
    "select_gap2_set.epsilon": (
        lambda v: select_gap2_set(TWO_UNIFORM, v),
        f"epsilon={10**400!r} must lie strictly inside (0, 1)"),
}


@pytest.mark.parametrize("value", [10**400, np.float32(0.05), Fraction(1, 20)],
                         ids=["10**400", "np.float32(0.05)", "Fraction(1, 20)"])
@pytest.mark.parametrize("site", list(REAL_ARGS))
def test_real_arguments_take_any_real_and_reject_one_beyond_the_float_range(site, value):
    """A real in range gives what its float gives; 10**400 is a
    ValidationError, not a raw OverflowError."""
    call, message = REAL_ARGS[site]
    if isinstance(value, int):
        with pytest.raises(ValidationError) as info:
            call(value)
        assert str(info.value) == message
    else:
        assert call(value) == call(float(value))


def raised_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, class name) of every raise in `tree` that names an exception.

    `raise X(...)` names X; `raise name` names the class of the call the
    innermost enclosing function assigns to `name`.  A bare `raise` names
    nothing.
    """
    found = []

    def visit(node: ast.AST, made: dict) -> None:
        if isinstance(node, ast.FunctionDef):
            made = {
                target.id: assign.value
                for assign in ast.walk(node) if isinstance(assign, ast.Assign)
                for target in assign.targets if isinstance(target, ast.Name)
            }
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            if isinstance(exc, ast.Name):
                exc = made.get(exc.id, exc)
            name = exc.func if isinstance(exc, ast.Call) else exc
            found.append((node.lineno, ast.unparse(name)))
        for child in ast.iter_child_nodes(node):
            visit(child, made)

    visit(tree, {})
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_raise_only_the_package_classes(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stray = [(line, name) for line, name in raised_names(tree) if name not in RAISABLE]
    assert stray == []


def test_errors_module_defines_exactly_four_classes():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {
        node.name: [ast.unparse(base) for base in node.bases]
        for node in tree.body if isinstance(node, ast.ClassDef)
    }
    assert classes == {name: [base] for name, base in HIERARCHY.items()}


#: numpy names whose calls go through BLAS, as `np.<name>` or an array method.
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "einsum", "tensordot", "linalg"}


def blas_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, source) of every `@`, `@=` and use of a BLAS_NAMES attribute or import."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES
            or isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
            and any(alias.name in BLAS_NAMES for alias in node.names)
        ):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_make_no_blas_call(path):
    assert blas_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_blas_guard_sees_every_form():
    source = (
        "a = np.dot(x, y)\nb = x @ y\nb @= y\nc = np.linalg.norm(x)\n"
        "d = numpy.einsum('i,i', x, y)\ne = x.dot(y)\nfrom numpy import vdot\n"
        "f = np.tensordot(x, y) + np.inner(x, y) + np.matmul(x, y)\ng = np.sum(x * y)\n"
    )
    assert [line for line, _ in blas_uses(ast.parse(source))] == [1, 2, 3, 4, 5, 6, 7, 8, 8, 8]


def test_guard_sees_an_ad_hoc_class():
    source = (
        "class NotAnInput(ProbemaxError):\n    pass\n"
        "def f(x):\n"
        "    if x:\n        raise NotAnInput('x')\n"
        "    exc = KeyError(x)\n    raise exc\n"
        "def g():\n    raise ValidationError('fine') from None\n"
    )
    assert raised_names(ast.parse(source)) == [
        (5, "NotAnInput"), (7, "KeyError"), (9, "ValidationError"),
    ]
