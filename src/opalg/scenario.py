"""Scenario runner: load check suites from JSON, execute, emit reports.

A scenario file pins a name, a 64-bit seed, a truncation order, named
tolerances and an ordered list of checks.  Every entry draws its randomness
from a generator derived by hashing (seed, entry index, check name), so
repeated entries of one check draw apart and reruns with an equal seed are
bit-reproducible.  Failing checks never stop the run; their records carry
the failure.  A run imports only the layers its check names start with,
and numpy only in the functions that compute, so loading a file and
listing the checks import neither.
"""

import functools
import json
import math
import os
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import opalg

__all__ = [
    "Scenario",
    "CheckSpec",
    "CheckRecord",
    "Report",
    "ScenarioParseError",
    "UnknownCheckError",
    "load_scenario",
    "run_scenario",
    "emit_report",
    "series_from_json",
    "available_checks",
    "DEFAULT_TOLERANCES",
]

DEFAULT_TOLERANCES = {
    "default": 1e-10,
    "witness": 1e-10,
    "parseval": 1e-8,
    "grid_exact": 1e-11,
}

class ScenarioParseError(ValueError):
    pass


class UnknownCheckError(ValueError):
    pass


class CheckSpec(NamedTuple):
    check: str
    params: Dict


class Scenario(NamedTuple):
    name: str
    seed: int
    truncation_order: int
    tolerances: Dict[str, float]
    checks: Tuple[CheckSpec, ...]


class CheckRecord(NamedTuple):
    name: str
    status: str                  # pass | fail | error
    value: str
    tolerance: str
    wall_ms: float


class Report(NamedTuple):
    scenario: str
    seed: int
    records: Tuple[CheckRecord, ...] = ()

    @property
    def counts(self) -> Dict[str, int]:
        out = {"pass": 0, "fail": 0, "error": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def all_passed(self) -> bool:
        c = self.counts
        return c["fail"] == 0 and c["error"] == 0


# ---------------------------------------------------------------------------
# serialization helpers


def series_from_json(data) -> "opalg.series.FormalSeries":
    """Series from [re, im] pairs: a list of them for a scalar series, as a
    scenario gives one, or nested arrays of them for an array series."""
    import numpy as np
    pairs = np.asarray(data, dtype=float)
    return opalg.series.FormalSeries(pairs[..., 0] + 1j * pairs[..., 1])


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


# ---------------------------------------------------------------------------
# parameter declarations: the strings a parameter may take, or a decoder
# (value, where) -> value that raises a ScenarioParseError naming where


def _number(kind, value, where: str):
    """A finite int or float from a JSON number; an int only from an integral
    value, so 16.0 reads as 16.  Anything else (a boolean, a string, NaN, an
    infinity, 2.9 for an int) raises a ScenarioParseError naming where the
    value came from."""
    try:
        number = kind(value) if type(value) in (int, float) else None
    except (OverflowError, ValueError):  # an int of NaN or an infinity, an int past the floats
        number = None
    if number is None or (number != value if kind is int else not math.isfinite(number)):
        what = "an integer" if kind is int else "a finite number"
        raise ScenarioParseError(f"{where}: expected {what}, got {value!r}")
    return number


def _numbers(kind, value, where: str) -> List:
    if not isinstance(value, list):
        raise ScenarioParseError(f"{where}: expected a list, got {value!r}")
    return [_number(kind, item, f"{where}[{i}]") for i, item in enumerate(value)]


def _least(kind, least):
    def decode(value, where: str):
        number = _number(kind, value, where)
        if number < least:
            raise ScenarioParseError(f"{where}: expected at least {least}, got {value!r}")
        return number
    return decode


_count = functools.partial(_least, int)     # a count, size or order and its least value
_real = functools.partial(_number, float)


def _domain(ok, expected: str, read=None):
    """A decoder: read(value, where) when given, then refuse what ok rejects."""
    def decode(value, where: str):
        got = read(value, where) if read else value
        if not ok(got):
            raise ScenarioParseError(f"{where}: expected {expected}, got {got!r}")
        return got
    return decode


# galilei.MIN_POINTS_PER_AXIS, repeated here because loading imports no layer
_MIN_LADDER_POINTS = 32

_positive = _domain(lambda x: x > 0, "a positive number", _real)
_flag = _domain(lambda v: isinstance(v, bool), "true or false")
_times = _domain(len, "at least 1 items", functools.partial(_numbers, float))
_ladder = _domain(lambda sizes: len(sizes) == len(set(sizes)) >= 2
                  and min(sizes) >= _MIN_LADDER_POINTS,
                  "two or more sizes, no two equal, each of at least "
                  f"{_MIN_LADDER_POINTS} points", functools.partial(_numbers, int))
_text = _domain(lambda s: isinstance(s, str), "a string")
_word = _domain(lambda w: isinstance(w, str) and not set(w) - {"x", "y"},
                "a string of the letters x and y")
_dump_path = _domain(lambda path: isinstance(path, str) and path and not os.path.isdir(path)
                     and os.path.isdir(os.path.dirname(path) or "."),
                     "a file path in an existing directory")


def _pair(least_sum: int):
    return _domain(lambda pair: len(pair) == 2 and min(pair) >= 0 and sum(pair) >= least_sum,
                   "two non-negative integers" + (" with a positive sum" if least_sum else ""),
                   functools.partial(_numbers, int))


_re_im = _domain(lambda pair: len(pair) == 2, "[re, im]", functools.partial(_numbers, float))


def _series(value, where: str) -> List[List[float]]:
    """The [re, im] pairs of a scalar series, read without numpy; the check
    builds its array."""
    if not isinstance(value, list) or not value:
        raise ScenarioParseError(f"{where}: expected a nonempty list of [re, im] pairs, "
                                 f"got {value!r}")
    return [_re_im(item, f"{where}[{i}]") for i, item in enumerate(value)]


def _q(value, where: str):
    """The integers N and k of a root of unity {N, k}, or a number or a pair
    [re, im] as a nonzero complex number."""
    if isinstance(value, dict):
        for key in value:
            if key not in ("N", "k"):
                raise ScenarioParseError(f"{where}.{key}: unknown key; an exact q "
                                         f"takes N, k")
        N = _number(int, value.get("N"), f"{where}.N")
        k = _number(int, value.get("k", 1), f"{where}.k")
        if N < 1 or math.gcd(k, N) != 1:
            raise ScenarioParseError(f"{where}: expected N >= 1 and gcd(k, N) = 1, "
                                     f"got N={N}, k={k}")
        return {"N": N, "k": k}
    q = complex(*_re_im(value, where)) if isinstance(value, list) \
        else complex(_number(float, value, where))
    if q == 0:
        raise ScenarioParseError(f"{where}: expected a nonzero number, got {value!r}")
    return q


# ---------------------------------------------------------------------------
# check context and registry


class CheckContext(NamedTuple):
    rng: "np.random.Generator"
    truncation_order: int
    tolerances: Dict[str, float]

    def tol(self, name: str = "default") -> float:
        return self.tolerances[name]


class CheckResult(NamedTuple):
    passed: bool
    value: object
    tolerance: Optional[float] = None


# fn(ctx, *, name: declaration = default, ...): the keyword-only arguments
# are the check's parameters, which load_scenario reads by their declarations
CheckFn = Callable[..., CheckResult]
_REGISTRY: Dict[str, CheckFn] = {}
# rule(**arguments), a constraint across parameters: "name: what is wrong" or None
_RULES: Dict[str, Callable[..., Optional[str]]] = {}


def register(name: str, rule=lambda **_: None):
    def wrap(fn: CheckFn) -> CheckFn:
        _REGISTRY[name], _RULES[name] = fn, rule
        return fn
    return wrap


def available_checks() -> List[str]:
    return sorted(_REGISTRY)


@register("series.is_positive")
def _check_is_positive(ctx, *, b: _series, expect: ("positive", "not_positive") = "positive"):
    verdict = opalg.series.is_positive(series_from_json(b), tol=ctx.tol())
    got = "positive" if verdict.positive else "not_positive"
    return CheckResult(passed=(got == expect), value=got, tolerance=ctx.tol())


@register("series.witness_roundtrip")
def _check_witness_roundtrip(ctx, *, count: _count(1) = 50, order: _count(0) = None):
    import numpy as np
    order = ctx.truncation_order if order is None else order
    tol = ctx.tol("witness")
    worst = 0.0
    for size in opalg.series._blocks(count, 2 * (order + 1)):
        # per series: the real parts, then the imaginary parts
        draws = ctx.rng.normal(size=(size, 2, order + 1))
        c = draws[:, 0] + 1j * draws[:, 1]
        c[np.abs(c[:, 0]) < 0.1, 0] += 1.0
        b = opalg.series._star_square_rows(c)
        positive, witness, failure = opalg.series._positive_rows(b, tol)
        if not positive.all():
            return CheckResult(passed=False,
                               value=f"not_positive@{failure[np.argmin(positive)]}")
        defect = np.max(np.abs(opalg.series._star_square_rows(witness) - b), axis=1)
        # witness coefficients grow like |c0|^-order: compare with the scale
        # of the Cauchy sums, not absolutely
        scale = np.maximum(np.max(np.abs(witness), axis=1) ** 2, np.max(np.abs(b), axis=1))
        worst = np.maximum(worst, np.max(defect / scale))  # keeps a NaN ratio
    return CheckResult(passed=worst <= tol, value=float(worst), tolerance=tol)


@register("krein.invariants")
def _check_krein_invariants(ctx, *, signature: _pair(1) = (1, 1), samples: _count(1) = 100):
    import numpy as np
    krein, tol = opalg.krein, ctx.tol()
    gram = np.diag([1.0] * signature[0] + [-1.0] * signature[1])
    K = krein.make_krein(gram)
    J = krein.fundamental_symmetry(K)
    # a Wick rotation that is not positive definite is a residual of 1
    worst = np.maximum(np.max(np.abs(J.matrix @ J.matrix - np.eye(K.dim))),
                       not np.min(np.linalg.eigvalsh(krein.wick_rotate(K, J))) > 0)
    for size in opalg.series._blocks(samples, 4 * K.dim ** 2):
        # per sample: Re A, Im A, Re B, Im B, in the order of one-by-one draws
        d = ctx.rng.normal(size=(size, 4, K.dim, K.dim))
        A, B = d[:, 0] + 1j * d[:, 1], d[:, 2] + 1j * d[:, 3]
        adj = krein.krein_adjoint(K, A)
        worst = np.max([worst, np.max(np.abs(krein.krein_adjoint(K, adj) - A)),
                        np.max(np.abs(krein.krein_adjoint(K, A @ B)
                                      - krein.krein_adjoint(K, B) @ adj))])
    return CheckResult(passed=worst <= tol, value=float(worst), tolerance=tol)


# name -> structure, built on the first call and then shared by every check
# that names the model, with the decompositions the structure keeps
_MODELS = {name: functools.cache(lambda builder=builder: getattr(opalg.brst, builder)())
           for name, builder in (("null_pair", "null_pair_toy"),
                                 ("gupta_bleuler", "gupta_bleuler_toy"),
                                 ("two_pair", "two_pair_model"))}


@register("brst.physical_space")
def _check_physical_space(ctx, *, model: tuple(_MODELS) = "gupta_bleuler",
                          expect_dim: _count(0) = None):
    quotient = opalg.brst.physical_space(_MODELS[model]())
    ok = expect_dim is None or quotient.dim == expect_dim
    return CheckResult(passed=ok, value=f"quotient_dim={quotient.dim}")


@register("brst.observables")
def _check_observables(ctx, *, model: tuple(_MODELS) = "gupta_bleuler",
                       variant: ("even_ghost", "full") = "even_ghost",
                       expect_dim: _count(0) = None):
    algebra = opalg.brst.observable_algebra(_MODELS[model](), variant)
    ok = expect_dim is None or algebra.quotient_dim == expect_dim
    return CheckResult(passed=ok, value=f"quotient_dim={algebra.quotient_dim}")


@register("brst.deform_stability")
def _check_deform_stability(ctx, *, model: tuple(_MODELS) = "two_pair", order: _count(1) = 3,
                            samples: _count(1) = 20, mode: ("solved", "rescale") = "solved"):
    import numpy as np
    B = _MODELS[model]()
    # rescale: Q(g) = (1 + g) Q; solved: a random combination of the generators
    gens = [] if mode == "rescale" else opalg.brst.deformation_generators(B)
    Q1 = sum(w * g for w, g in zip(ctx.rng.normal(size=len(gens)), gens)) if gens else B.Q
    q_series = opalg.series.FormalSeries([B.Q, Q1] + [np.zeros_like(B.Q)] * (order - 1))
    D = opalg.brst.validate_deformation(B, q_series)
    report = opalg.brst.deform_check(D, samples=samples, rng=ctx.rng)
    items = ",".join("ok" if p else "FAIL" for p in report.items_passed)
    return CheckResult(passed=report.all_passed, value=items)


@register("galilei.cocycle")
def _check_cocycle(ctx, *, triples: _count(1) = 200):
    import numpy as np
    galilei, tol = opalg.galilei, ctx.tol()
    # per element: 9 rotation seeds, v, u and eta, in the order of one
    # element-by-element draw
    draws = ctx.rng.normal(size=(triples, 3, 16))
    Q, _ = np.linalg.qr(draws[..., :9].reshape(triples, 3, 3, 3))
    Q[np.linalg.det(Q) < 0, :, 0] *= -1.0
    r, rp, rpp = (galilei.make_galilei(Q[:, j], draws[:, j, 9:12],
                                       draws[:, j, 12:15], draws[:, j, 15])
                  for j in range(3))
    lhs = galilei.bargmann_exponent(r, rp) \
        + galilei.bargmann_exponent(galilei.galilei_compose(r, rp), rpp)
    rhs = galilei.bargmann_exponent(rp, rpp) \
        + galilei.bargmann_exponent(r, galilei.galilei_compose(rp, rpp))
    worst = float(np.max(np.abs(lhs - rhs), initial=0.0))
    return CheckResult(passed=worst <= tol, value=worst, tolerance=tol)


@register("galilei.commutators")
def _check_commutators(ctx, *, points: _count(_MIN_LADDER_POINTS) = 32,
                       p_max: _positive = 10.0, mass: _positive = 1.0):
    report = opalg.galilei.generator_commutators(
        mass, opalg.galilei.momentum_grid(points, p_max), pairs=opalg.galilei.EXACT_BRACKETS)
    tol = ctx.tol("grid_exact")
    worst_exact = report.max_deviation()
    return CheckResult(passed=worst_exact <= tol, value=worst_exact, tolerance=tol)


@register("galilei.commutator_convergence")
def _check_convergence(ctx, *, sizes: _ladder = (32, 64), p_max: _positive = 10.0,
                       mass: _positive = 1.0):
    import numpy as np
    orders = opalg.galilei.commutator_convergence(mass, sizes, p_max)
    flat = [o for seq in orders.values() for o in seq]
    lo, hi = float(np.min(flat)), float(np.max(flat))
    ok = 1.8 <= lo and hi <= 2.2
    return CheckResult(passed=ok, value=f"orders[{lo:.3f},{hi:.3f}]")


@register("galilei.clifford")
def _check_clifford(ctx):
    import numpy as np
    cl = opalg.galilei.clifford_generators()
    worst = 0.0
    for i, gi in enumerate(cl.gammas):
        for j, gj in enumerate(cl.gammas):
            target = 2.0 * (i == j) * np.eye(4)
            worst = np.maximum(worst, np.max(np.abs(gi @ gj + gj @ gi - target)))
    tol = 1e-12
    return CheckResult(passed=worst <= tol, value=float(worst), tolerance=tol)


@register("galilei.levy_leblond_shell")
def _check_shell_determinant(ctx, *, mass: _positive = 1.0, count: _count(1) = 100,
                             off_shell: _real = 0.5):
    import numpy as np
    galilei = opalg.galilei
    L = galilei.levy_leblond_matrices(mass)
    worst_on, worst_off = 0.0, np.inf
    for size in opalg.series._blocks(count, 3):
        p = ctx.rng.uniform(-2, 2, size=(size, 3))
        # p p^T as stacked 1x3 times 3x1 products: rounds as the dot p @ p
        eps = (p[:, None] @ p[..., None])[:, 0, 0] / (2 * mass)
        worst_on = np.maximum(worst_on, np.max(np.abs(np.linalg.det(
            galilei.levy_leblond_symbol(L, eps, p)))))
        worst_off = np.minimum(worst_off, np.min(np.abs(np.linalg.det(
            galilei.levy_leblond_symbol(L, eps + off_shell, p)))))
    ok = worst_on <= 1e-9 and worst_off > 1e-6
    return CheckResult(passed=ok, value=f"on={worst_on:.3e},off={worst_off:.3e}")


# wigner.SHELL_KINDS, repeated here because loading imports no layer
_SHELL_KINDS = ("galilean", "relativistic", "massless")


def _shell_mass(*, kind, mass, **_):
    # the paraboloid and the hyperboloid need m > 0; the cone ignores `mass`
    if kind != "massless" and mass <= 0:
        return f"mass: kind {kind!r} requires a positive mass, got {mass!r}"


@register("wigner.parseval", rule=_shell_mass)
def _check_parseval(ctx, *, kind: _SHELL_KINDS = "galilean", points: _count(1) = 16,
                    mass: _real = 1.0, spacing: _positive = 0.4,
                    reweight: ("none", "newton_wigner") = "none", times: _times = (0.0, 1.0),
                    expect: ("isometry", "defect") = "isometry",
                    floor: _least(float, 0) = 0.05, dump_field: _dump_path = None):
    # the defect does not depend on t; `times` sets the dumped slice only
    shell = opalg.wigner.make_shell(kind, mass, points, spacing)
    defect = opalg.wigner.isometry_defect(shell, reweight)
    if dump_field is not None:
        grid = opalg.wigner.reciprocal_slice(shell, times[0])
        f = opalg.wigner.gaussian_family(shell, width=0.5, radius=0.0)[0]
        _dump_field(dump_field, grid, opalg.wigner.restricted_inverse_fourier(f, grid))
    tol = ctx.tol("parseval")
    ok = defect <= tol if expect == "isometry" else defect > floor
    return CheckResult(passed=ok, value=defect, tolerance=tol)


@register("wigner.two_particle", rule=_shell_mass)
def _check_two_particle(ctx, *, kind: _SHELL_KINDS = "relativistic", mass: _real = 1.0,
                        samples: _count(1) = 1000, points: _count(1) = 9,
                        spacing: _positive = 0.5):
    shell = opalg.wigner.make_shell(kind, mass, points, spacing)
    stats = opalg.wigner.two_particle_mass_spectrum(shell, samples, rng=ctx.rng)
    floor = 0.0 if kind == "massless" else 2 * mass  # the cone ignores `mass`
    ok = stats.min >= floor - 1e-12 and abs(stats.threshold - floor) <= 1e-12
    return CheckResult(passed=ok, value=f"min={stats.min:.6f}")


@register("wigner.angular")
def _check_angular(ctx, *, amplitude: ("isotropic", "cos_theta") = "isotropic",
                   l_max: _count(1) = 4):
    import numpy as np
    amp, main_l = {"isotropic": (lambda th, ph: np.ones_like(th, dtype=complex), 0),
                   "cos_theta": (lambda th, ph: np.cos(th).astype(complex), 1)}[amplitude]
    report = opalg.wigner.angular_decomposition(amp, l_max)
    leakage = sum(v for l, v in report.channel_norms.items() if l != main_l)
    tol = ctx.tol("parseval")
    return CheckResult(passed=leakage <= tol, value=float(leakage), tolerance=tol)


@register("qplane.normal_form")
def _check_normal_form(ctx, *, q: _q, word: _word = "yx", expect_monomial: _pair(0) = None):
    poly = opalg.qplane.qplane_normal_form(list(word), _decode_q(q))
    ((a, b), _), = poly.terms.items()
    ok = expect_monomial is None or (a, b) == tuple(expect_monomial)
    return CheckResult(passed=ok, value=f"x^{a}y^{b}")


@register("qplane.center")
def _check_center(ctx, *, q: _q, max_deg: _count(1) = 6):
    q = _decode_q(q)
    central = opalg.qplane.center_probe(q, max_deg)
    # x^a y^b is central iff q^a = q^b = 1: N | a and N | b at an exact root
    # (N = 1 too), and at a numeric q the relative rule on complex powers,
    # which gives the same verdict at 1/q: read where no power overflows
    if isinstance(q, opalg.qplane.RootOfUnity):
        trivial = [e % q.N == 0 for e in range(max_deg + 1)]
    else:
        r = q if abs(q) <= 1 else 1 / q
        trivial = [abs(r ** e - 1) <= opalg.qplane.NUMERIC_TOL * (abs(r) ** e + 1)
                   for e in range(max_deg + 1)]
    expected = [(a, total - a) for total in range(1, max_deg + 1)
                for a in range(total + 1) if trivial[a] and trivial[total - a]]
    ok = sorted(central) == sorted(expected)
    return CheckResult(passed=ok, value=f"count={len(central)}")


@register("qplane.coaction")
def _check_coaction(ctx, *, q: _q, max_deg: _count(2) = 3, perturb_ab: _flag = False):
    try:
        report = opalg.qplane.glq2_coaction_check(_decode_q(q), max_deg, perturb_ab=perturb_ab)
        ok = not perturb_ab
        value = f"preserved,words={report.words_checked}"
    except opalg.qplane.RelationViolatedError as exc:
        ok = perturb_ab
        value = f"violated@deg{exc.degree}"
    return CheckResult(passed=ok, value=value)


def _decode_q(data):
    return opalg.qplane.RootOfUnity(**data) if isinstance(data, dict) else data


def _dump_field(path: str, grid, values: "np.ndarray"):
    points = grid.points()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,x3,re_psi,im_psi\n")
        for (x1, x2, x3), v in zip(points, values):
            fh.write(f"{_fmt(float(x1))},{_fmt(float(x2))},{_fmt(float(x3))},"
                     f"{_fmt(float(v.real))},{_fmt(float(v.imag))}\n")


# ---------------------------------------------------------------------------
# loading and running


def _bind(name: str, params: Dict, where: str) -> Dict:
    """The keyword arguments of the check `name` from a scenario entry's params.

    Every name must be one of the check's keyword-only arguments, and every
    argument without a default must be given.  Each value is read by the
    argument's declaration: a tuple of strings holds the values it may take,
    and a decoder reads and checks it.  JSON null stands for a default of None.
    Last, the check's rule reads all its arguments.
    """
    fn = _REGISTRY[name]
    code, defaults = fn.__code__, fn.__kwdefaults__ or {}
    names = code.co_varnames[code.co_argcount:code.co_argcount + code.co_kwonlyargcount]
    for key in params:
        if key not in names:
            raise ScenarioParseError(f"{where}.{key}: unknown parameter; the check "
                                     f"takes {', '.join(names) or 'none'}")
    for key in names:
        if key not in params and key not in defaults:
            raise ScenarioParseError(f"{where}.{key}: missing required parameter")
    kwargs = dict(params)
    for key, value in params.items():
        declared = fn.__annotations__[key]
        if value is None and defaults.get(key, ...) is None:
            continue
        if not isinstance(declared, tuple):
            kwargs[key] = declared(value, f"{where}.{key}")
        elif value not in declared:
            raise ScenarioParseError(f"{where}.{key}: expected one of "
                                     f"{', '.join(declared)}, got {value!r}")
    problem = _RULES[name](**{**defaults, **kwargs})
    if problem:
        raise ScenarioParseError(f"{where}.{problem}")
    return kwargs


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file; every malformed field raises
    ScenarioParseError (or UnknownCheckError) naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    # text that is not UTF-8, an integer past int's digit limit, nesting past
    # the recursion limit, and a file that cannot be read
    except (ValueError, RecursionError, OSError) as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioParseError(f"{path}: the top level must be an object")
    # the keys of a file and of its entries are the fields of their records
    for key in data:
        if key not in Scenario._fields:
            raise ScenarioParseError(f"{path}: {key}: unknown key; a scenario takes "
                                     f"{', '.join(Scenario._fields)}")
    for key in ("name", "seed", "checks"):
        if key not in data:
            raise ScenarioParseError(f"{path}: missing required key {key!r}")
    if not isinstance(data["checks"], list):
        raise ScenarioParseError(f"{path}: checks: expected a list")
    if not isinstance(data.get("tolerances", {}), dict):
        raise ScenarioParseError(f"{path}: tolerances: expected an object")
    tolerances = dict(DEFAULT_TOLERANCES)
    for k, v in data.get("tolerances", {}).items():
        if k not in DEFAULT_TOLERANCES:
            raise ScenarioParseError(f"{path}: tolerances.{k}: unknown tolerance; a "
                                     f"scenario names {', '.join(sorted(DEFAULT_TOLERANCES))}")
        tolerances[k] = _least(float, 0)(v, f"{path}: tolerances.{k}")
    checks = []
    for i, entry in enumerate(data["checks"]):
        where = f"{path}: checks[{i}]"
        if not isinstance(entry, dict) or not isinstance(entry.get("check"), str):
            raise ScenarioParseError(f"{where}: expected an object with a 'check' name")
        for key in entry:
            if key not in CheckSpec._fields:
                raise ScenarioParseError(f"{where}.{key}: unknown key; an entry takes "
                                         f"{', '.join(CheckSpec._fields)}")
        name = entry["check"]
        if name not in _REGISTRY:
            raise UnknownCheckError(f"{path}: unknown check {name!r}")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ScenarioParseError(f"{where}.params: expected an object")
        checks.append(CheckSpec(check=name, params=_bind(name, params, f"{where}.params")))
    return Scenario(name=_text(data["name"], f"{path}: name"),
                    seed=_number(int, data["seed"], f"{path}: seed"),
                    truncation_order=_count(0)(data.get("truncation_order", 8),
                                               f"{path}: truncation_order"),
                    tolerances=tolerances, checks=tuple(checks))


def _derive_rng(seed: int, index: int, check_name: str) -> "np.random.Generator":
    """Stream of the entry at position `index`: repeated entries of one
    check draw apart, and equal seeds give equal streams."""
    import hashlib  # not at module level: loading a scenario never hashes
    import numpy as np
    digest = hashlib.sha256(f"{seed}:{index}:{check_name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _run_one(scenario: Scenario, index: int) -> CheckRecord:
    import numpy as np
    spec = scenario.checks[index]
    ctx = CheckContext(rng=_derive_rng(scenario.seed, index, spec.check),
                       truncation_order=scenario.truncation_order,
                       tolerances=scenario.tolerances)
    start = time.perf_counter()
    try:
        # an overflow or NaN shows in the record's value, not as a warning
        # on stderr; the error state is per thread, so it is set here
        with np.errstate(all="ignore"):
            result = _REGISTRY[spec.check](ctx, **spec.params)
        status = "pass" if result.passed else "fail"
        value = _fmt(result.value)
        tolerance = _fmt(result.tolerance) if result.tolerance is not None else ""
    except Exception as exc:  # captured into the report, never aborts the run
        status = "error"
        value = f"{type(exc).__name__}: {exc}"
        tolerance = ""
    wall_ms = (time.perf_counter() - start) * 1e3
    return CheckRecord(name=spec.check, status=status, value=value,
                       tolerance=tolerance, wall_ms=wall_ms)


def run_scenario(scenario, jobs: int = 1,
                 seed_override=None) -> Report:
    """Execute all checks in declared order; never aborts on check failure."""
    if isinstance(scenario, str):
        scenario = load_scenario(scenario)
    if seed_override is not None:
        scenario = scenario._replace(seed=int(seed_override))
    # the named layers, up front, so that no check's wall_ms carries an import
    for layer in dict.fromkeys(spec.check.split(".")[0] for spec in scenario.checks
                               if spec.check in _REGISTRY):
        getattr(opalg, layer)
    run, indices = functools.partial(_run_one, scenario), range(len(scenario.checks))
    if jobs <= 1:
        records = tuple(map(run, indices))
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = tuple(pool.map(run, indices))
    return Report(scenario=scenario.name, seed=scenario.seed, records=records)


def emit_report(report: Report, fmt: str = "text") -> str:
    """Render a report; csv output is byte-identical across equal-seed runs.

    The csv ms column is pinned to zero so that reruns compare equal; the
    text rendering carries the measured wall time instead.
    """
    if fmt == "csv":
        lines = ["check,status,value,tolerance,ms"]
        for r in report.records:
            value = r.value.replace(",", ";").replace("\r", " ").replace("\n", " ")
            lines.append(f"{r.name},{r.status},{value},{r.tolerance},0")
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    width = max((len(r.name) for r in report.records), default=10)
    lines = [f"scenario {report.scenario} (seed {report.seed})"]
    for r in report.records:
        tol = f" tol={r.tolerance}" if r.tolerance else ""
        lines.append(f"  {r.name:<{width}}  {r.status:<5}  value={r.value}"
                     f"{tol}  [{r.wall_ms:.1f} ms]")
    c = report.counts
    lines.append(f"summary: {c['pass']} passed, {c['fail']} failed, "
                 f"{c['error']} errors")
    return "\n".join(lines) + "\n"
