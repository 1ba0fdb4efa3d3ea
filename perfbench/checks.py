"""Checks of `opalg run` output made apart from the program.

Standard library only: BRST ranks come from exact elimination over the
rationals, the dumped shell field from a pointwise sum over the lattice,
and the quantum-plane counts from closed formulas.  Each check is one
operation of the benchmark run, as is each report row.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

# the program's documented default tolerances, overridden by the file
DEFAULT_TOLERANCES = {"default": 1e-10, "witness": 1e-10, "parseval": 1e-8,
                      "grid_exact": 1e-11}
CSV_HEADER = "check,status,value,tolerance,ms"
FIELD_SAMPLES = 32
FIELD_RTOL = 1e-8


def parse_csv(text: str):
    """Rows of a csv report as (check, status, value) tuples."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("not an opalg csv report")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"malformed report row {line!r}")
        rows.append((fields[0], fields[1], fields[2]))
    return rows


def rank(matrix) -> int:
    """Rank of a complex matrix by exact elimination of its real form."""
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    rows = []
    for i in range(n):
        re = [Fraction(z.real) for z in matrix[i]]
        im = [Fraction(z.imag) for z in matrix[i]]
        rows.append(re + [-v for v in im])
        rows.append(im + re)
    r = 0
    for col in range(2 * m):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r // 2


def coaction_words(max_deg: int) -> int:
    """Embeddings w1 (xy - q yx) w2 of total degree 2..max_deg."""
    return sum((d - 1) * 2 ** (d - 2) for d in range(2, max_deg + 1))


def center_count(q, max_deg: int) -> int:
    """Monomials x^a y^b, 0 < a + b <= max_deg, with N | a and N | b."""
    if not isinstance(q, dict):
        return 0
    N = int(q["N"])
    return sum(1 for a in range(max_deg + 1) for b in range(max_deg + 1 - a)
               if a + b > 0 and a % N == 0 and b % N == 0)


def shell_field(params: dict, xs):
    """Restricted transform of the width-0.5 Gaussian at the points xs.

    (2 pi)^{-3/2} sum_p w_p f(p) exp(i(p.x - e_p t)) over the shell lattice,
    with the weights of the invariant measure and the cone's origin dropped.
    """
    kind = params.get("kind", "galilean")
    mass = float(params.get("mass", 1.0))
    n = int(params.get("points", 16))
    h = float(params.get("spacing", 0.4))
    t = float(params.get("times", (0.0, 1.0))[0])
    axis = [(i - n // 2) * h for i in range(n)]
    terms = []
    for p1 in axis:
        for p2 in axis:
            for p3 in axis:
                p_sq = p1 * p1 + p2 * p2 + p3 * p3
                if kind == "galilean":
                    e, w = p_sq / (2 * mass), h ** 3
                else:
                    if kind == "massless" and p_sq == 0:
                        continue
                    e = math.sqrt(p_sq + (mass ** 2 if kind == "relativistic" else 0))
                    w = h ** 3 / (2 * e)
                amp = w * math.exp(-p_sq / (2 * 0.5 ** 2)) * cmath.exp(-1j * e * t)
                terms.append((p1, p2, p3, amp))
    norm = (2 * math.pi) ** -1.5
    return [norm * sum(a * cmath.exp(1j * (p1 * x1 + p2 * x2 + p3 * x3))
                       for p1, p2, p3, a in terms) for x1, x2, x3 in xs]


def read_field(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "x1,x2,x3,re_psi,im_psi":
        raise ValueError(f"{path}: not a dumped field")
    out = []
    for line in lines[1:]:
        x1, x2, x3, re, im = (float(v) for v in line.split(","))
        out.append(((x1, x2, x3), complex(re, im)))
    return out


class Checker:
    """Independent checks of one scenario file's reports."""

    def __init__(self, scenario: dict, charges: dict):
        self.specs = [(c["check"], c.get("params", {})) for c in scenario["checks"]]
        self.tol = dict(DEFAULT_TOLERANCES)
        self.tol.update({k: float(v) for k, v in scenario.get("tolerances", {}).items()})
        self.quotient_dims = {model: len(Q) - 2 * rank(Q)
                              for model, Q in charges.items()}

    def check(self, csv_text: str, exit_code: int):
        """(label, passed) per check, and the parsed rows."""
        try:
            rows = parse_csv(csv_text)
        except ValueError:
            rows = []
        results = [("rows_in_declared_order",
                    [r[0] for r in rows] == [name for name, _ in self.specs]),
                   ("exit_code_agrees_with_rows",
                    exit_code in (0, 1) and bool(rows)
                    and (exit_code == 0) == all(r[1] == "pass" for r in rows))]
        for (name, params), row in zip(self.specs, rows):
            results.extend(self._check_row(name, params, row[1], row[2]))
        return results, rows

    def _check_row(self, name, params, status, value):
        tol = self.tol
        if name == "series.witness_roundtrip":
            # known fault: an absolute tolerance against witness coefficients
            # that grow like |c0|^-order; a fail above tolerance is that fault
            ok = _float(value) <= tol["witness"] if status == "pass" \
                else status == "fail" and _float(value) > tol["witness"]
            yield name, ok
        elif name == "krein.invariants":
            yield name, _float(value) <= tol["default"]
        elif name == "brst.physical_space":
            d = self.quotient_dims[params.get("model", "gupta_bleuler")]
            yield name, value == f"quotient_dim={d}"
        elif name == "brst.observables":
            d = self.quotient_dims[params.get("model", "gupta_bleuler")]
            yield name, value == f"quotient_dim={d * d}"
        elif name == "brst.deform_stability":
            yield name, value == "ok;ok;ok;ok"
        elif name == "galilei.cocycle":
            yield name, _float(value) <= tol["default"]
        elif name == "galilei.commutators":
            yield name, _float(value) <= tol["grid_exact"]
        elif name == "galilei.commutator_convergence":
            lo, hi = _orders(value)
            yield name, 1.8 <= lo <= hi <= 2.2
        elif name == "wigner.parseval":
            if params.get("expect", "isometry") == "defect":
                yield name, _float(value) > float(params.get("floor", 0.05))
            else:
                yield name, _float(value) <= tol["parseval"]
            if params.get("dump_field"):
                yield "wigner.parseval.dump_field", self._field_ok(params)
        elif name == "qplane.coaction":
            want = "violated@deg2" if params.get("perturb_ab") else \
                f"preserved;words={coaction_words(int(params.get('max_deg', 3)))}"
            yield name, value == want
        elif name == "qplane.center":
            count = center_count(params["q"], int(params.get("max_deg", 6)))
            yield name, value == f"count={count}"

    def _field_ok(self, params) -> bool:
        try:
            field = read_field(params["dump_field"])
        except (OSError, ValueError):
            return False
        n = int(params.get("points", 16))
        if len(field) != n ** 3:
            return False
        stride = max(1, len(field) // FIELD_SAMPLES)
        sample = field[::stride] + [max(field, key=lambda xv: abs(xv[1]))]
        expect = shell_field(params, [x for x, _ in sample])
        scale = max(abs(v) for v in expect)
        return scale > 0 and all(abs(got - want) <= FIELD_RTOL * scale
                                 for (_, got), want in zip(sample, expect))


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _orders(value: str):
    if not (value.startswith("orders[") and value.endswith("]")):
        return math.nan, math.nan
    lo, _, hi = value[len("orders["):-1].partition(";")
    return _float(lo), _float(hi)
