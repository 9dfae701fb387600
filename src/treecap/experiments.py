"""Named experiments over the tree and disc capacities, with reproducible reports.

Each experiment builds an ``ExperimentReport``: the full parameter record
(library version included), a list of uniform rows, a pass/fail verdict for
its acceptance rule, and the wall-clock time.  ``to_json_obj`` gives the
JSON report and ``rows_to_csv`` its rows, with identical fields.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import __version__
from .builder import (
    calibrated_set,
    equal_split,
    lower_bound,
    lower_bound_gap_form,
    plateau_bound,
    random_boundary_set,
    set_of_capacity,
)
from .capacity import capacity, condenser_capacity
from .disc import SolverGrid, condenser_profile
from .errors import (
    CalibrationError,
    DegenerateSetError,
    ResolutionError,
    SetSpecError,
)
from .tree import BoundarySet, VertexId, prefix_set, _dyadic_resolution

# fixed acceptance rules of the experiments, recorded in their reports
_BLOWUP_RATIO_WINDOW_START = 8  # first level whose step ratio must show doubling
_PLATEAU_VERDICT_TOL = 1e-9  # largest gap from the closed form
_COMPARE_BRACKET = (0.1, 10.0)  # range for every disc/tree ratio
_COMPARE_SPREAD_MAX = 20.0  # largest max/min ratio over the levels
DEFAULT_MAX_RESOLUTION = 30  # deepest t a prefix: spec may give


def rows_to_csv(rows: list[dict]) -> str:
    """One CSV record per row, header from the first row's keys; None becomes empty."""
    out = io.StringIO()
    if rows:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return out.getvalue()


@dataclass
class ExperimentReport:
    """Self-contained result of one experiment run."""

    name: str
    params: dict
    rows: list[dict] = field(repr=False)
    verdict: bool = False
    timing_seconds: float = 0.0

    def to_json_obj(self) -> dict:
        return asdict(self)


def _base_params(**kwargs) -> dict:
    params = {"library_version": __version__}
    params.update(kwargs)
    return params


# ---------------------------------------------------------------------------
# set specification mini-language
# ---------------------------------------------------------------------------


def parse_set_spec(spec: str, tol: float = 1e-9) -> BoundarySet:
    """Build a boundary set from a compact textual description.

    Atoms: ``full``, ``empty``, ``prefix:p/2^q`` (or any dyadic ``p/q``),
    ``shadow:n,j``, ``cap:x`` (prescribed capacity, built to ``tol``),
    ``split:eps,n`` (equal-split carrier), ``file:<path>`` (text or JSON leaf
    serialization); ``union(a, b, ...)`` combines any of these.
    """
    spec = spec.strip()
    if not spec:
        raise SetSpecError("empty set specification")
    if spec == "full":
        return BoundarySet.full()
    if spec == "empty":
        return BoundarySet.empty()
    if spec.startswith("union(") and spec.endswith(")"):
        parts = _split_args(spec[len("union(") : -1])
        if not parts:
            raise SetSpecError(f"union needs at least one operand: {spec!r}")
        out = parse_set_spec(parts[0], tol)
        for part in parts[1:]:
            out = out.union(parse_set_spec(part, tol))
        return out
    if ":" not in spec:
        raise SetSpecError(f"cannot parse set specification {spec!r}")
    kind, _, arg = spec.partition(":")
    try:
        if kind == "prefix":
            return prefix_set(_parse_dyadic(arg))
        if kind == "shadow":
            n, j = (int(x) for x in arg.split(","))
            return BoundarySet.shadow(VertexId(n, j))
        if kind == "cap":
            return set_of_capacity(float(arg), tol)
        if kind == "split":
            eps, n = arg.split(",")
            return equal_split(float(eps), int(n), tol).carrier
        if kind == "file":
            return _load_set_file(arg)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SetSpecError(f"bad set specification {spec!r}: {exc}") from exc
    raise SetSpecError(f"unknown set specification kind {kind!r}")


_ATOM_STARTS = ("full", "empty", "prefix:", "shadow:", "cap:", "split:", "file:", "union(")


def _split_args(body: str) -> list[str]:
    """Split union operands on the commas that start a new atom.

    Atoms like ``shadow:n,j`` contain commas of their own, so a comma only
    separates operands when what follows looks like the start of one.
    """
    parts, depth, cur = [], 0, []
    for pos, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if (
            ch == ","
            and depth == 0
            and body[pos + 1 :].lstrip().startswith(_ATOM_STARTS)
        ):
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_dyadic(text: str) -> Fraction:
    """The t of a ``prefix:`` spec, refused when deeper than ``DEFAULT_MAX_RESOLUTION``."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if den.startswith("2^"):
            p, q = int(num), int(den[2:])
            if p == 0 and q >= 0:
                return Fraction(0)
            # refuse a deep p / 2^q before forming 2^q, which may not fit in
            # memory; 2^v, the largest power of two in p, cancels
            v = (p & -p).bit_length() - 1
            if q - v > DEFAULT_MAX_RESOLUTION:
                raise ResolutionError(
                    f"t = {text} needs resolution {q - v} > maximum "
                    f"{DEFAULT_MAX_RESOLUTION}"
                )
            return Fraction(p, 2**q)
        t = Fraction(int(num), int(den))
    else:
        t = Fraction(text)
    # `prefix_set` refuses a t outside [0, 1] first, and a non-dyadic t with
    # the error `_dyadic_resolution` raises here
    if 0 <= t <= 1 and (q := _dyadic_resolution(t)) > DEFAULT_MAX_RESOLUTION:
        raise ResolutionError(
            f"t = {t} needs resolution {q} > maximum {DEFAULT_MAX_RESOLUTION}"
        )
    return t


def _load_set_file(path: str) -> BoundarySet:
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        return BoundarySet.from_json_obj(json.loads(text))
    return BoundarySet.from_text(text)


def _resolve_set(e, tol: float) -> tuple[BoundarySet, object]:
    """The set and its report record: a spec string as given, else the leaf list."""
    if isinstance(e, BoundarySet):
        return e, e.to_json_obj()
    return parse_set_spec(e, tol), e


def check_n_max(n_max: int) -> None:
    """Refuse a negative top level, which would leave a report without rows."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")


def _disc_levels(e: BoundarySet, n_max: int, grid: SolverGrid) -> dict[int, float]:
    """Disc condenser capacities by cut level n = 1..n_max (none for n_max < 1)."""
    return dict(condenser_profile(e, n_max, grid)) if n_max >= 1 else {}


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def run_blowup(
    e,
    n_max: int,
    threshold: float = 1e3,
    with_disc: bool = False,
    grid: SolverGrid = SolverGrid(),
    tol: float = 1e-9,
) -> ExperimentReport:
    """Growth of the condenser capacity of a fixed positive-capacity set.

    ``e`` is a set or a set specification (built to ``tol``).  Passes when the
    late step ratios sit in [1.5, 2] (the doubling regime) and the values
    clear the threshold.
    """
    t0 = time.perf_counter()
    check_n_max(n_max)
    bset, set_record = _resolve_set(e, tol)
    cap = capacity(bset)
    if cap <= 0.0:
        raise DegenerateSetError("blow-up needs a set of positive capacity")
    disc = _disc_levels(bset, min(n_max, 6), grid) if with_disc else {}

    rows = []
    prev = None
    for n in range(n_max + 1):
        value = condenser_capacity(bset, n)
        ratio = None if prev in (None, 0.0) else value / prev
        rows.append({"n": n, "tree": value, "ratio": ratio, "disc": disc.get(n)})
        prev = value

    window = [
        row["ratio"]
        for row in rows
        if row["n"] >= _BLOWUP_RATIO_WINDOW_START and row["ratio"] is not None
    ]
    doubling = all(1.5 <= ratio <= 2.0 + 1e-12 for ratio in window)
    verdict = doubling and rows[-1]["tree"] > threshold
    return ExperimentReport(
        "blowup",
        _base_params(
            set=set_record,
            n_max=n_max,
            threshold=threshold,
            ratio_window_start=_BLOWUP_RATIO_WINDOW_START,
            with_disc=with_disc,
            capacity=cap,
        ),
        rows,
        verdict,
        time.perf_counter() - t0,
    )


def run_plateau(
    eps: float,
    n_max: int,
    tol: float = 1e-9,
    exact: bool = False,
) -> ExperimentReport:
    """The equal-split family: condenser capacity matches the closed form and
    stays below the ceiling eps / (1 - 2 eps) at every split depth."""
    t0 = time.perf_counter()
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    check_n_max(n_max)
    ceiling = plateau_bound(eps)
    eps_frac = Fraction(eps)
    rows = []
    worst = 0.0
    below = True
    for n in range(n_max + 1):
        family = equal_split(eps, n, tol)
        value = condenser_capacity(family.carrier, n, exact=exact)
        closed = (2**n * eps_frac) / (2**n - (2 ** (n + 1) - 2) * eps_frac)
        diff = abs((value if exact else Fraction(value)) - closed)
        worst = max(worst, float(diff))
        if float(value) > ceiling:
            below = False
        rows.append(
            {
                "n": n,
                "computed": float(value),
                "closed_form": float(closed),
                "difference": float(diff),
                "ceiling": ceiling,
            }
        )
    verdict = worst <= _PLATEAU_VERDICT_TOL and below
    return ExperimentReport(
        "plateau",
        _base_params(
            eps=eps,
            n_max=n_max,
            tol=tol,
            exact=exact,
            verdict_tol=_PLATEAU_VERDICT_TOL,
        ),
        rows,
        verdict,
        time.perf_counter() - t0,
    )


def run_lowerbound(
    eps: float,
    n_max: int,
    samples: int,
    seed: int,
    tol: float = 1e-6,
) -> ExperimentReport:
    """Sampled sharp lower bound: every random set calibrated to capacity
    ``eps`` respects the bound at every level, and the equal-split family
    attains it."""
    t0 = time.perf_counter()
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    check_n_max(n_max)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")

    # calibrate just above eps so the bound at eps is provably respected; the
    # band stays inside eps +- tol
    target = eps + 0.4 * tol
    cal_tol = 0.3 * tol
    sets = []
    attempts = 0
    while len(sets) < samples:
        base = random_boundary_set(seed * 1_000_003 + attempts, max_depth=8)
        attempts += 1
        if base.is_empty() or base.is_full():
            continue  # every leaf base calibrates to set_of_capacity's one set
        try:
            sets.append(calibrated_set(base, target, cal_tol))
        except CalibrationError:
            if attempts - len(sets) > 100 * samples:
                raise

    rows = []
    violations = 0
    attained = True
    for n in range(n_max + 1):
        bound = lower_bound(eps, n)
        worst_margin = math.inf
        for bset in sets:
            margin = condenser_capacity(bset, n) - bound
            worst_margin = min(worst_margin, margin)
            if margin < -tol:
                violations += 1
        family = equal_split(eps, n, 0.1 * tol)
        split_value = condenser_capacity(family.carrier, n)
        split_diff = abs(split_value - bound)
        if split_diff > tol:
            attained = False
        rows.append(
            {
                "n": n,
                "bound": bound,
                "min_margin": worst_margin,
                "violations": violations,
                "split_value": split_value,
                "split_diff": split_diff,
            }
        )
    verdict = violations == 0 and attained
    return ExperimentReport(
        "lowerbound",
        _base_params(
            eps=eps,
            n_max=n_max,
            samples=samples,
            seed=seed,
            tol=tol,
            calibration_attempts=attempts,
        ),
        rows,
        verdict,
        time.perf_counter() - t0,
    )


def run_compare(
    e,
    n_max: int = 6,
    grid: SolverGrid = SolverGrid(),
    tol: float = 1e-9,
) -> ExperimentReport:
    """Tree vs disc condenser capacities: the ratio stays in a fixed bracket.

    ``e`` is a set or a set specification (built to ``tol``).  The ``n = 0``
    row compares the level-independent pair (the disc condenser against
    radius 1/2 versus the plain tree capacity).
    """
    t0 = time.perf_counter()
    check_n_max(n_max)
    bset, set_record = _resolve_set(e, tol)
    if bset.is_empty():
        raise DegenerateSetError("comparison needs a nonempty set")

    # the level-1 condenser radius 1 - 2^-1 equals the normalization radius
    # 1/2, so the n = 1 solve also serves the n = 0 row
    disc = _disc_levels(bset, max(n_max, 1), grid)
    disc[0] = disc[1]
    rows = []
    for n in range(n_max + 1):
        tree_value = condenser_capacity(bset, n)
        rows.append(
            {
                "n": n,
                "tree": tree_value,
                "disc": disc[n],
                "ratio": disc[n] / tree_value,
            }
        )

    ratios = [row["ratio"] for row in rows]
    level_ratios = ratios[1:] or ratios
    spread = max(level_ratios) / min(level_ratios)
    low, high = _COMPARE_BRACKET
    verdict = (
        all(low <= ratio <= high for ratio in ratios)
        and spread <= _COMPARE_SPREAD_MAX
    )
    return ExperimentReport(
        "compare",
        _base_params(
            set=set_record,
            n_max=n_max,
            bracket=list(_COMPARE_BRACKET),
            spread_max=_COMPARE_SPREAD_MAX,
            spread=spread,
            grid_angular=grid.n_angular,
            grid_radial=grid.n_radial,
        ),
        rows,
        verdict,
        time.perf_counter() - t0,
    )


def run_conjecture(
    deltas: list[float],
    n_max: int,
    with_disc: bool = False,
    grid: SolverGrid = SolverGrid(),
) -> ExperimentReport:
    """Exploratory chart of the sharp bound against its gap-form rescaling.

    The two closed forms must agree to 1e-12 (that is the verdict); the knee of
    the curve sits where the cut scale reaches the gap.  Disc values, when
    requested, are attached for small levels only and carry no pass/fail.
    """
    t0 = time.perf_counter()
    check_n_max(n_max)
    if not deltas:
        raise ValueError("need at least one delta")
    rows = []
    agree = True
    for delta in deltas:
        if not 0.0 < delta < 0.5:
            raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
        knee = math.log2(1.0 / delta)
        disc = {}
        if with_disc:
            disc_set = set_of_capacity(0.5 - delta, 1e-9)
            disc = _disc_levels(disc_set, min(n_max, 6), grid)
        for n in range(n_max + 1):
            bound = lower_bound(0.5 - delta, n)
            gap_form = lower_bound_gap_form(delta, n)
            diff = abs(bound - gap_form)
            if diff > 1e-12:
                agree = False
            rows.append(
                {
                    "delta": delta,
                    "n": n,
                    "bound": bound,
                    "gap_form": gap_form,
                    "difference": diff,
                    "knee": knee,
                    "disc": disc.get(n),
                }
            )
    return ExperimentReport(
        "conjecture",
        _base_params(deltas=list(deltas), n_max=n_max, with_disc=with_disc),
        rows,
        agree,
        time.perf_counter() - t0,
    )
