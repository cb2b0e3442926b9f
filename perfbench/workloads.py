"""The four seeded workloads and their correctness gates.

Each workload turns a seed into a fixed list of items.  An item is one call a
user would make: a ``bistab`` CLI command run in-process, or one public API
call.  ``run`` is timed; ``check`` runs after the timed region and returns
``None`` or a description of what is wrong.  Checks use only the formulas in
``oracle`` and invariants of the output, never recorded reference values, so
they hold for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from bistab import cli, criteria, dynamics, signals

import oracle

C_SWEEP = 5.0
SANDWICH_SLOP = 1e-4  # bisection tol 1e-5 plus the grid error of the range scan
# |x(T) - x(0)| of a reported fixed point under the reference solve.  The
# package integrates with RK45 at rtol 1e-8 straight across the kinks of a
# sampled (piecewise-linear) input, so its fixed points of such inputs are
# off by ~1e-6; smooth inputs give ~1e-8.  The measured gap is reported.
CLOSURE_TOL = 1e-5
RANGE_SLOP = 1e-6  # recovered inf/sup vs. a dense grid (scanned bounds are refined to 1e-10)


@dataclass
class Item:
    tag: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    notes: dict = field(default_factory=dict)  # figures a check measured, for the report


def run_cli(argv: list[str]) -> str:
    """One ``bistab`` command in this process; returns what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"bistab {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def cli_rows(text: str) -> list[dict]:
    return json.loads(text)["result"]


# --- seeded signal documents -------------------------------------------------

def trig_doc(rng: random.Random, ratios: list[float], amp: tuple[float, float], base: float = 1.0,
             independent: bool = False) -> dict:
    """Frequencies base * ratios; with ratios[0] = 1 and integer ratios the
    period is 2*pi/base."""
    terms = [[rng.choice((-1.0, 1.0)) * rng.uniform(*amp), base * q, rng.uniform(0.0, 2.0 * math.pi)]
             for q in ratios]
    return {"type": "trig", "a0": rng.uniform(-0.01, 0.01), "terms": terms,
            "rationally_independent": independent}


def cesaro_doc(rng: random.Random, amp: float, n_terms: int) -> dict:
    return {"type": "fourier_cesaro", "a0": rng.uniform(-0.01, 0.01),
            "a": [rng.uniform(-amp, amp) for _ in range(2)],
            "b": [rng.uniform(-amp, amp)], "n_terms": n_terms}


def sampled_doc(rng: random.Random, period: float, n: int, amp: float) -> dict:
    phase = rng.uniform(0.0, 2.0 * math.pi)
    samples = [[period * k / n, amp * math.sin(2.0 * math.pi * k / n + phase) + rng.uniform(-0.1, 0.1) * amp]
               for k in range(n)]
    return {"type": "sampled", "period": period, "samples": samples}


def period_of(doc: dict) -> float:
    if doc["type"] == "sampled":
        return float(doc["period"])
    if doc["type"] == "trig":
        return 2.0 * math.pi / min(th for _, th, _ in doc["terms"])
    return 2.0 * math.pi


# --- relax-sweep ---------------------------------------------------------------

def relax_sweep(rng: random.Random, workdir: str) -> list[Item]:
    """One ``bistab sweep --c 5 --jobs 1`` over a 2 x 2 (eps, r) grid.  r
    straddles r*(eps) (about 1.35 at eps 0.02 and 1.44 at eps 0.05)."""
    u = rng.random()  # the rows move in opposite directions, so the grid's cost stays level
    eps_values = [0.020 + 0.006 * u, 0.050 - 0.008 * u]
    r_values = [rng.uniform(1.10, 1.20), rng.uniform(1.60, 1.70)]
    argv = ["sweep", "--c", repr(C_SWEEP), "--eps", ",".join(map(repr, eps_values)),
            "--r", ",".join(map(repr, r_values)), "--jobs", "1", "--format", "json"]
    return [Item("sweep", lambda: run_cli(argv), lambda out: _check_sweep(out, eps_values, r_values))]


def _check_sweep(text: str, eps_values: list[float], r_values: list[float]) -> str | None:
    rows = cli_rows(text)
    if [(row["eps"], row["r"]) for row in rows] != [(eps, r) for eps in eps_values for r in r_values]:
        return "sweep rows do not match the requested grid"
    for k in range(0, len(rows), len(r_values)):
        problem = _check_sweep_row(rows[k : k + len(r_values)])
        if problem is not None:
            return problem
    return None


def _check_sweep_row(rows: list[dict]) -> str | None:
    eps = rows[0]["eps"]
    regimes = []
    for row in rows:
        want = {"relaxation": 1, "bistable": 3}.get(row["regime"])
        if want is None or row["n_fixed_points"] != want:
            return f"r={row['r']}: regime {row['regime']} with {row['n_fixed_points']} solutions"
        if not (row["area"] > 0.0 and math.isfinite(row["area"])):
            return f"r={row['r']}: loop area {row['area']}"
        if not (row["hausdorff"] > 0.0 and math.isfinite(row["hausdorff"])):
            return f"r={row['r']}: Hausdorff distance {row['hausdorff']}"
        regimes.append(row["regime"])
    flips = sum(a != b for a, b in zip(regimes, regimes[1:]))
    if regimes[0] != "relaxation" or regimes[-1] != "bistable" or flips != 1:
        return f"regimes along the eps={eps} row are {regimes}, expected one flip"
    return None


# --- fold-bisect ---------------------------------------------------------------

def fold_bisect(rng: random.Random, workdir: str) -> list[Item]:
    """``bistab threshold`` over two eps values, then ``estimate_lambda_pm`` at
    c in {5, 8} for constant, one-term trig and Cesaro inputs."""
    u = rng.random()  # opposite moves keep the total integration length level
    eps_values = [0.040 + 0.010 * u, 0.032 - 0.007 * u]
    argv = ["threshold", "--c", repr(C_SWEEP), "--eps", ",".join(map(repr, eps_values)), "--tol", "1e-3"]
    items = [Item("threshold", lambda: run_cli(argv), lambda out: _check_threshold(out, eps_values))]
    for c in (5.0, 8.0):
        docs = [
            {"type": "constant", "a0": rng.uniform(-0.05, 0.05)},
            trig_doc(rng, [1.0], (0.02, 0.05), base=rng.uniform(0.97, 1.03)),
            cesaro_doc(rng, 0.02, 6),
        ]
        for doc in docs:
            signal = signals.signal_from_json(doc)
            items.append(Item(
                "lambda_pm",
                lambda c=c, signal=signal: dynamics.estimate_lambda_pm(c, signal),
                lambda out, c=c, doc=doc: _check_lambda_pm(out, c, doc),
            ))
    return items


def _check_threshold(text: str, eps_values: list[float]) -> str | None:
    rows = cli_rows(text)
    if [row["eps"] for row in rows] != eps_values:
        return "threshold rows do not match the requested eps values"
    for row in rows:
        if (row["regime_below"], row["regime_above"]) != ("relaxation", "bistable"):
            return f"eps={row['eps']}: regimes {row['regime_below']} / {row['regime_above']}"
        if not 0.5 < row["r_threshold"] < 2.0:
            return f"eps={row['eps']}: r threshold {row['r_threshold']} outside the bracket"
    return None


def _check_lambda_pm(out, c: float, doc: dict) -> str | None:
    lam_minus, lam_plus, _ = out
    lam1, lam2 = oracle.fold_values(c)
    if doc["type"] == "constant":
        a0 = doc["a0"]
        if abs(lam_minus - (lam1 - a0)) > 1e-4 or abs(lam_plus - (lam2 - a0)) > 1e-4:
            return f"c={c}: ({lam_minus}, {lam_plus}) vs fold values shifted by {a0}"
        return None
    inf_y, sup_y = oracle.grid_range(doc)
    for name, lam, fold in (("lambda-", lam_minus, lam1), ("lambda+", lam_plus, lam2)):
        if not fold - sup_y - SANDWICH_SLOP <= lam <= fold - inf_y + SANDWICH_SLOP:
            return f"c={c}: {name} = {lam} outside [{fold - sup_y}, {fold - inf_y}]"
    return None


# --- census --------------------------------------------------------------------

def census(rng: random.Random, workdir: str) -> list[Item]:
    """``bistab poincare --c 5`` at lambda inside [lam1, lam2] for
    commensurate trig, Cesaro and sampled forcing."""
    lam1, lam2 = oracle.fold_values(C_SWEEP)
    # with 16 nodes nearly every sampled fixed point exhausts the contraction and
    # falls back to brentq; with 12 or fewer, how many do (and so the item's
    # cost) swings much more from seed to seed
    docs = [trig_doc(rng, [1.0, 2.0], (0.010, 0.025)) for _ in range(3)]
    docs += [cesaro_doc(rng, 0.02, rng.randint(4, 8)) for _ in range(3)]
    docs += [sampled_doc(rng, 2.0 * math.pi, 16, rng.uniform(0.02, 0.03)) for _ in range(2)]
    items = []
    for i, doc in enumerate(docs):
        signals.signal_from_json(doc)  # reject a bad document at set-up, as the CLI would
        path = os.path.join(workdir, f"census_{i}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        lam = lam1 + rng.uniform(0.35, 0.65) * (lam2 - lam1)
        argv = ["poincare", "--c", repr(C_SWEEP), "--lambda", repr(lam), "--signal", path]
        tag = {"trig": "trig", "fourier_cesaro": "cesaro", "sampled": "sampled"}[doc["type"]]
        notes = {}
        items.append(Item(tag, lambda argv=argv: run_cli(argv),
                          lambda out, lam=lam, doc=doc, notes=notes: _check_census(out, lam, doc, notes), notes))
    return items


def _check_census(text: str, lam: float, doc: dict, notes: dict) -> str | None:
    rows = cli_rows(text)
    T = period_of(doc)
    kinds = [row["kind"] for row in rows]
    if len(rows) % 2 != 1 or kinds != ["attractive", "repulsive"] * (len(rows) // 2) + ["attractive"]:
        return f"fixed-point kinds {kinds} do not alternate A/R/.../A"
    if [row["fixed_point"] for row in rows] != sorted(row["fixed_point"] for row in rows):
        return "fixed points are not in increasing order"
    for row in rows:
        attractive = row["kind"] == "attractive"
        if (row["log_multiplier"] < 0.0) != attractive or row["log_multiplier"] == 0.0:
            return f"x0={row['fixed_point']}: log multiplier {row['log_multiplier']} vs kind {row['kind']}"
        if abs(row["period"] - T) > 1e-9 * T:
            return f"period {row['period']} != {T}"
        gap = oracle.closure_gap(C_SWEEP, lam, doc, T, row["fixed_point"], attractive)
        notes["closure_gap"] = max(gap, notes.get("closure_gap", 0.0))
        if not gap <= CLOSURE_TOL:
            return f"x0={row['fixed_point']}: |x(T) - x(0)| = {gap:.3g} under the reference solve"
    return None


# --- certify -------------------------------------------------------------------

CERTIFY_BATCH = 1200
CERTIFY_MIX = ("trig", "trig-indep", "cesaro", "sampled")


def certify(rng: random.Random, workdir: str) -> list[Item]:
    """``criteria.classify`` at c = 5 over a batch of (lambda, signal) pairs,
    one signal per pair, lambda in [lam1 - 0.2, lam2 + 0.2]."""
    lam1, lam2 = oracle.fold_values(C_SWEEP)
    # lambda is stratified per signal type: which rule decides, and so the
    # cost of a certificate, depends on where lambda falls, and independent
    # draws would move the batch's share of slow certificates from seed to seed
    per_type = CERTIFY_BATCH // len(CERTIFY_MIX)
    strata = {tag: rng.sample(range(per_type), per_type) for tag in CERTIFY_MIX}
    items = []
    for i in range(CERTIFY_BATCH):
        tag = CERTIFY_MIX[i % len(CERTIFY_MIX)]
        stratum = strata[tag][i // len(CERTIFY_MIX)]
        if tag == "trig":
            ratios = [1.0] + rng.sample([2.0, 3.0, 4.0], rng.randint(1, 2))
            doc = trig_doc(rng, ratios, (0.005, 0.04), base=rng.uniform(0.5, 2.0))
        elif tag == "trig-indep":
            ratios = [1.0, math.sqrt(2.0), math.sqrt(5.0)][: rng.randint(2, 3)]
            doc = trig_doc(rng, ratios, (0.005, 0.04), base=rng.uniform(0.5, 2.0), independent=True)
        elif tag == "cesaro":
            doc = cesaro_doc(rng, 0.03, rng.randint(4, 10))
        else:
            doc = sampled_doc(rng, rng.uniform(2.0, 8.0), rng.randint(6, 16), rng.uniform(0.02, 0.05))
        signal = signals.signal_from_json(doc)
        lam = lam1 - 0.2 + (stratum + rng.random()) / per_type * (lam2 - lam1 + 0.4)
        items.append(Item(tag, lambda lam=lam, signal=signal: criteria.classify(C_SWEEP, lam, signal),
                          lambda out, lam=lam, doc=doc: _check_certificate(out, lam, doc)))
    return items


def _check_certificate(cert, lam: float, doc: dict) -> str | None:
    if cert.regime not in ("uniform-stability", "bistability", "indeterminate"):
        return f"unknown regime {cert.regime!r}"
    lam1, lam2 = oracle.fold_values(C_SWEEP)
    grid_inf, grid_sup = oracle.grid_range(doc)
    # remark 3.3 slacks: lam1 - (lam + sup y) and (lam + inf y) - lam2
    recovered = [(cert.slacks["range_above_lam2"] + lam2 - lam, lam1 - lam - cert.slacks["range_below_lam1"])]
    if cert.intervals and cert.intervals[0].basis == criteria.RULE_INTERVAL_I1:
        # thm 3.2 interval (lam1 - inf y, lam2 - sup y)
        recovered.append((lam1 - cert.intervals[0].lower, lam2 - cert.intervals[0].upper))
    for inf_y, sup_y in recovered:
        if not (inf_y <= grid_inf + RANGE_SLOP and grid_sup <= sup_y + RANGE_SLOP):
            return f"[{inf_y}, {sup_y}] does not enclose the sampled range [{grid_inf}, {grid_sup}]"
    return None


WORKLOADS: dict[str, Callable[[random.Random, str], list[Item]]] = {
    "relax-sweep": relax_sweep,
    "fold-bisect": fold_bisect,
    "census": census,
    "certify": certify,
}
