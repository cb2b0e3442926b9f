"""Outside-in per-layer trace of ``bistab``.

Every entry point is wrapped at the name its caller looks up, because the
modules import functions into their own namespaces: ``criteria`` calls its
own ``bounds``, ``dynamics`` its own ``solve_ivp`` and ``gbar_eval``, and so
on.  A wrapper records calls, inclusive time (outermost call of that name
only, so recursion is not counted twice) and self time (inclusive time minus
the time of wrapped calls made inside it).  Counters are kept at the same
boundaries.  Nothing in ``bistab`` is edited; ``uninstall`` restores every
name.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# the model functions dynamics calls on every right-hand-side evaluation
MODEL_FUNCS = ("gbar_eval", "gbar_deriv", "mg_minus", "mg_plus", "mg_minus_deriv", "mg_plus_deriv")

# layers whose inclusive share decides the "top layer"; none of them nests in another
TOP_LAYER_CANDIDATES = (
    "relaxation.hausdorff", "relaxation.gamma_curve", "dynamics.solve_ivp",
    "signals.bounds", "signals.weighted_bounds",
)


class _Layer:
    __slots__ = ("calls", "incl", "self_s", "depth", "by_tag")

    def __init__(self):
        self.zero()

    def zero(self) -> None:
        self.calls, self.incl, self.self_s, self.depth, self.by_tag = 0, 0.0, 0.0, 0, {}


class Tracer:
    def __init__(self):
        self._undo = []
        self._frames = []  # child-time accumulator of each open span
        self.layers: dict[str, _Layer] = {}
        self.reset()

    def reset(self) -> None:
        """Zero every counter; the wrappers stay installed."""
        for layer in self.layers.values():
            layer.zero()
        self.counts = Counter()  # event counters, plus "<tag>|<event>" per item tag
        self.tag = "all"

    @property
    def calls(self) -> Counter:
        return Counter({name: layer.calls for name, layer in self.layers.items()})

    @property
    def incl(self) -> Counter:
        return Counter({name: layer.incl for name, layer in self.layers.items()})

    @property
    def self_s(self) -> Counter:
        return Counter({name: layer.self_s for name, layer in self.layers.items()})

    @property
    def tag_s(self) -> dict[str, float]:
        """Inclusive layer time per "<tag>|<layer>"."""
        return {f"{tag}|{name}": s for name, layer in self.layers.items() for tag, s in layer.by_tag.items()}

    def count(self, event: str, n: int = 1) -> None:
        self.counts[event] += n
        self.counts[f"{self.tag}|{event}"] += n

    def inside(self, layer: str) -> bool:
        return self.layers[layer].depth > 0

    def wrap(self, owner, attr: str, layer: str, before=None, after=None, group: str | None = None) -> None:
        """Replace owner.attr by a timed wrapper.  ``group`` names a second,
        coarser layer that several entry points share (its time counts the
        outermost span only)."""
        fn = getattr(owner, attr)
        tracer, frames = self, self._frames
        spans = [self.layers.setdefault(name, _Layer()) for name in ((layer, group) if group else (layer,))]
        stat = spans[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            outer = [span for span in spans if span.depth == 0]
            for span in spans:
                span.depth += 1
            frames.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                frames.pop()
                for span in spans:
                    span.depth -= 1
                for span in outer:
                    span.incl += dt
                    span.by_tag[tracer.tag] = span.by_tag.get(tracer.tag, 0.0) + dt
                stat.calls += 1
                stat.self_s += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


def install() -> Tracer:
    """Wrap the entry points of every ``bistab`` layer and return the tracer."""
    from bistab import cli, criteria, dynamics, relaxation, signals

    t = Tracer()
    w = t.wrap
    # signals: module-level lookups also catch calls made inside signals itself
    w(signals, "eval", "signals.eval")
    w(signals, "bounds", "signals.bounds")
    w(criteria, "bounds", "signals.bounds")
    w(signals, "weighted_bounds", "signals.weighted_bounds")
    w(criteria, "weighted_bounds", "signals.weighted_bounds")
    w(signals, "signal_from_json", "signals.from_json")
    # model, as dynamics looks it up
    for name in MODEL_FUNCS:
        w(dynamics, name, "model")
    # dynamics
    w(dynamics.OdeSpec, "rhs", "dynamics.rhs")
    w(dynamics.OdeSpec, "rhs_state_deriv", "dynamics.rhs_state_deriv")
    w(dynamics, "solve_ivp", "dynamics.solve_ivp", after=lambda a, k, sol: t.count("nfev", sol.nfev))

    def scan(args, kwargs):
        t.count("scan.seeds", args[2] if len(args) > 2 else kwargs["n"])
        if t.inside("dynamics.stable_scan"):
            t.count("scan.in_stable")

    # the census: a full one with refinement, or a count-only scan (bisection
    # predicates, and relaxation reaching into _brackets from outside)
    w(dynamics, "_brackets", "dynamics.scan", before=scan, group="dynamics.census")
    w(dynamics, "_stable_brackets", "dynamics.stable_scan")
    w(dynamics, "_refine_fixed_point", "dynamics.refine")

    def map_call(args, kwargs):
        if t.inside("dynamics.refine"):
            t.count("refine.map_calls")

    w(dynamics, "poincare_map_log", "dynamics.poincare_map", before=map_call)

    def dyn_brentq(args, kwargs):
        if t.inside("dynamics.refine"):
            t.count("refine.brentq_fallbacks")

    w(dynamics, "brentq", "dynamics.brentq", before=dyn_brentq)
    w(dynamics, "find_periodic_solutions", "dynamics.find_periodic_solutions",
      after=lambda a, k, sols: t.count("fixed_points", len(sols)), group="dynamics.census")
    w(dynamics, "count_separated_solutions", "dynamics.predicate")
    w(relaxation, "_census_count", "dynamics.predicate")
    # relaxation
    w(relaxation, "hausdorff_distance", "relaxation.hausdorff")
    w(relaxation, "gamma_curve", "relaxation.gamma_curve")
    w(relaxation, "brentq", "relaxation.brentq")
    w(dynamics, "integrate", "relaxation.loop_integrate")  # only run_analysis integrates a loop
    # criteria and cli
    w(criteria, "classify", "criteria.classify",
      after=lambda a, k, cert: t.count("decided", cert.regime != "indeterminate"))
    w(cli, "main", "cli.main")
    return t


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(t: Tracer, wall: float, tag_wall: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).  ``wall`` is the
    traced time of the pass and ``tag_wall`` its split by item tag."""
    calls, incl, self_s, counts = t.calls, t.incl, t.self_s, t.counts
    share = lambda seconds: 100.0 * _ratio(seconds, wall)
    fallbacks = counts["refine.brentq_fallbacks"]
    out = {
        "relaxation.hausdorff.calls": (calls["relaxation.hausdorff"], "count"),
        "relaxation.hausdorff.share": (share(incl["relaxation.hausdorff"]), "%"),
        "relaxation.gamma_curve.share": (share(incl["relaxation.gamma_curve"]), "%"),
        "relaxation.gamma_curve.brentq_calls": (calls["relaxation.brentq"], "count"),
        "relaxation.loop_integrate.share": (share(incl["relaxation.loop_integrate"]), "%"),
        "dynamics.scan.calls": (calls["dynamics.scan"], "count"),
        "dynamics.scan.seeds": (counts["scan.seeds"], "count"),
        "dynamics.scan.doublings": (counts["scan.in_stable"] - calls["dynamics.stable_scan"], "count"),
        "dynamics.bisect.predicate_calls": (calls["dynamics.predicate"], "count"),
        "dynamics.refine.calls": (calls["dynamics.refine"], "count"),
        "dynamics.refine.map_calls": (counts["refine.map_calls"], "count"),
        "dynamics.refine.map_calls_per_fixed_point": (_ratio(counts["refine.map_calls"], calls["dynamics.refine"]), "ratio"),
        "dynamics.refine.brentq_fallbacks": (fallbacks, "count"),
        "dynamics.census.share": (share(incl["dynamics.census"]), "%"),
        "dynamics.census.useful_ratio": (_ratio(counts["fixed_points"], calls["dynamics.refine"]), "ratio"),
        "dynamics.solve_ivp.calls": (calls["dynamics.solve_ivp"], "count"),
        "dynamics.solve_ivp.nfev": (counts["nfev"], "count"),
        "dynamics.solve_ivp.steps_computed": ((counts["nfev"] - 2 * calls["dynamics.solve_ivp"]) / 6.0, "count"),
        "dynamics.solve_ivp.share": (share(incl["dynamics.solve_ivp"]), "%"),
        "dynamics.rhs.calls": (calls["dynamics.rhs"], "count"),
        "dynamics.rhs.share": (share(incl["dynamics.rhs"]), "%"),
        "dynamics.rhs.self_share": (share(self_s["dynamics.rhs"]), "%"),
        "dynamics.rhs_state_deriv.calls": (calls["dynamics.rhs_state_deriv"], "count"),
        "model.calls": (calls["model"], "count"),
        "model.share": (share(incl["model"]), "%"),
        "signals.eval.calls": (calls["signals.eval"], "count"),
        "signals.eval.us_per_call": (1e6 * _ratio(incl["signals.eval"], calls["signals.eval"]), "us"),
        "signals.eval.share": (share(incl["signals.eval"]), "%"),
        "signals.bounds.calls": (calls["signals.bounds"], "count"),
        "signals.bounds.s": (incl["signals.bounds"], "s"),
        "signals.bounds.share": (share(incl["signals.bounds"]), "%"),
        "signals.weighted_bounds.calls": (calls["signals.weighted_bounds"], "count"),
        "signals.weighted_bounds.share": (share(incl["signals.weighted_bounds"]), "%"),
        "signals.from_json.calls": (calls["signals.from_json"], "count"),
        "signals.from_json.share": (share(incl["signals.from_json"]), "%"),
        "criteria.classify.calls": (calls["criteria.classify"], "count"),
        "criteria.classify.self_share": (share(self_s["criteria.classify"]), "%"),
        "criteria.decided_ratio": (_ratio(counts["decided"], calls["criteria.classify"]), "ratio"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.self_share": (share(self_s["cli.main"]), "%"),
    }
    for tag in ("trig", "trig-indep", "cesaro", "sampled"):
        out[f"bytype.{tag}.share"] = (share(tag_wall.get(tag, 0.0)), "%")
        out[f"bytype.{tag}.brentq_fallbacks"] = (counts[f"{tag}|refine.brentq_fallbacks"], "count")
    return out
