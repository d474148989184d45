"""Span store for the traced run, and the per-layer metrics read from it.

Tracing wraps the library's public functions at every module attribute that
holds them, such as ``riccati_place.optimize.solve_dual``,
``riccati_place.dual.certify_stability`` and
``riccati_place.riccati.solve_sylvester``.  A call from any module therefore
goes through the wrapper, and the library itself is not edited.  Device-family methods are wrapped on the ``GaussianActuators``
class.  Each wrapper records one span (name, start, end, parent span, unit
id) and, where the returned record carries one, a count.  Spans stay in
memory and are written out when the run ends.
"""

import functools
import json
from time import perf_counter_ns

import riccati_place as rp
from riccati_place import cli, devices, dual, linalg, optimize, riccati, semigroup

MODULES = (rp, cli, devices, dual, linalg, optimize, riccati, semigroup)

CERT = "semigroup.certify_stability"
SYLVESTER = "linalg.solve_sylvester"
QUADRATURE = "linalg.bochner_quadrature"
ARE = "riccati.solve_are"
VERIFY_ARE = "riccati.verify_are"
DUAL = "dual.solve_dual"
STATE_PAIR = "optimize.solve_state_pair"
SOLVE = "optimize.solve_p2"
LEDGER = "devices.estimate_constants"
FAMILY = "devices.family."
CLI = "cli.main"


def _are_counts(args, kwargs, sol):
    # solve_are(A, G, Q, tol, cert, keep_history, X0): warm when X0 is given
    x0 = kwargs.get("X0", args[6] if len(args) > 6 else None)
    return {"newton_steps": sol.newton_iters, "warm": int(x0 is not None)}


# (module, function, count reader); the span is named "<layer>.<function>"
FUNCTIONS = (
    (semigroup, "certify_stability", None),
    (linalg, "solve_sylvester", lambda args, kwargs, T: {"n3": T.shape[0] ** 3}),
    (linalg, "bochner_quadrature", None),
    (riccati, "solve_are", _are_counts),
    (riccati, "verify_are", None),
    (dual, "solve_dual", None),
    (optimize, "solve_state_pair", None),
    (optimize, "solve_p2", lambda args, kwargs, t: {"iterations": t.iterations}),
    (optimize, "beta_sweep", None),
    (optimize, "lipschitz_bound_check", None),
    (devices, "estimate_constants", None),
    (cli, "main", None),
)
FAMILY_METHODS = ("G", "dG", "d2G", "trace_G", "dG_adjoint", "gram")


class Tracer:
    """Holds the spans of one run; ``install``/``uninstall`` toggle tracing."""

    def __init__(self):
        # span: [name, start_ns, end_ns, parent index or -1, unit, counts]
        self.spans = []
        self.unit = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.unit, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result
        return traced

    def install(self):
        for module, fname, count in FUNCTIONS:
            original = getattr(module, fname)
            wrapper = self._wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{fname}",
                                 original, count)
            for m in MODULES:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, value, True))
                        setattr(m, attr, wrapper)
        cls = devices.GaussianActuators
        for meth in FAMILY_METHODS:
            own = meth in vars(cls)
            original = getattr(cls, meth)
            self._restore.append((cls, meth, original, own))
            setattr(cls, meth, self._wrap(FAMILY + meth, original, None))

    def uninstall(self):
        for owner, attr, value, own in reversed(self._restore):
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def unit_metrics(self, unit):
        """Per-layer metrics of one traced unit (counts, seconds, ratios)."""
        index = {i: s for i, s in enumerate(self.spans) if s[4] == unit}
        child_ns = dict.fromkeys(index, 0)
        for s in index.values():
            if s[3] in child_ns:
                child_ns[s[3]] += s[2] - s[1]

        def spans(pred):
            return [(i, s) for i, s in index.items() if pred(s[0])]

        def total_s(found):
            return sum(s[2] - s[1] for _, s in found) * 1e-9

        def self_s(found):
            return sum(s[2] - s[1] - child_ns[i] for i, s in found) * 1e-9

        def count(found, key):  # a call that raised recorded no count
            return sum(s[5][key] for _, s in found if s[5] is not None)

        parent_name = {i: index[s[3]][0] if s[3] in index else None
                       for i, s in index.items()}
        certs = spans(lambda n: n == CERT)
        closed = [(i, s) for i, s in certs if parent_name[i] == DUAL]
        duals = spans(lambda n: n == DUAL)
        syl = spans(lambda n: n == SYLVESTER)
        quad = spans(lambda n: n == QUADRATURE)
        ares = spans(lambda n: n == ARE)
        pairs = spans(lambda n: n == STATE_PAIR)
        solves = spans(lambda n: n == SOLVE)
        ledger = spans(lambda n: n == LEDGER)
        family = spans(lambda n: n.startswith(FAMILY))
        family_top = [(i, s) for i, s in family
                      if not (parent_name[i] or "").startswith(FAMILY)]
        clis = spans(lambda n: n == CLI)
        newton = count(ares, "newton_steps")
        n3 = count(syl, "n3")
        return {
            "semigroup.cert_calls": len(certs),
            "semigroup.cert_s": total_s(certs),
            "semigroup.cert_closed_loop_calls": len(closed),
            "semigroup.cert_closed_loop_s": total_s(closed),
            "dual.calls": len(duals),
            "dual.s": total_s(duals),
            "dual.self_s": self_s(duals),
            "linalg.sylvester_calls": len(syl),
            "linalg.sylvester_s": total_s(syl),
            "linalg.sylvester_ns_per_n3": total_s(syl) * 1e9 / n3 if n3 else 0.0,
            "linalg.quadrature_calls": len(quad),
            "linalg.quadrature_s": total_s(quad),
            "riccati.are_calls": len(ares),
            "riccati.are_warm_calls": count(ares, "warm"),
            "riccati.are_s": total_s(ares),
            "riccati.newton_steps": newton,
            "riccati.s_per_newton_step": total_s(ares) / newton if newton else 0.0,
            "riccati.verify_s": total_s(spans(lambda n: n == VERIFY_ARE)),
            "optimize.state_pairs": len(pairs),
            "optimize.state_pair_s": total_s(pairs),
            "optimize.self_s": self_s(spans(lambda n: n.startswith("optimize."))),
            "optimize.pairs_per_solve": len(pairs) / len(solves) if solves else 0.0,
            "optimize.iterations": count(solves, "iterations"),
            "devices.ledger_s": total_s(ledger),
            "devices.ledger_self_s": self_s(ledger),
            "devices.family_calls": len(family),
            "devices.family_s": total_s(family_top),
            "cli.s": total_s(clis),
            "cli.self_s": self_s(clis),
        }

    def write(self, path):
        keys = ("name", "start_ns", "end_ns", "parent", "unit", "counts")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

