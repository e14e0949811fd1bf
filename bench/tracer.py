"""Outside-in tracing of idealkit's layer modules.

The tracer replaces public functions of each layer module with timing
wrappers while it is installed, and restores them afterwards; the program
itself is not edited.  The layer modules call each other through module
attributes (``monomial.product(...)``), so a wrapper installed on the module
also sees calls made from inside the package.

Each wrapper keeps a call stack: a span's self time is its duration minus the
durations of the wrapped calls made inside it, and its inclusive time is
counted only at the outermost activation, so recursion is not counted twice.
"""

import time
from collections import defaultdict

from idealkit import binomfit, bounds, groebner, instances, invariants, monomial, semigroup

LAYER_MODULES = (monomial, semigroup, groebner, binomfit, invariants, bounds)

# Leaf helpers called hundreds of times per instance whose wrappers would cost
# more than the work they time; their time lands in their caller's self time.
UNWRAPPED = {
    "binomfit.binom", "binomfit.eval_binomial",
    "invariants.colength_of", "invariants.nu_of", "invariants.product_of",
    "invariants.power_of", "invariants.order_of", "invariants.contains_of",
    "invariants.equals_of", "invariants.to_groebner",
}

# Invariants whose (ctx, ideal) arguments are recorded, to show how often a
# battery asks for the same invariant again.
KEYED = ("invariants.hilbert_coeffs", "invariants.fiber_coeffs",
         "invariants.normal_coeffs")


def _ideal_key(ideal):
    if isinstance(ideal, groebner.GroebnerIdeal):
        return (ideal.ring.nvars, ideal.ring.char_p,
                tuple(tuple(sorted(g.items())) for g in ideal.gens))
    return ideal


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "failed", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.failed = 0
        self.active = 0


class Tracer:
    """Per-function call counts and self/inclusive times, plus a few counters."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counters = defaultdict(int)
        self._stack = []
        self._seen = defaultdict(set)
        self._originals = []
        self._targets = [(mod, name, fn) for mod in LAYER_MODULES
                         for name, fn in _public_functions(mod)
                         if f"{_short(mod)}.{name}" not in UNWRAPPED]

    def install(self):
        for mod, name, fn in self._targets:
            self._patch(mod, name, self._wrap(f"{_short(mod)}.{name}", fn))
        self._patch(instances, "run_battery",
                    self._wrap("instances.run_battery", instances.run_battery,
                               before=self.flush))
        self._patch(instances, "_retry_unresolved",
                    self._counting_retry(instances._retry_unresolved))

    def uninstall(self):
        while self._originals:
            mod, name, fn = self._originals.pop()
            setattr(mod, name, fn)

    def _patch(self, mod, name, replacement):
        self._originals.append((mod, name, getattr(mod, name)))
        setattr(mod, name, replacement)

    def flush(self):
        """Fold the distinct-argument sets of the last battery into the counters."""
        for key in KEYED:
            self.counters[key + ".distinct"] += len(self._seen[key])
        self._seen.clear()

    def _wrap(self, name, fn, before=None):
        stat = self.stats[name]
        stack = self._stack
        keyed = name in KEYED
        seen = self._seen
        clock = time.perf_counter
        after = _AFTER.get(name)
        counters = self.counters

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            if keyed:
                seen[name].add((args[0], _ideal_key(args[1])))
            stat.calls += 1
            stat.active += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.failed += 1
                raise
            finally:
                elapsed = clock() - start
                stat.self_s += elapsed - stack.pop()
                stat.active -= 1
                if not stat.active:
                    stat.incl_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(counters, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_retry(self, fn):
        counters = self.counters

        def retry(report, rerun):
            def counted(char_p):
                counters["instances.unresolved_retries"] += 1
                return rerun(char_p)
            return fn(report, counted)

        return retry

    def module_self_s(self, module_name):
        prefix = module_name + "."
        return sum(s.self_s for name, s in self.stats.items() if name.startswith(prefix))


def _samples_tried(counters, report):
    counters["invariants.minimal_reduction.samples_tried"] += report.samples_tried


_AFTER = {"invariants.minimal_reduction": _samples_tried}


def _short(mod):
    return mod.__name__.rsplit(".", 1)[-1]


def _public_functions(mod):
    for name, obj in sorted(vars(mod).items()):
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__):
            yield name, obj
