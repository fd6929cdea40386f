"""Outside-in layer tracer for hallfix.

The tracer wraps the program's public functions from outside: every module
binding of a traced function (``hallfix.group.subgroups_of_order`` as well
as ``hallfix.hall.subgroups_of_order`` and the package re-export) and the
traced class methods.  Spans record name, start, end and parent and stay in
memory until the run ends; self time is a span's duration minus the time
its child spans cover.  ``perm`` and ``arith`` are called millions of times,
so they are counted, not spanned.  Leaving the ``with`` block restores every
original binding.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Functions and methods given a span: (module, qualified name).
SPANNED = (
    ("groupio", "parse_group_text"),
    ("corpus", "load_group"), ("corpus", "load_scenario"),
    ("group", "close"), ("group", "PermGroup.cayley_table"),
    ("group", "subgroups_of_order"), ("group", "group_from_elements"),
    ("group", "is_pi_separable"), ("group", "normal_subgroups"),
    ("group", "conjugacy_classes"), ("group", "quotient"),
    ("group", "centralizer"), ("group", "FiniteAction.build"),
    ("hall", "build_hall_context"), ("hall", "HallContext.conjugation_action"),
    ("hall", "HallContext.fixed_hall_counts"), ("hall", "cyclic_lattice"),
    ("verify", "multiplicative_value"), ("verify", "additive_value"),
    ("verify", "interpretation_check"), ("verify", "burnside_orbit_count"),
    ("verify", "cyclic_symmetrized_char"), ("verify", "navarro_rizo_check"),
    ("verify", "wielandt_check"), ("verify", "curiosity_value"),
    ("cli", "main"), ("cli", "mult_record"), ("cli", "add_record"),
    ("cli", "interpretation_record"), ("cli", "sym_char_record"),
    ("cli", "scan_records"),
    ("reports", "records_to_json"),
)

#: Counted only: (module, qualified name, metric name).
COUNTED = (
    ("perm", "Permutation.__init__", "perm.Permutation.new.calls"),
    ("perm", "Permutation.__mul__", "perm.Permutation.mul.calls"),
    ("perm", "Permutation.__pow__", "perm.Permutation.pow.calls"),
    ("perm", "Permutation.inverse", "perm.Permutation.inverse.calls"),
    ("arith", "FactoredRational.times_pow", "arith.FactoredRational.times_pow.calls"),
    ("arith", "factorize", "arith.factorize.calls"),
)

#: Spans whose own self time is a per-layer metric.  Every benchmark
#: workload calls these.  A span that a workload never enters would report
#: a time of exactly 0 on every run of it, so the other spans appear only in
#: their layer's total self time (``<layer>.self_s``) and in their call
#: count; ``metrics()`` still returns every span's self time.
SELF_TIMED = (
    "groupio.parse_group_text", "corpus.load_group",
    "group.close", "group.PermGroup.cayley_table", "group.subgroups_of_order",
    "group.group_from_elements", "group.is_pi_separable",
    "group.normal_subgroups", "group.conjugacy_classes", "group.quotient",
    "hall.build_hall_context",
    "verify.multiplicative_value", "verify.additive_value",
    "cli.main", "cli.mult_record", "cli.add_record",
    "reports.records_to_json",
)

#: Counts taken from a span's arguments and result.
EXTRA_COUNTS = (
    "group.close.elements",
    "group.PermGroup.cayley_table.built",
    "group.subgroups_of_order.found",
    "hall.build_hall_context.halls",
)

_MARK = "__perfbench_wrapper__"


def _layers() -> List[str]:
    return sorted({mod for mod, _ in SPANNED})


def metric_names() -> List[Tuple[str, str]]:
    """The per-layer metrics, with their units."""
    names = [(f"{layer}.self_s", "s") for layer in _layers()]
    names += [(f"{name}.self_s", "s") for name in SELF_TIMED]
    names += [(f"{m}.{n}.calls", "count") for m, n in SPANNED]
    names += [(metric, "count") for _, _, metric in COUNTED]
    names += [(metric, "count") for metric in EXTRA_COUNTS]
    names.append(("hall.build_hall_context.useful_ratio", "ratio"))
    return names


def _module(name: str):
    return sys.modules[f"hallfix.{name}"]


def _hallfix_modules() -> list:
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "hallfix" or key.startswith("hallfix."))]


def _resolve(mod: str, qualname: str) -> Tuple[Optional[type], str, object]:
    """(owning class or None, attribute name, raw attribute) of a traced name."""
    owner: object = _module(mod)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        return owner, attr, owner.__dict__.get(attr)
    return None, attr, vars(owner).get(attr)


class Tracer:
    """Spans and counters around hallfix's layers; use as a context manager.
    Spans are timed on ``clock``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self._stack: List[int] = []
        self.counts: Dict[str, int] = {m: 0 for _, _, m in COUNTED}
        self.counts.update({m: 0 for m in EXTRA_COUNTS})
        self._hall_pairs: Dict[Tuple[int, object], object] = {}
        self._tables: Dict[int, object] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for mod, qualname, metric in COUNTED:
                self._patch(mod, qualname, lambda fn, m=metric: self._counter(m, fn))
            for mod, qualname in SPANNED:
                name = f"{mod}.{qualname}"
                self._patch(mod, qualname,
                            lambda fn, n=name: self._span(n, fn, *_HOOKS.get(n, (None, None))))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, mod: str, qualname: str,
               make: Callable[[Callable], Callable]) -> None:
        cls, attr, raw = _resolve(mod, qualname)
        if raw is None:
            return  # the program no longer has this name: report it as 0
        if cls is not None:
            wrapped = _rewrap(raw, make)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return
        wrapped = make(raw)
        for module in _hallfix_modules():
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patches.append((module, key, raw))
                    setattr(module, key, wrapped)

    # -- wrappers -----------------------------------------------------------

    def _counter(self, metric: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _span(self, name: str, fn: Callable, before: Optional[Callable],
              after: Optional[Callable]) -> Callable:
        """Span wrapper; ``before(tracer, args)`` and, on success,
        ``after(tracer, args, result)`` take counts."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(self, args, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Self time and calls per span and per layer, counts and ratios."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in _layers()}
        for mod, name in SPANNED:
            out[f"{mod}.{name}.self_s"] = 0.0
            out[f"{mod}.{name}.calls"] = 0
        out.update(self.counts)
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            own = span[2] - span[1] - child[idx]
            out[f"{span[0]}.self_s"] += own
            out[f"{span[0].split('.')[0]}.self_s"] += own
            out[f"{span[0]}.calls"] += 1
        calls = out["hall.build_hall_context.calls"]
        out["hall.build_hall_context.useful_ratio"] = (
            len(self._hall_pairs) / calls if calls else 0.0)
        return out


def _rewrap(raw: object, make: Callable[[Callable], Callable]) -> object:
    """Wrap a class attribute, keeping a classmethod a classmethod."""
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    return make(raw)


def installed_wrappers() -> List[str]:
    """Names of tracer wrappers still bound anywhere in hallfix (should be none)."""
    found = []
    for module in _hallfix_modules():
        for key, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if getattr(fn, _MARK, False):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found


# -- counts taken from span arguments and results ------------------------------

def _after_close(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["group.close.elements"] += result.order


def _after_cayley_table(tracer: Tracer, args: tuple, result) -> None:
    # A table is built once per group object; count each object whose table
    # came back, holding it so that its id is not reused.
    if result is not None and id(args[0]) not in tracer._tables:
        tracer._tables[id(args[0])] = args[0]
        tracer.counts["group.PermGroup.cayley_table.built"] += 1


def _after_subgroups(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["group.subgroups_of_order.found"] += len(result)


def _before_hall_context(tracer: Tracer, args: tuple) -> None:
    # Distinct (group object, pi) pairs, holding the group so that its id
    # is not reused; a call that finds no Hall subgroup still counts.
    group, pi = args[0], args[1]
    tracer._hall_pairs.setdefault((id(group), pi), group)


def _after_hall_context(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["hall.build_hall_context.halls"] += len(result.halls)


_HOOKS = {
    "group.close": (None, _after_close),
    "group.PermGroup.cayley_table": (None, _after_cayley_table),
    "group.subgroups_of_order": (None, _after_subgroups),
    "hall.build_hall_context": (_before_hall_context, _after_hall_context),
}
