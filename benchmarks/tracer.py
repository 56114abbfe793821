"""Layer tracing installed from outside the program.

Every public function of the ``hubbard_gap`` layer modules is wrapped, and
the wrapper is bound under every name that refers to the function in any
``hubbard_gap`` namespace: the modules import each other's functions by
name, so patching only the defining module would miss most calls.  Of the
``cli`` layer only ``main`` is wrapped, so that a CLI span's self time is
``main`` minus the library spans below it.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``; spans stay in
memory until the run ends.  The two leaf functions called thousands of
times per operation keep a call count and a summed time instead of spans.
Direct recursion (``dilog`` calling itself) records one span.
"""

import time
import types

LAYERS = ("specfun", "quadrature", "dos", "gap", "renorm", "cli")
LEAVES = frozenset({"dos.dos_value_elliptic", "dos.dos_log_subtracted"})
MOMENTS = ("dos.dos_moment", "renorm.mellin_difference", "renorm.j2_quadrature")


class Tracer:
    """Spans and leaf counts of the operations run while installed."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.stack = []
        self.leaf_calls = {name: 0 for name in LEAVES}
        self.leaf_ns = {name: 0 for name in LEAVES}
        self.leaf_in_span = {}   # span index -> ns of outermost leaf calls in it
        self.leaf_depth = 0
        self.ops = 0             # operations begun; the current one's id
        self._wrapped = {}       # original function -> wrapper
        self._restore = []
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__
                        and (layer != "cli" or attr == "main")):
                    name = f"{layer}.{attr}"
                    make = self._leaf if name in LEAVES else self._span
                    self._wrapped[obj] = make(name, obj)

    def install(self):
        namespaces = [self.package] + [getattr(self.package, layer) for layer in LAYERS]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = (self._wrapped.get(obj)
                           if isinstance(obj, types.FunctionType) else None)
                if wrapper is not None:
                    setattr(ns, attr, wrapper)
                    self._restore.append((ns, attr, obj))

    def uninstall(self):
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()

    def begin_op(self):
        self.ops += 1

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] is name:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, self.ops]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return wrapper

    def _leaf(self, name, fn):
        stack, clock = self.stack, time.perf_counter_ns
        calls, total, in_span = self.leaf_calls, self.leaf_ns, self.leaf_in_span

        def wrapper(*args, **kwargs):
            self.leaf_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.leaf_depth -= 1
                calls[name] += 1
                total[name] += elapsed
                if self.leaf_depth == 0 and stack:
                    in_span[stack[-1]] = in_span.get(stack[-1], 0) + elapsed
        return wrapper

    def summary(self):
        """Additive totals: summaries of several processes merge by adding."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_name = {}
        rhs_in_solve = 0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            own = duration - child_ns[index] - self.leaf_in_span.get(index, 0)
            entry = per_name.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
            if name == "gap.gap_rhs" and parent >= 0 and self.spans[parent][0] == "gap.gap_solve":
                rhs_in_solve += 1
        return {"ops": self.ops, "spans": per_name, "rhs_in_solve": rhs_in_solve,
                "leaves": {name: [self.leaf_calls[name], self.leaf_ns[name]]
                           for name in LEAVES}}


def write_spans(path, phases):
    """Write ``[(phase, spans)]`` as CSV, one span a line."""
    with open(path, "w") as handle:
        handle.write("phase,op,index,parent,name,start_ns,end_ns\n")
        for phase, spans in phases:
            for index, (name, start, end, parent, op) in enumerate(spans):
                handle.write(f"{phase},{op},{index},{parent},{name},{start},{end}\n")


def merge(summaries):
    total = {"ops": 0, "spans": {}, "rhs_in_solve": 0,
             "leaves": {name: [0, 0] for name in LEAVES}}
    for part in summaries:
        total["ops"] += part["ops"]
        total["rhs_in_solve"] += part["rhs_in_solve"]
        for name, values in part["spans"].items():
            entry = total["spans"].setdefault(name, [0, 0, 0])
            for k, value in enumerate(values):
                entry[k] += value
        for name, values in part["leaves"].items():
            total["leaves"][name][0] += values[0]
            total["leaves"][name][1] += values[1]
    return total


def layer_metrics(summary):
    """Per-layer metrics; a per-call time whose function was never called is None."""
    ops = summary["ops"]
    spans = summary["spans"]

    def count(*names):
        return sum(spans.get(name, (0, 0, 0))[0] for name in names)

    def mean_ns(*names, own=False):
        calls = count(*names)
        if not calls:
            return None
        return sum(spans.get(name, (0, 0, 0))[2 if own else 1] for name in names) / calls

    def per_call(value_ns, scale):
        return None if value_ns is None else value_ns / scale

    elliptic_calls, elliptic_ns = summary["leaves"]["dos.dos_value_elliptic"]
    quad = spans.get("quadrature.adaptive_quad", (0, 0, 0))
    solves = count("gap.gap_solve")
    return {
        "dos.elliptic_calls_per_op": elliptic_calls / ops,
        "dos.elliptic_us": elliptic_ns / elliptic_calls / 1e3 if elliptic_calls else None,
        "dos.level_set_calls_per_op": count("dos.dos_value") / ops,
        "dos.level_set_us": per_call(mean_ns("dos.dos_value"), 1e3),
        "quadrature.calls_per_op": quad[0] / ops,
        "quadrature.self_ms_per_op": quad[2] / ops / 1e6,
        "specfun.dilog_calls_per_op": count("specfun.dilog") / ops,
        "specfun.dilog_us": per_call(mean_ns("specfun.dilog"), 1e3),
        "gap.rhs_evals_per_solve": summary["rhs_in_solve"] / solves if solves else None,
        "gap.rhs_us": per_call(mean_ns("gap.gap_rhs"), 1e3),
        "gap.i2_us": per_call(mean_ns("gap.i2_numeric"), 1e3),
        "gap.solve_self_ms": per_call(mean_ns("gap.gap_solve", own=True), 1e6),
        "renorm.constants_ms": per_call(mean_ns("renorm.constants_report"), 1e6),
        "renorm.moment_calls_per_op": count(*MOMENTS) / ops,
        "renorm.moment_us": per_call(mean_ns(*MOMENTS), 1e3),
        "cli.self_ms_per_op": per_call(mean_ns("cli.main", own=True), 1e6),
    }
