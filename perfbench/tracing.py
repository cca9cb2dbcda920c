"""Span tracing of conergy's public functions, installed from outside.

``Tracer.install`` replaces each listed function by a timing wrapper on
its module object, so calls from other modules and from inside the same
module both go through it; ``uninstall`` puts the originals back.  Nothing
in the package is edited.  Each call becomes a span (id, name, start, end,
parent span, job id, time spent in child spans), kept in memory and
written out at the end.  A span's self time is its length minus the time
its child spans cover.  The partition primitives and the counting formulas
run hundreds of thousands of times per pass, so they are counted and timed
into their parent's child time but not kept as one record each.
"""

import functools
import gzip
import inspect
import json
import time
from collections import Counter

# module -> public functions traced; None means every public function of the
# module, reported as one aggregate self time
LAYERS = {
    "lattice": (
        "from_covers", "from_order_bits", "glued_sum", "canonical_order_matrix",
        "canonical_form", "are_isomorphic", "count_two_element_antichains",
    ),
    "enumeration": (
        "all_lattices", "all_lattices_brute", "glued_b4_family", "glued_n5_family",
        "decomposes_as_chain_b4_chain", "is_glued_n5_shape", "extremal_report",
    ),
    "congruence": (
        "all_congruences", "perspectivity_closure", "principal_congruence",
        "brute_force_congruences", "is_congruence", "is_distributive", "is_boolean",
        "join_with_atom_map", "quotient",
    ),
    "partition": ("join", "join_pairs", "meet", "leq", "all_partitions"),
    "energy": ("spectrum", "spectral_energy", "adjacency_of", "congruence_energy"),
    "algebra": ("unary_translations", "congruence_closure", "all_congruences_alg", "ce_bound_check"),
    "cli": ("cmd_energy", "cmd_conlat", "cmd_quotient", "cmd_enumerate", "cmd_verify", "cmd_oracle"),
    "counting": None,
}

UNRECORDED_PARTITION = {"partition.join", "partition.join_pairs", "partition.meet", "partition.leq"}

# ratio name -> (context function, callee): items returned by the context
# function per call of the callee made while the context function runs
RATIOS = {
    "enumeration.classes_per_canon_call": ("enumeration.all_lattices", "lattice.canonical_order_matrix"),
    "congruence.members_per_join": ("congruence.all_congruences", "partition.join"),
    "algebra.members_per_join": ("algebra.all_congruences_alg", "partition.join"),
}


def public_functions(module):
    return sorted(
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__
    )


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for short, names in LAYERS.items():
        if names is None:
            out.append((f"{short}.self_s", "s"))
            continue
        for fname in names:
            out += [(f"{short}.{fname}.calls", "count"), (f"{short}.{fname}.self_s", "s")]
    out += [(name, "ratio") for name in RATIOS]
    out.append(("trace_overhead_s", "s"))
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.job = None
        self.spans = []             # (id, name, start, end, parent id, job id, child ns)
        self.calls = Counter()
        self.unrecorded_ns = Counter()  # self time of names kept as counts only
        self.attempts = Counter()   # per ratio context
        self.outcomes = Counter()
        self.aggregates = {}        # layer -> traced names summed into one metric
        self._stack = []            # open frames: [span id, child ns]
        self._open = Counter()      # open context spans by name
        self._next_id = 1
        self._patched = []

    def install(self, modules):
        """Wrap the LAYERS functions of ``modules`` (short name -> module)."""
        for short, names in LAYERS.items():
            mod = modules[short]
            if names is None:
                names = public_functions(mod)
                self.aggregates[short] = [f"{short}.{n}" for n in names]
            for fname in names:
                orig = getattr(mod, fname)
                self._patched.append((mod, fname, orig))
                setattr(mod, fname, self._wrap(f"{short}.{fname}", orig))

    def uninstall(self):
        while self._patched:
            mod, fname, orig = self._patched.pop()
            setattr(mod, fname, orig)

    def _wrap(self, name, fn):
        stack, clock, calls, spans = self._stack, self.clock, self.calls, self.spans
        record = name not in UNRECORDED_PARTITION and not name.startswith("counting.")
        counted_in = [ctx for ctx, callee in RATIOS.values() if callee == name]
        is_context = any(ctx == name for ctx, _ in RATIOS.values())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for ctx in counted_in:
                if self._open[ctx]:
                    self.attempts[ctx] += 1
            parent = stack[-1][0] if stack else 0
            if record:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent
            frame = [sid, 0]
            stack.append(frame)
            if is_context:
                self._open[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                calls[name] += 1
                if record:
                    spans.append((sid, name, start, end, parent, self.job, frame[1]))
                else:
                    self.unrecorded_ns[name] += end - start - frame[1]
                if is_context:
                    self._open[name] -= 1
            if is_context:
                self.outcomes[name] += len(result)
            return result

        return traced

    def self_ns(self):
        """Self time per traced name: span length minus child-span time."""
        out = Counter(self.unrecorded_ns)
        for _, name, start, end, _, _, child in self.spans:
            out[name] += end - start - child
        return out

    def metrics(self, overhead_s):
        self_ns = self.self_ns()
        values = {}
        for short, names in LAYERS.items():
            if names is None:
                values[f"{short}.self_s"] = sum(self_ns[n] for n in self.aggregates[short]) / 1e9
                continue
            for fname in names:
                key = f"{short}.{fname}"
                values[key + ".calls"] = self.calls[key]
                values[key + ".self_s"] = self_ns[key] / 1e9
        for ratio, (ctx, callee) in RATIOS.items():
            values[ratio] = self.outcomes[ctx] / self.attempts[ctx] if self.attempts[ctx] else 0.0
        values["trace_overhead_s"] = overhead_s
        return {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}

    def write(self, path):
        """Gzipped JSON lines: a header naming the fields and the count-only
        totals, then one array per span with the name as an index."""
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({
                "fields": ["id", "name", "start_ns", "end_ns", "parent", "job", "child_ns"],
                "names": names,
                "unrecorded_calls": {n: self.calls[n] for n in sorted(self.unrecorded_ns)},
                "unrecorded_self_ns": dict(sorted(self.unrecorded_ns.items())),
            }) + "\n")
            for sid, name, start, end, parent, job, child in self.spans:
                fh.write(json.dumps([sid, index[name], start, end, parent, job, child]) + "\n")
