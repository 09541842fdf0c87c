"""Outside-in spans around the package's public functions.

The tracer replaces each listed function in every module namespace that
holds it by name (``cli`` imports ``recognize``, ``normal_forms`` imports
``hilbert_prefix``, ...), so calls between package modules are seen too, and
wraps ``ParametricManifold.derivative`` on the class.  Each span records its
name, start, end, parent span and op id in flat arrays; the arrays stay in
memory until the run writes them out.  Nothing here imports numpy.
"""

import importlib
import os
import time
from array import array

MODULES = ("equidistants", "equidistants.cli", "equidistants.contact_lab",
           "equidistants.geometry_engine", "equidistants.germ_algebra",
           "equidistants.normal_forms")

# (defining module, public function) pairs that become spans; the span name
# is "<module>.<function>" without the package prefix.
TARGETS = (
    ("cli", "main"),
    ("geometry_engine", "find_parallel_pairs"),
    ("geometry_engine", "trace_equidistant"),
    ("geometry_engine", "detect_singularities"),
    ("geometry_engine", "classify_pair"),
    ("geometry_engine", "taylor_germ_at_pair"),
    ("geometry_engine", "write_branches_csv"),
    ("geometry_engine", "write_branches_svg"),
    ("contact_lab", "contact_map"),
    ("contact_lab", "lambda_contact_from_pair"),
    ("contact_lab", "pi_tilde_local"),
    ("contact_lab", "local_ring_dims"),
    ("germ_algebra", "local_algebra"),
    ("germ_algebra", "ke_quotient_hilbert"),
    ("germ_algebra", "hilbert_prefix"),
    ("germ_algebra", "ke_codimension"),
    ("germ_algebra", "rank0_reduce"),
    ("germ_algebra", "corank"),
    ("normal_forms", "stable_singularities"),
    ("normal_forms", "catalogue"),
    ("normal_forms", "recognize"),
)
DERIVATIVE = "geometry_engine.derivative"
SETUP_OP = -1


class Tracer:
    """Span recorder; `op_id` tags every span opened until it changes."""

    def __init__(self):
        self.names = []
        self.nid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op_id = SETUP_OP
        self.counts = {}
        self._patches = []
        self._hooks = {
            "geometry_engine.find_parallel_pairs": _on_pairs,
            "geometry_engine.trace_equidistant": _on_trace,
            "geometry_engine.detect_singularities": _on_detect,
            "geometry_engine.write_branches_csv": _on_write,
            "geometry_engine.write_branches_svg": _on_write,
            "germ_algebra.local_algebra": _on_local_algebra,
        }
        # time split by a property of the arguments, aborted calls included
        self._splits = {
            "germ_algebra.local_algebra":
                lambda args: "s_src%d" % args[0].source_dim,
        }
        self._errors = {
            "geometry_engine.classify_pair": "failed",
            "normal_forms.recognize": "unrecognized",
        }

    def count(self, key, value=1):
        if self.op_id != SETUP_OP:
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = self._hooks.get(name)
        error_key = self._errors.get(name)
        split = self._splits.get(name)
        clock = time.perf_counter
        stack = self.stack

        def span(*args, **kwargs):
            idx = len(self.start)
            self.nid.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if error_key:
                    self.count(name + "." + error_key)
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                if split is not None:
                    self.count(name + "." + split(args),
                               self.end[idx] - self.start[idx])
            if hook is not None:
                hook(self, name, args, result)
            return result

        span.__wrapped__ = fn
        return span

    def install(self):
        """Patch every target in every namespace that holds it by name."""
        if not self._patches:
            mods = [importlib.import_module(m) for m in MODULES]
            for home, fname in TARGETS:
                orig = getattr(importlib.import_module("equidistants." + home),
                               fname)
                span = self.wrap(home + "." + fname, orig)
                self._patches += [(mod, fname, orig, span) for mod in mods
                                  if getattr(mod, fname, None) is orig]
            cls = importlib.import_module(
                "equidistants.geometry_engine").ParametricManifold
            orig = cls.__dict__["derivative"]
            self._patches.append((cls, "derivative", orig,
                                  self.wrap(DERIVATIVE, orig)))
        for owner, fname, _, span in self._patches:
            setattr(owner, fname, span)

    def uninstall(self):
        for owner, fname, orig, _ in self._patches:
            setattr(owner, fname, orig)

    def summary(self):
        """Per name over op spans: calls, total seconds and self seconds;
        and total seconds per name over set-up spans."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        ops, setup = {}, {}
        for i in range(len(self.start)):
            name = self.names[self.nid[i]]
            dur = self.end[i] - self.start[i]
            if self.op[i] == SETUP_OP:
                setup[name] = setup.get(name, 0.0) + dur
                continue
            calls, total, own = ops.get(name, (0, 0.0, 0.0))
            ops[name] = (calls + 1, total + dur, own + dur - child[i])
        return ops, setup

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    i, self.parent[i], self.op[i], self.names[self.nid[i]],
                    self.start[i], self.end[i]))


def _on_pairs(tr, name, args, result):
    tr.count(name + ".pairs", len(result))


def _on_trace(tr, name, args, result):
    tr.count(name + ".branches", len(result))
    tr.count(name + ".samples", sum(len(b) for b in result))


def _on_detect(tr, name, args, result):
    labels = [a.label for a in result.annotations]
    tr.count(name + ".annotations", len(labels))
    tr.count(name + ".unresolved", labels.count("UNRESOLVED"))


def _on_write(tr, name, args, result):
    tr.count(name + ".bytes", os.path.getsize(args[1]))


def _on_local_algebra(tr, name, args, result):
    tr.count(name + ".infinite", int(not result.finite))
    tr.count(name + ".stabilized", int(result.stabilized))
