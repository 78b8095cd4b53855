"""Span tracing of laxo's public functions, installed from outside ``src/``.

``install()`` replaces each traced function with a wrapper that records one
span (name, parent span, start, end) per call; spans stay in flat in-memory
arrays and are written once, by ``Tracer.save``, when the run ends.  A
layer's self time is its span time minus the time its child spans cover.

Two facts of the program decide where the wrappers go:

* ``GeneralProblem.__init__`` keeps bound callables (``self._W =
  data.primitive``, ``pair.H = flux.deriv``), so ``install()`` must run
  before any problem is built.
* ``Flux.deriv`` and ``Flux.second`` are per-instance attributes, so they are
  wrapped as each ``Flux`` is constructed; ``Problem.restart`` builds its
  ``SampledData`` itself, so ``phi`` and ``primitive`` are wrapped on the
  data classes.
"""

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

from laxo import flux as flux_mod
from laxo import initial_data, reference_oracle
from laxo.characteristics import CharacteristicAnalyzer
from laxo.global_structure import GlobalStructure
from laxo.shock_analysis import ShockAnalyzer
from laxo.variational_core import GeneralProblem, Problem, RestartedProblem

# (span name, owner, attribute); owners are classes except for compare()
TARGETS = (
    ("variational_core.solve", GeneralProblem, "solve"),
    ("variational_core.solve_grid", GeneralProblem, "solve_grid"),
    ("variational_core.solve_grid", RestartedProblem, "solve_grid"),
    ("variational_core.maximize", GeneralProblem, "maximize"),
    ("variational_core.eval_E", GeneralProblem, "eval_E"),
    ("variational_core.restart", Problem, "restart"),
    ("initial_data.phi", initial_data.InitialData, "phi"),
    ("initial_data.phi", initial_data.SampledData, "phi"),
    ("initial_data.primitive", initial_data.InitialData, "primitive"),
    ("initial_data.primitive", initial_data.SampledData, "primitive"),
    ("flux.invert_deriv", flux_mod.Flux, "invert_deriv"),
    ("shock_analysis.track_forward", ShockAnalyzer, "track_forward"),
    ("shock_analysis.classify_point", ShockAnalyzer, "classify_point"),
    ("characteristics.lifespan_exact", CharacteristicAnalyzer,
     "lifespan_exact"),
    ("global_structure.convex_hull", GlobalStructure, "convex_hull"),
    ("global_structure.measure_decay", GlobalStructure, "measure_decay"),
    ("global_structure.profile_u_tilde", GlobalStructure, "profile_u_tilde"),
    ("reference_oracle.GodunovSolver.advance", reference_oracle.GodunovSolver,
     "advance"),
    ("reference_oracle.compare", reference_oracle, "compare"),
)
FLUX_ATTRS = (("flux.deriv", "deriv"), ("flux.second", "second"))
# the first argument after self is the evaluation point: record its size
SIZED = ("initial_data.phi", "initial_data.primitive")

NAMES = tuple(dict.fromkeys([n for n, _, _ in TARGETS]
                            + [n for n, _ in FLUX_ATTRS]))


class Tracer:
    """Flat span store; ``on`` pauses recording (the output checks run so)."""

    def __init__(self):
        self.index = {n: i for i, n in enumerate(NAMES)}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")      # -1: 0-d argument; 0: not recorded
        self.stack = []
        self.on = True

    def wrap(self, name, fn):
        nid = self.index[name]
        sized = name in SIZED
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        sizes, stack, clock = self.size, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kw):
            if not self.on:
                return fn(*args, **kw)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            if sized:
                x = args[1] if len(args) > 1 else kw.get("x")
                sizes.append(-1 if np.ndim(x) == 0 else int(np.size(x)))
            else:
                sizes.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kw)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    @contextmanager
    def paused(self):
        self.on = False
        try:
            yield
        finally:
            self.on = True

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.uint16),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "size": np.frombuffer(self.size, dtype=np.int64)}

    def summary(self):
        """Per-name calls and self seconds, plus the counts ratios need."""
        a = self.arrays()
        nid, parent = a["name"].astype(np.intp), a["parent"].astype(np.intp)
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        k = len(NAMES)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        out = {n: {"calls": int(calls[i]), "self_s": float(self_s[i])}
               for i, n in enumerate(NAMES)}

        def sel(name):
            return nid == self.index[name]

        phi, prim = sel("initial_data.phi"), sel("initial_data.primitive")
        out["initial_data.phi"]["scalar"] = int(np.sum(a["size"][phi] == -1))
        sizes = a["size"][prim]
        out["initial_data.primitive"]["elems"] = int(
            np.sum(np.where(sizes == -1, 1, sizes)))
        # solve spans with a track_forward ancestor (pointer jumping)
        tf = sel("shock_analysis.track_forward")
        inside = np.zeros(len(nid), dtype=bool)
        up = parent.copy()
        while np.any(up >= 0):
            live = up >= 0
            inside[live] |= tf[up[live]]
            up[live] = parent[up[live]]
        out["variational_core.solve"]["in_track"] = int(
            np.sum(inside & sel("variational_core.solve")))
        return out

    def save(self, path):
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())


def install(tracer):
    """Wrap every traced function; call before any problem is built."""
    for name, owner, attr in TARGETS:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    init = flux_mod.Flux.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kw):
        init(self, *args, **kw)
        for name, attr in FLUX_ATTRS:
            setattr(self, attr, tracer.wrap(name, getattr(self, attr)))

    flux_mod.Flux.__init__ = traced_init
