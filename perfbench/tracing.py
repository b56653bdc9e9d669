"""Spans and counts recorded around sdeim's public functions, from outside.

`Tracer.install(sdeim)` replaces each traced function, in every loaded
`sdeim.*` module that holds it (so `from .x import f` aliases are caught
too), with a wrapper that records a span or a count. `uninstall()` puts
the originals back. Spans stay in memory until the run writes them.
"""

import sys
import time
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, function): each call records a span named "<module>.<function>".
SPANNED = [
    ("experiments", "generate_trajectories"),
    ("experiments", "write_artifacts"),
    ("dynamics", "integrate"),
    ("dynamics", "advance"),
    ("assimilate", "das_deim"),
    ("pod", "compute_pod"),
    ("sensing", "qdeim_place"),
    ("sensing", "build_deim_core"),
    ("sensing", "observe_trajectory"),
    ("sensing", "add_noise"),
    ("sensing", "observe"),
    ("reconstruct", "prefactor_curve"),
    ("reconstruct", "vanilla_deim"),
    ("reconstruct", "sdeim"),
    ("reconstruct", "optimal_kernel"),
    ("reconstruct", "error_report"),
    ("linalg", "qr_column_pivot"),
    ("linalg", "svd_thin"),
    ("linalg", "pinv"),
    ("linalg", "matrix_rank"),
    ("linalg", "nullspace_orthonormal"),
    ("linalg", "spectral_norm"),
]
# Called ~10^5-10^6 times per pass: counted, not spanned.
COUNTED = [("assimilate", "interpolate_obs", "assimilate.interpolate_obs_calls")]
MODULES = ("experiments", "dynamics", "assimilate", "pod", "sensing", "linalg", "reconstruct")


class Tracer:
    def __init__(self):
        # (id, name, start, end, parent id or -1, pass id)
        self.spans = []
        self.counts = defaultdict(int)        # the current pass's counts
        self.pass_counts = {}                 # pass id -> counts
        self.pass_warnings = {}               # pass id -> {module: count}
        self.pass_id = -1
        self._stack = []
        self._patches = []
        self._assimilating_depth = 0          # > 0 while das_deim runs

    # -- recording

    def begin(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation

    def install(self, sdeim):
        mods = {name: sys.modules[f"sdeim.{name}"] for name in MODULES}
        holders = [m for n, m in sys.modules.items() if n == "sdeim" or n.startswith("sdeim.")]
        for mod, fn_name in SPANNED:
            fn = getattr(mods[mod], fn_name)
            wrapper = self.spanned(f"{mod}.{fn_name}", fn)
            if (mod, fn_name) == ("assimilate", "das_deim"):
                wrapper = self._assimilating(wrapper)
            self._replace(holders, fn, wrapper)
        for mod, fn_name, key in COUNTED:
            fn = getattr(mods[mod], fn_name)
            self._replace(holders, fn, self.counted(key, fn))
        build_field = mods["experiments"].build_field
        self._replace(holders, build_field, self._count_rhs(sdeim, build_field))
        self._patch(np.linalg, "svd", self.spanned("numpy.linalg.svd", np.linalg.svd))

    def uninstall(self):
        for obj, attr, old in reversed(self._patches):
            setattr(obj, attr, old)
        self._patches.clear()

    def _patch(self, obj, attr, new):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _replace(self, holders, fn, new):
        for mod in holders:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patch(mod, attr, new)

    def _count_rhs(self, sdeim, build_field):
        """Wrap the field that build_field returns with an rhs counter,
        which also counts the calls made inside das_deim."""
        counts = self.counts

        def wrapper(config):
            f = build_field(config)
            rhs = f.rhs

            def counted(u):
                counts["dynamics.rhs_calls"] += 1
                if self._assimilating_depth:
                    counts["assimilate.rhs_calls"] += 1
                return rhs(u)

            return sdeim.dynamics.VectorField(dim=f.dim, rhs=counted, params=f.params)

        return wrapper

    def _assimilating(self, fn):
        def wrapper(*args, **kwargs):
            self._assimilating_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._assimilating_depth -= 1

        return wrapper

    # -- one traced pass

    def run_pass(self, sdeim, pass_id, fn):
        """Call fn() as one traced pass under a root span "pass", counting
        the Python warnings it raises by the sdeim module that raised them."""
        self.pass_id = pass_id
        self.counts = defaultdict(int)
        pkg_dir = Path(sdeim.__file__).resolve().parent
        self.install(sdeim)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sid = self.begin("pass")
                try:
                    return fn()
                finally:
                    self.end(sid)
        finally:
            self.uninstall()
            self.pass_counts[pass_id] = dict(self.counts)
            found = defaultdict(int)
            for w in caught:
                path = Path(w.filename).resolve()
                found[path.stem if path.parent == pkg_dir else "other"] += 1
            self.pass_warnings[pass_id] = dict(found)

    # -- aggregation

    def by_name(self, pass_ids):
        """name -> {"calls", "total_s", "self_s"} over the given passes."""
        keep = set(pass_ids)
        child = defaultdict(float)
        for sid, name, t0, t1, parent, pid in self.spans:
            if pid in keep and parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, name, t0, t1, parent, pid in self.spans:
            if pid in keep:
                agg = out[name]
                agg["calls"] += 1
                agg["total_s"] += t1 - t0
                agg["self_s"] += t1 - t0 - child[sid]
        return dict(out)

    def records(self):
        keys = ("id", "name", "start", "end", "parent", "pass")
        return [dict(zip(keys, s)) for s in self.spans]
