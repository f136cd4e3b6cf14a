"""Per-layer tracing of qkzkit from outside its code.

`Tracer.install` wraps the public functions of every qkzkit module (plus
the few private ones named in PRIVATE) and rebinds every alias of each
wrapped function in every loaded qkzkit module, so a call through a
from-import is traced the same as a call through the defining module.
The check groups in `cli.CHECKS` are wrapped as `cli.group.<name>`.

Each call records one span: name, start, end, parent span and whether it
raised. Spans stay in memory until `dump` writes them out. A span's self
time is its duration minus the durations of its direct children; self
times are summed per layer (the module that defines the function).
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from math import prod

PACKAGE = "qkzkit"
LAYERS = ("cli", "idsuite", "qkz", "reduction", "rsolve", "tensorops", "reps", "scalars")
# private functions that carry a layer metric of their own
PRIVATE = {"rsolve": ("_raw_nullvector",)}

SOLVE = "rsolve._raw_nullvector"
REQUEST = "rsolve.solve_intertwiner"
CONTINUED = "rsolve.rcheck_continued"
NORMALIZE = ("rsolve.solve_intertwiner", "rsolve.normalize_hw", "rsolve.apply_kappa")
SERIALIZE = "cli.serialize_reports"
CACHE_GET = "rsolve.RCache.get"

# metric -> wrapped names it is computed from; a metric whose names no
# longer exist in the program is reported as 0 and listed as absent
REQUIRES = {
    "rsolve.solve.self_s": (SOLVE,),
    "rsolve.solves": (SOLVE,),
    "rsolve.requests": (REQUEST,),
    "rsolve.cache_hits": (CACHE_GET,),
    "rsolve.cache_misses": (CACHE_GET,),
    "rsolve.cache_hit_ratio": (CACHE_GET, REQUEST),
    "rsolve.continued.calls": (CONTINUED,),
    "rsolve.continued.s": (CONTINUED,),
    "rsolve.continued.solves": (CONTINUED, SOLVE),
    "rsolve.normalize.self_s": NORMALIZE,
    "rsolve.degenerate_raised": (REQUEST,),
    "cli.serialize.s": (SERIALIZE,),
}


def _embedded_matmul_cost(op, i, j, site_dims, M):
    di, dj = site_dims[i], site_dims[j]
    D, cols = prod(site_dims), M.shape[1]
    per_mac = 8 if (M.dtype.kind == "c" or getattr(op, "dtype", M.dtype).kind == "c") else 2
    return per_mac * D * cols * di * dj, 2 * M.nbytes + (di * dj) ** 2 * M.itemsize


def _permuted_matmul_cost(sigma, site_dims, M):
    return 0, 2 * M.nbytes


def _dense_output_cost(op_or_sigma, *rest):
    site_dims = rest[-1]
    D = prod(site_dims)
    return 0, 16 * D * D


# tensorops work computed from argument shapes: (flops, bytes read + written)
COSTS = {
    "tensorops.embedded_matmul": _embedded_matmul_cost,
    "tensorops.permuted_matmul": _permuted_matmul_cost,
    "tensorops.embed_pair": _dense_output_cost,
    "tensorops.permutation_op": _dense_output_cost,
}


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index, raised exception name]
        self.counts = Counter()  # cache hits/misses and computed tensorops work
        self.wrapped = set()
        self._stack = []
        self._restore = []       # (owner, attribute or key, original)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts, cost = self.counts, COSTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if cost is not None:
                    try:
                        flops, nbytes = cost(*args, **kwargs)
                    except (TypeError, AttributeError, IndexError, KeyError):
                        counts["cost_unreadable"] += 1
                    else:
                        counts["flops"] += flops
                        counts["bytes"] += nbytes

        self.wrapped.add(name)
        return traced

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self):
        """Wrap the program's layers; every qkzkit module must be imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        cli = sys.modules.get(f"{PACKAGE}.cli")
        for group, fn in list(getattr(cli, "CHECKS", {}).items()):
            self._set(cli.CHECKS, group, self.wrap(f"cli.group.{group}", fn))
        cache_cls = getattr(sys.modules.get(f"{PACKAGE}.rsolve"), "RCache", None)
        if cache_cls is not None and hasattr(cache_cls, "get"):
            self._set(cache_cls, "get", self._counting_get(cache_cls.get))
            self.wrapped.add(CACHE_GET)

    def _counting_get(self, get):
        counts = self.counts

        @functools.wraps(get)
        def counted(cache, req):
            hit = get(cache, req)
            counts["cache_hits" if hit is not None else "cache_misses"] += 1
            return hit
        return counted

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, raised in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "raised": raised}) + "\n")

    def metrics(self, wall_s, cpu_s):
        """Per-layer metrics of the traced interval, and the absent ones."""
        spans = self.spans
        covered = [0.0] * len(spans)
        root_s = 0.0
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                root_s += end - start
        self_s, incl_s, calls = defaultdict(float), defaultdict(float), Counter()
        layer_self, layer_calls = defaultdict(float), Counter()
        for k, (name, start, end, _, _) in enumerate(spans):
            own = end - start - covered[k]
            self_s[name] += own
            incl_s[name] += end - start
            calls[name] += 1
            layer = name.split(".", 1)[0]
            layer_self[layer] += own
            layer_calls[layer] += 1

        def under_continuation(k):
            k = spans[k][3]
            while k >= 0:
                if spans[k][0] == CONTINUED:
                    return True
                k = spans[k][3]
            return False

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls[layer]
            out[f"{layer}.self_s"] = layer_self[layer]
        requests = calls[REQUEST]
        out.update({
            "rsolve.solve.self_s": self_s[SOLVE],
            "rsolve.solves": calls[SOLVE],
            "rsolve.requests": requests,
            "rsolve.cache_hits": self.counts["cache_hits"],
            "rsolve.cache_misses": self.counts["cache_misses"],
            "rsolve.cache_hit_ratio": self.counts["cache_hits"] / requests if requests else 0.0,
            "rsolve.continued.calls": calls[CONTINUED],
            "rsolve.continued.s": incl_s[CONTINUED],
            "rsolve.continued.solves": sum(1 for k, s in enumerate(spans)
                                           if s[0] == SOLVE and under_continuation(k)),
            "rsolve.normalize.self_s": sum(self_s[n] for n in NORMALIZE),
            "rsolve.degenerate_raised": sum(1 for s in spans
                                            if s[0] == REQUEST and s[4] == "DegeneratePointError"),
            "tensorops.flops_computed": self.counts["flops"],
            "tensorops.bytes_computed": self.counts["bytes"],
            "cli.serialize.s": incl_s[SERIALIZE],
            "process.cpu_s": cpu_s,
            "unattributed_s": wall_s - root_s,
            "trace.wall_s": wall_s,
            "trace.spans": len(spans),
        })
        for name in self.wrapped:
            if name.startswith("cli.group."):
                out[name + ".s"] = incl_s[name]
        absent = sorted(metric for metric, names in REQUIRES.items()
                        if not all(n in self.wrapped for n in names))
        if self.counts["cost_unreadable"]:
            absent += ["tensorops.flops_computed", "tensorops.bytes_computed"]
        return out, absent
