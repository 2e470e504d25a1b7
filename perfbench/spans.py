"""Span tracing of the wprm layers, installed from outside the library.

`Tracer.install()` replaces each listed public function with a wrapper that
records a span (name, start, end, parent span) and, for a few functions, a
small dict of attributes such as the number of candidate rows.  The wrapper
replaces every binding of the same function object across the `wprm.*`
modules, including values of module-level dicts such as `verify.SUITES`, so
`from .zero_sets import batch_zero_counts` call sites are traced too.
`uninstall()` puts the originals back.

Spans live in flat arrays while the pass runs; `layer_metrics()` turns them
into the per-layer metrics and `save()` writes them out at the end.
"""

from __future__ import annotations

import importlib
import time
import weakref
from array import array

import numpy as np

LAYERS = ("finite_field", "weighted_space", "weighted_poly", "zero_sets",
          "gflinalg", "codes", "plane_lines", "verify", "cli")

_ARR_METHODS = ("add_arr", "neg_arr", "sub_arr", "mul_arr", "pow_arr",
                "inv_arr")


def _kind(field) -> str:
    return "prime" if field.e == 1 else "ext"


def _kernel_attrs(tracer, args, kwargs, result):
    coeffs, _, field = args[:3]
    return {"rows": int(coeffs.shape[0]), "kind": _kind(field)}


def _row_reduce_attrs(tracer, args, kwargs, result):
    return {"kind": _kind(args[1]), "rank": int(result[0].shape[0])}


def _max_zeros_attrs(tracer, args, kwargs, result):
    return {"classes": int(result.candidates)}


def _min_distance_attrs(tracer, args, kwargs, result):
    return {"q": int(args[0].q)}


def _evaluate_many_attrs(tracer, args, kwargs, result):
    return {"points": int(args[1].shape[0])}


def _point_coords_attrs(tracer, args, kwargs, result):
    # The first call on a space object enumerates; later calls hit its cache.
    sp = args[0]
    if sp in tracer.enumerated:
        return None
    tracer.enumerated.add(sp)
    return {"enumerated": int(result.shape[0])}


# (module, attribute path, group).  A group is the unit the metrics are
# summed over; spans of one group nested in each other count once in the
# group's inclusive time.
TARGETS = [
    ("finite_field", "FiniteField.__init__", "finite_field.build"),
    *[("finite_field", f"FiniteField.{m}", "finite_field.arr")
      for m in _ARR_METHODS],
    ("weighted_space", "WeightedProjectiveSpace.point_coords",
     "weighted_space.enumerate"),
    ("weighted_space", "WeightedProjectiveSpace.canonicalize",
     "weighted_space.canonicalize"),
    ("weighted_poly", "WeightedPolynomial.evaluate_many",
     "weighted_poly.evaluate_many"),
    ("weighted_poly", "WeightedPolynomial.__mul__", "weighted_poly.product"),
    ("weighted_poly", "monomial_basis", "weighted_poly.monomial_basis"),
    ("zero_sets", "batch_zero_counts", "zero_sets.kernel"),
    ("zero_sets", "max_zeros", "zero_sets.sweep"),
    ("codes", "min_distance_exhaustive", "zero_sets.sweep"),
    ("zero_sets", "count_zeros", "zero_sets.count_zeros"),
    ("zero_sets", "count_zeros_affine", "zero_sets.count_zeros"),
    ("zero_sets", "zero_mask", "zero_sets.count_zeros"),
    ("zero_sets", "build_family", "zero_sets.family"),
    ("zero_sets", "family_zero_count", "zero_sets.family"),
    ("zero_sets", "monomial_matrix", "zero_sets.monomial_matrix"),
    ("zero_sets", "monomial_values", "zero_sets.monomial_matrix"),
    ("zero_sets", "torus_count", "zero_sets.torus"),
    ("gflinalg", "row_reduce", "gflinalg.row_reduce"),
    ("codes", "build_code", "codes.build_code"),
    ("codes", "code_parameters", "codes.code_parameters"),
    ("codes", "min_distance_witness", "codes.witness"),
    ("plane_lines", "LineSystem.lines", "plane_lines.lines"),
    ("plane_lines", "LineSystem.line_points", "plane_lines.lines"),
    ("plane_lines", "LineSystem.intersect", "plane_lines.lines"),
    ("plane_lines", "LineSystem.normalize_line", "plane_lines.lines"),
    ("plane_lines", "GradedSubstitution.apply", "plane_lines.lines"),
    ("cli", "main", "cli.main"),
]

ATTRS = {
    "zero_sets.batch_zero_counts": _kernel_attrs,
    "gflinalg.row_reduce": _row_reduce_attrs,
    "zero_sets.max_zeros": _max_zeros_attrs,
    "codes.min_distance_exhaustive": _min_distance_attrs,
    "weighted_poly.WeightedPolynomial.evaluate_many": _evaluate_many_attrs,
    "weighted_space.WeightedProjectiveSpace.point_coords": _point_coords_attrs,
}

# The verify suites, by their `wprm verify --suite` names.
SUITE_FUNCTIONS = {
    "points": "suite_point_counts",
    "family-counts": "suite_family_counts",
    "torus": "suite_torus",
    "classical-max": "suite_classical_max",
    "plane-max": "suite_plane_max",
    "lines": "suite_lines",
    "bounds": "suite_bounds",
    "delorme": "suite_delorme",
    "code-distance": "suite_small_code_distance",
}

PER_LAYER_UNITS = {
    "zero_sets.kernel_s.prime": "s",
    "zero_sets.kernel_s.ext": "s",
    "zero_sets.kernel_rows.prime": "rows",
    "zero_sets.kernel_rows.ext": "rows",
    "zero_sets.kernel_calls": "count",
    "zero_sets.kernel_rows_per_s.prime": "rows/s",
    "zero_sets.kernel_rows_per_s.ext": "rows/s",
    "zero_sets.sweep_self_s": "s",
    "zero_sets.rows_per_class": "rows/class",
    "finite_field.build_s": "s",
    "finite_field.builds": "count",
    "finite_field.arr_calls": "count",
    "finite_field.arr_s": "s",
    "weighted_space.enumerate_s": "s",
    "weighted_space.enumerations": "count",
    "weighted_space.points": "points",
    "weighted_space.canonicalize_s": "s",
    "weighted_space.canonicalize_calls": "count",
    "weighted_poly.evaluate_many_s": "s",
    "weighted_poly.evaluate_many_calls": "count",
    "weighted_poly.point_evals": "evals",
    "weighted_poly.product_s": "s",
    "weighted_poly.monomial_basis_s": "s",
    "zero_sets.count_zeros_s": "s",
    "zero_sets.family_s": "s",
    "zero_sets.monomial_matrix_s": "s",
    "zero_sets.torus_s": "s",
    "zero_sets.torus_calls": "count",
    "gflinalg.row_reduce_s.prime": "s",
    "gflinalg.row_reduce_s.ext": "s",
    "gflinalg.row_reduce_calls": "count",
    "codes.build_code_s": "s",
    "codes.code_parameters_s": "s",
    "codes.witness_s": "s",
    "plane_lines.lines_s": "s",
    **{f"verify.{suite}_s": "s" for suite in SUITE_FUNCTIONS},
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records nested spans around the wrapped functions of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.nested = array("b")   # an enclosing span has the same group
        self.attrs: dict[int, dict] = {}
        self.enumerated = weakref.WeakSet()
        self.enabled = True
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._replaced: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------------

    def _name(self, name: str, group: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return nid

    def open(self, name: str, group: str | None = None) -> int:
        """Start a span now; returns its index for `close`."""
        group = group or name
        i = len(self.start)
        self.name_id.append(self._name(name, group))
        self.parent.append(self._stack[-1] if self._stack else -1)
        depth = self._depth.get(group, 0)
        self.nested.append(depth > 0)
        self._depth[group] = depth + 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._depth[self.groups[self.name_id[i]]] -= 1

    def wrap(self, fn, name: str, group: str):
        attrs_fn = ATTRS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            i = tracer.open(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if attrs_fn is not None:
                a = attrs_fn(tracer, args, kwargs, result)
                if a is not None:
                    tracer.attrs[i] = a
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"wprm.{m}") for m in LAYERS]
        modules.append(importlib.import_module("wprm"))
        for mod_name, path, group in TARGETS:
            owner = importlib.import_module(f"wprm.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            name = f"{mod_name}.{path}"
            if cls_path:
                original = vars(owner)[attr]
                self._set(owner, attr, self.wrap(original, name, group))
            else:
                original = getattr(owner, attr)
                self._rebind(modules, original,
                             self.wrap(original, name, group))
        verify = importlib.import_module("wprm.verify")
        for suite, fn_name in SUITE_FUNCTIONS.items():
            original = getattr(verify, fn_name)
            self._rebind(modules, original,
                         self.wrap(original, f"verify.{fn_name}",
                                   f"verify.{suite}"))

    def _set(self, owner, key, value, is_dict=False):
        old = owner[key] if is_dict else getattr(owner, key)
        self._replaced.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._set(value, k, wrapper, is_dict=True)

    def uninstall(self) -> None:
        for owner, key, old, is_dict in reversed(self._replaced):
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._replaced.clear()

    # -- results -------------------------------------------------------------------

    def arrays(self):
        return spans_as_arrays(self.names, self.groups, self.name_id,
                               self.start, self.end, self.parent, self.nested)

    def save(self, path) -> None:
        sp = self.arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            groups=np.array(self.groups),
                            **{k: sp[k] for k in ("name_id", "start", "end",
                                                  "parent", "nested")})

    def layer_metrics(self) -> dict[str, float]:
        return layer_metrics(self.arrays(), self.attrs)


def spans_as_arrays(names, groups, name_id, start, end, parent, nested):
    """Column arrays of a span list plus derived duration and self time."""
    name_id = np.asarray(name_id, dtype=np.int64)
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    return {"names": list(names), "groups": list(groups), "name_id": name_id,
            "start": start, "end": end, "parent": parent,
            "nested": np.asarray(nested, dtype=bool), "dur": dur,
            "self": self_times(dur, parent)}


def self_times(dur: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """A span's duration minus the durations of its direct children.

    Spans come from one thread, so the children of a span do not overlap
    each other and lie inside it.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


def _mask(sp, *, name=None, group=None) -> np.ndarray:
    if name is not None:
        ids = [i for i, n in enumerate(sp["names"]) if n == name]
    else:
        ids = [i for i, g in enumerate(sp["groups"]) if g == group]
    return np.isin(sp["name_id"], ids)


def group_stats(sp, group: str) -> tuple[float, float, int]:
    """(inclusive seconds, self seconds, calls) of one group; spans nested in
    a span of the same group count once in the inclusive time."""
    m = _mask(sp, group=group)
    incl = float(sp["dur"][m & ~sp["nested"]].sum())
    return incl, float(sp["self"][m].sum()), int(m.sum())


def _has_ancestor_in(sp, i: int, members: set) -> bool:
    p = int(sp["parent"][i])
    while p >= 0:
        if p in members:
            return True
        p = int(sp["parent"][p])
    return False


def layer_metrics(sp, attrs: dict[int, dict]) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, from a span set."""
    out: dict[str, float] = {}

    # A span whose call raised has no attributes.
    def kind_of(i):
        return attrs.get(int(i), {}).get("kind")

    kernel = [int(i) for i in np.nonzero(_mask(sp, group="zero_sets.kernel"))[0]
              if kind_of(i)]
    sweeps = np.nonzero(_mask(sp, group="zero_sets.sweep"))[0]
    sweep_set = set(int(i) for i in sweeps)
    for kind in ("prime", "ext"):
        idx = [i for i in kernel if kind_of(i) == kind]
        secs = float(sp["dur"][idx].sum())
        rows = sum(attrs[i]["rows"] for i in idx)
        out[f"zero_sets.kernel_s.{kind}"] = secs
        out[f"zero_sets.kernel_rows.{kind}"] = rows
        out[f"zero_sets.kernel_rows_per_s.{kind}"] = rows / secs if secs else 0.0
    out["zero_sets.kernel_calls"] = len(kernel)
    _, out["zero_sets.sweep_self_s"], _ = group_stats(sp, "zero_sets.sweep")

    # Rows the kernel scanned inside a sweep, per candidate class swept.
    rows_in_sweeps = sum(attrs[i]["rows"] for i in kernel
                         if _has_ancestor_in(sp, i, sweep_set))
    ranks = {}
    for i in np.nonzero(_mask(sp, name="gflinalg.row_reduce"))[0]:
        p = int(sp["parent"][i])
        if p in sweep_set and p not in ranks and int(i) in attrs:
            ranks[p] = attrs[int(i)]["rank"]
    classes = 0
    for i in sweeps:
        i = int(i)
        a = attrs.get(i, {})
        if "classes" in a:
            classes += a["classes"]
        elif "q" in a and i in ranks:
            q, k = a["q"], ranks[i]
            classes += (q ** k - 1) // (q - 1)
    out["zero_sets.rows_per_class"] = (rows_in_sweeps / classes
                                       if classes else 0.0)

    simple = {
        "finite_field.build": ("build_s", "builds"),
        "finite_field.arr": ("arr_s", "arr_calls"),
        "weighted_space.enumerate": ("enumerate_s", None),
        "weighted_space.canonicalize": ("canonicalize_s",
                                        "canonicalize_calls"),
        "weighted_poly.evaluate_many": ("evaluate_many_s",
                                        "evaluate_many_calls"),
        "weighted_poly.product": ("product_s", None),
        "weighted_poly.monomial_basis": ("monomial_basis_s", None),
        "zero_sets.count_zeros": ("count_zeros_s", None),
        "zero_sets.family": ("family_s", None),
        "zero_sets.monomial_matrix": ("monomial_matrix_s", None),
        "zero_sets.torus": ("torus_s", "torus_calls"),
        "plane_lines.lines": ("lines_s", None),
    }
    for group, (secs_name, calls_name) in simple.items():
        layer = group.split(".")[0]
        incl, _, calls = group_stats(sp, group)
        out[f"{layer}.{secs_name}"] = incl
        if calls_name:
            out[f"{layer}.{calls_name}"] = calls

    out["weighted_poly.point_evals"] = sum(a["points"] for a in attrs.values()
                                           if "points" in a)

    enum = [a for a in attrs.values() if "enumerated" in a]
    out["weighted_space.enumerations"] = len(enum)
    out["weighted_space.points"] = sum(a["enumerated"] for a in enum)

    rr = np.nonzero(_mask(sp, group="gflinalg.row_reduce"))[0]
    for kind in ("prime", "ext"):
        out[f"gflinalg.row_reduce_s.{kind}"] = float(sum(
            sp["dur"][i] for i in rr
            if kind_of(i) == kind and not sp["nested"][i]))
    out["gflinalg.row_reduce_calls"] = len(rr)

    for group, name in (("codes.build_code", "build_code_s"),
                        ("codes.code_parameters", "code_parameters_s"),
                        ("codes.witness", "witness_s")):
        out[f"codes.{name}"] = group_stats(sp, group)[1]
    for suite in SUITE_FUNCTIONS:
        out[f"verify.{suite}_s"] = group_stats(sp, f"verify.{suite}")[0]
    out["cli.self_s"] = group_stats(sp, "cli.main")[1]
    return out
