"""Span tracing of cmvkit layers from outside the library.

The tracer replaces each traced function with a wrapper that records one
span per call: layer name, start, end, parent span and case id.  A module
function is replaced in its home module and under every alias other
cmvkit modules bound with ``from .x import name``, so no call escapes by
going through another module's namespace.  Methods are replaced on their
class, and the ``campaign`` command's callback on the click command.

``uninstall`` puts every original object back, so untraced runs measure
unwrapped code.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from functools import wraps

import numpy as np

# layer name -> (module, attribute path inside the module)
LAYERS = {
    "series.mul": ("cmvkit.series", "MatrixPowerSeries.__mul__"),
    "series.inverse": ("cmvkit.series", "MatrixPowerSeries.inverse"),
    "series.mark_schur": ("cmvkit.series", "MatrixPowerSeries.mark_schur"),
    "series.evaluate": ("cmvkit.series", "MatrixPowerSeries.evaluate"),
    "schur.mobius_step": ("cmvkit.schur", "mobius_step"),
    "schur.synthesize": ("cmvkit.schur", "synthesize"),
    "schur.schur_forward": ("cmvkit.schur", "schur_forward"),
    "schur.binary_transform": ("cmvkit.schur", "binary_transform"),
    "schur.SchurParameters": ("cmvkit.schur", "SchurParameters.__post_init__"),
    "linalg.hermitian_psd_sqrt": ("cmvkit.linalg", "hermitian_psd_sqrt"),
    "linalg.is_unitary": ("cmvkit.linalg", "is_unitary"),
    "linalg.numerical_rank": ("cmvkit.linalg", "numerical_rank"),
    "cmv.build": ("cmvkit.cmv", "build"),
    "cmv.unitary_truncation": ("cmvkit.cmv", "unitary_truncation"),
    "spectral.schur_of_subspace": ("cmvkit.spectral", "schur_of_subspace"),
    "spectral.first_return_amplitudes": ("cmvkit.spectral", "first_return_amplitudes"),
    "spectral.resolvent_compression": ("cmvkit.spectral", "resolvent_compression"),
    "overlap.check_overlap": ("cmvkit.overlap", "check_overlap"),
    "overlap.construct_overlap": ("cmvkit.overlap", "construct_overlap"),
    "overlap.verify_gauge": ("cmvkit.overlap", "verify_gauge"),
    "overlap.abstract_khrushchev_check": ("cmvkit.overlap", "abstract_khrushchev_check"),
    "khrushchev.verify_site_formula": ("cmvkit.khrushchev", "verify_site_formula"),
    "khrushchev.verify_range_formula": ("cmvkit.khrushchev", "verify_range_formula"),
    "khrushchev.verify_hessenberg_formula": ("cmvkit.khrushchev", "verify_hessenberg_formula"),
    "khrushchev.substitute_into_truncation": ("cmvkit.khrushchev", "substitute_into_truncation"),
    "khrushchev.scalar_superposition_schur": ("cmvkit.khrushchev", "scalar_superposition_schur"),
    "khrushchev.hessenberg_superposition": ("cmvkit.khrushchev", "hessenberg_superposition"),
    "khrushchev.compress_to_vector": ("cmvkit.khrushchev", "compress_to_vector"),
    "pathcount.oracle_first_return": ("cmvkit.pathcount", "oracle_first_return"),
    "catalog.rational_series": ("cmvkit.catalog", "rational_series"),
    "cli.campaign": ("cmvkit.cli", "campaign.callback"),
}

NO_CASE = -1


def _cmvkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cmvkit" or name.startswith("cmvkit."))]


def _resolve(module_name: str, path: str):
    """(owner, attribute, original object) for a LAYERS entry."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans of wrapped cmvkit layers while installed.

    ``case_id`` is set by the caller before each case; spans recorded
    outside a case carry NO_CASE.  Per-call hooks feed the ratios that
    need argument values: Möbius steps that can reach a returned
    coefficient, and parameters validated by SchurParameters.
    """

    def __init__(self):
        self.case_id = NO_CASE
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.case: list[int] = []
        self.nested: list[bool] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self.mobius_steps = 0
        self.useful_mobius_steps = 0
        self.alphas_validated = 0

    # -- hooks ---------------------------------------------------------------

    def _on_synthesize(self, args, kwargs):
        p = args[0] if args else kwargs["p"]
        order = args[1] if len(args) > 1 else kwargs["order"]
        self.mobius_steps += len(p)
        # coefficient k depends only on parameters 0..k
        self.useful_mobius_steps += min(len(p), order + 1)

    def _on_parameters(self, args, kwargs):
        self.alphas_validated += len(args[0].alphas)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """Span-recording stand-in for fn under the given layer name."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            idx = len(tracer.names)
            stack = tracer._stack
            tracer.names.append(name)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.case.append(tracer.case_id)
            tracer.nested.append(tracer._active[name] > 0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer._active[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._active[name] -= 1
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1

        traced.__wrapped_layer__ = name
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        hooks = {"schur.synthesize": self._on_synthesize,
                 "schur.SchurParameters": self._on_parameters}
        modules = _cmvkit_modules()
        for name, (module_name, path) in LAYERS.items():
            owner, attr, original = _resolve(module_name, path)
            wrapper = self.wrap(name, original, hooks.get(name))
            if "." in path:
                self._replace(owner, attr, original, wrapper)
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, alias, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        self.case_id = NO_CASE
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: names, start, end, parent, case, nested."""
        return (np.array(self.names, dtype=object), np.array(self.start),
                np.array(self.end), np.array(self.parent, dtype=np.int64),
                np.array(self.case, dtype=np.int64), np.array(self.nested, dtype=bool))


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so the children of a span never overlap
    and the time they cover is the sum of their durations.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def layer_totals(names, start, end, parent, nested) -> dict[str, tuple[int, float, float]]:
    """Per layer: (calls, total seconds, self seconds).

    Total time counts only the outermost span of a layer when the layer
    re-enters itself, so it is wall time spent inside the layer.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    selfs = self_times(start, end, parent)
    out = {}
    for name in LAYERS:
        mask = names == name
        outer = mask & ~np.asarray(nested, dtype=bool)
        out[name] = (int(mask.sum()), float(dur[outer].sum()), float(selfs[mask].sum()))
    return out


def is_restored() -> bool:
    """True when no cmvkit name still points at a tracing wrapper."""
    for module_name, path in LAYERS.values():
        _, _, current = _resolve(module_name, path)
        if hasattr(current, "__wrapped_layer__"):
            return False
    for module in _cmvkit_modules():
        if any(hasattr(v, "__wrapped_layer__") for v in vars(module).values()):
            return False
    return True
