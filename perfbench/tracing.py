"""Span tracing installed from outside the library.

A `Tracer` replaces every binding of a set of `gmmsense` functions (the
defining module, every module that imported the name, the package
namespace, or a class attribute for methods) with a wrapper that records a
span: name, start, end, parent span and protocol-call id. Uninstalling puts
the original objects back. Spans live in memory until `write_spans`.

Self time of a span is its duration minus the time its child spans cover;
calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

# Traced functions: (metric prefix, owner, attribute). The owner is a module
# path, or a module path plus class name for methods. The prefix names the
# layer as the module under src/gmmsense/ (`_linalg` reads `linalg`, since
# benchmark metric names may not start with an underscore).
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("protocol.run_two_step", "gmmsense.protocol", "run_two_step"),
    ("adaptive.design_classification_block", "gmmsense.adaptive", "design_classification_block"),
    ("adaptive.posterior_matrices", "gmmsense.adaptive", "posterior_matrices"),
    ("adaptive.design_reconstruction_block", "gmmsense.adaptive", "design_reconstruction_block"),
    ("adaptive.AcquisitionState.append_block", "gmmsense.adaptive:AcquisitionState", "append_block"),
    ("adaptive.measurement_log_likelihoods", "gmmsense.adaptive", "measurement_log_likelihoods"),
    ("inference.sht_run", "gmmsense.inference", "sht_run"),
    ("inference.map_classify", "gmmsense.inference", "map_classify"),
    ("inference.wiener_coefficients", "gmmsense.inference", "wiener_coefficients"),
    ("inference.map_em", "gmmsense.inference", "map_em"),
    ("design.random_orthonormal", "gmmsense.design", "random_orthonormal"),
    ("design.rip_ab", "gmmsense.design", "rip_ab"),
    ("design.eigen_sensing", "gmmsense.design", "eigen_sensing"),
    ("model.sample_signals", "gmmsense.model", "sample_signals"),
    ("model.m_step_update", "gmmsense.model", "m_step_update"),
    ("train.train_gmm", "gmmsense.train", "train_gmm"),
    ("synthetic.synth_model_pair", "gmmsense.synthetic", "synth_model_pair"),
    ("patches.patch_extract", "gmmsense.patches", "patch_extract"),
    ("linalg.sym_floored_eigh", "gmmsense._linalg", "sym_floored_eigh"),
    ("linalg.orthonormalize_rows", "gmmsense._linalg", "orthonormalize_rows"),
)

PACKAGE = "gmmsense"
# A span of this function opens a new protocol-call id for its descendants.
PROTOCOL_CALL = "protocol.run_two_step"

Observer = Callable[[tuple, dict, object], None]


@dataclass
class _Frame:
    span_id: int
    start: float
    child_time: float = 0.0


def _resolve_owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = sys.modules[module_name]
    return getattr(owner, class_name) if class_name else owner


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Records spans of the `TARGETS` functions while installed.

    observers maps a metric prefix to a callback run with (args, kwargs,
    result) after each successful call; set it before installing. It runs
    outside the span and should only store what it needs. Statistics
    accumulate across installs.
    """

    def __init__(self):
        self.observers: dict[str, Observer] = {}
        self.names = [t[0] for t in TARGETS]
        self.calls = {name: 0 for name in self.names}
        self.self_s = {name: 0.0 for name in self.names}
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self._stack: list[_Frame] = []
        self._next_span = 1
        self._protocol_call = 0
        self._current_call = 0
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for index, (name, owner_path, attr) in enumerate(TARGETS):
            owner = _resolve_owner(owner_path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(index, name, original)
            if ":" in owner_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, original, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def bindings(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every binding currently patched."""
        return list(self._patched)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _wrap(self, index: int, name: str, fn):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        observer = self.observers.get(name)
        opens_call = name == PROTOCOL_CALL
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_span
            tracer._next_span += 1
            parent = stack[-1].span_id if stack else 0
            outer_call = tracer._current_call
            if opens_call:
                tracer._protocol_call += 1
                tracer._current_call = tracer._protocol_call
            call_id = tracer._current_call
            frame = _Frame(span_id, clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                calls[name] += 1
                self_s[name] += duration - frame.child_time
                if stack:
                    stack[-1].child_time += duration
                spans.append((span_id, index, frame.start, end, parent, call_id))
                tracer._current_call = outer_call
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return wrapper

    @property
    def protocol_calls(self) -> int:
        """Protocol calls traced so far; the last one's id."""
        return self._protocol_call

    @property
    def current_call(self) -> int:
        """Id of the protocol call in progress, 0 outside one."""
        return self._current_call

    # -- output -------------------------------------------------------------

    def write_spans(self, path, header: dict) -> None:
        """Write a JSON header line, then one [id, name, start, end, parent,
        protocol_call] line per span, times in seconds since the tracer was
        created, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write(json.dumps({**header, "names": self.names}) + "\n")
            for span_id, index, start, end, parent, call_id in self.spans:
                fh.write(
                    f"[{span_id},\"{self.names[index]}\",{start - self._t0:.9f},"
                    f"{end - self._t0:.9f},{parent},{call_id}]\n"
                )
