"""In-memory span tracer and the wrappers that attach it to ``upsample``.

A span records a name, start and end (``time.perf_counter`` seconds), the
index of its parent span and the id of the request it belongs to.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its children; the program is single-threaded, so
children never overlap.

``instrument`` replaces public functions at the module attribute each caller
resolves (``cli`` calls ``deconv.deconv_revd2``, ``verify`` calls
``ops.subpixel_conv`` and its own ``max_abs_diff``), and restores the
originals on exit.  The package itself carries no tracing code.
"""
from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter

VARIANTS = ("standard", "revd", "revd2", "strd", "tdc")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name: str, parent: int, request: int):
        self.name = name
        self.parent = parent
        self.request = request
        self.start = self.end = 0.0
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.kinds: dict[int, str] = {0: "none"}  # request id -> request kind
        self._stack: list[int] = []
        self._request = 0

    @contextmanager
    def request(self, kind: str):
        rid = len(self.kinds)
        self.kinds[rid] = kind
        outer, self._request = self._request, rid
        try:
            yield rid
        finally:
            self._request = outer

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self._request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children, per span."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def dump(self) -> dict:
        fields = ["name", "start", "end", "parent", "request", "self", "attrs"]
        rows = [
            [s.name, s.start, s.end, s.parent, s.request, own, s.attrs]
            for s, own in zip(self.spans, self.self_times())
        ]
        return {"fields": fields, "spans": rows, "requests": self.kinds}


def _traced(tracer: Tracer, name: str, fn, before=None, after=None):
    """Wrap ``fn`` in a span; ``before`` may edit kwargs, ``after`` sets attrs."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before else None
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after:
            span.attrs = after(state, args, kwargs, result)
        return result

    return wrapper


def _counting(counter_index: int, mac_counter):
    """Hooks that pass a fresh MAC counter unless the caller passed one."""

    def before(args, kwargs):
        if len(args) > counter_index or kwargs.get("counter") is not None:
            return None
        counter = kwargs["counter"] = mac_counter()
        if "tiles" in kwargs and kwargs["tiles"] is not None:
            kwargs["tiles"] = list(kwargs["tiles"])
        return counter

    def after(counter, args, kwargs, result):
        if counter is None:
            return None
        attrs = {
            "macs": counter.macs,
            # compulsory float32 traffic: input, kernels and output once each
            "bytes": args[0].data.nbytes + args[1].data.nbytes + result.data.nbytes,
        }
        if "tiles" in kwargs:
            attrs["tiles"] = 1 if kwargs["tiles"] is None else len(kwargs["tiles"])
        return attrs

    return before, after


def _file_bytes(position: int, key: str):
    def after(_state, args, _kwargs, _result):
        target = args[position] if len(args) > position else None
        if isinstance(target, (str, os.PathLike)):
            return {key: os.path.getsize(target)}
        return None

    return after


@contextmanager
def instrument(tracer: Tracer):
    """Route the package's public calls through ``tracer`` while active."""
    from upsample import cli, deconv, ops, tensorfile, transforms, verify

    patches = []

    def patch(module, attr, name, before=None, after=None):
        patches.append((module, attr, getattr(module, attr), name, before, after))

    patch(cli, "main", "cli.main")
    for v in VARIANTS:
        patch(deconv, f"deconv_{v}", f"deconv.{v}", *_counting(3, ops.MacCounter))
    for attr in ("subpixel_conv", "resize_conv"):
        patch(ops, attr, f"ops.{attr}", *_counting(4, ops.MacCounter))
    patch(tensorfile, "read_tensor", "tensorfile.read_tensor", after=_file_bytes(0, "bytes_read"))
    patch(tensorfile, "read_package", "tensorfile.read_package", after=_file_bytes(0, "bytes_read"))
    patch(tensorfile, "write_tensor", "tensorfile.write_tensor", after=_file_bytes(1, "bytes_written"))
    for attr in ("weight_shuffle", "weight_convolution", "tdc_transform_kernels"):
        patch(transforms, attr, f"transforms.{attr}")
    patch(verify, "max_abs_diff", "verify.max_abs_diff")

    # `verify` holds its default variants by reference, so the suite gets a
    # traced map through its public `variants=` argument instead.
    traced_variants = {
        name: _traced(tracer, f"verify.{name}", fn)
        for name, fn in verify.DEFAULT_VARIANTS.items()
    }

    def with_variants(args, kwargs):
        if len(args) < 5 and kwargs.get("variants") is None:
            kwargs["variants"] = traced_variants

    patch(verify, "run_equivalence_suite", "verify.run_equivalence_suite", with_variants)

    try:
        for module, attr, fn, name, before, after in patches:
            setattr(module, attr, _traced(tracer, name, fn, before, after))
        yield tracer
    finally:
        for module, attr, fn, *_ in patches:
            setattr(module, attr, fn)
