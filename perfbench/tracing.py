"""Per-layer spans and counters for the traced benchmark run.

Tracing rebinds, in ``cstg.cli``'s namespace only, the entry points that the
CLI calls into each layer, to timing wrappers defined here.  Calls that one
layer makes into another inside the library are left alone, so every span
covers exactly one call from ``cli`` into a layer and spans never nest.  A
layer's self time is therefore the op time minus the sum of its spans.

Triple colours (chi) are counted by ``CountingChiCache``.  It reaches the
library through the public ``chi_cache=`` parameter of ``extract_pattern``,
``extract_plane_path`` and ``phi_table``, and replaces ``ChiCache`` in the CLI
for ``tables chi``, where each ``get`` is a call from ``cli`` into
``chromatics`` and is timed as such.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

from cstg import cli, codec, generators, oracles, svg
from cstg.chromatics import ChiCache
from cstg.errors import BudgetExhausted


class CountingChiCache(ChiCache):
    """ChiCache that counts lookups; every miss leaves one memo entry."""

    def __init__(self, ad):
        super().__init__(ad)
        self.calls = 0
        self.seconds = 0.0

    def get(self, i, j, k):
        self.calls += 1
        return ChiCache.get(self, i, j, k)

    @property
    def misses(self) -> int:
        return len(self._memo)


class TimedChiCache(CountingChiCache):
    """The CLI's own ChiCache: each lookup is a span into chromatics."""

    def get(self, i, j, k):
        t0 = perf_counter()
        value = CountingChiCache.get(self, i, j, k)
        self.seconds += perf_counter() - t0
        return value


class _LayerProxy:
    """Stands in for a module in cli's namespace; unwrapped names fall through."""

    def __init__(self, module, **wrapped):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.ms = defaultdict(float)  # "<layer>.<name>" -> total span ms
        self.counts = defaultdict(int)
        self.records = []  # one dict per finished op, spans included
        self._spans = []
        self._caches = []

    def span(self, layer: str, name: str, t0: float, t1: float) -> None:
        self._spans.append((layer, name, t0, t1))
        self.ms[f"{layer}.{name}"] += (t1 - t0) * 1000.0

    def chi_cache(self, ad, cls=CountingChiCache):
        cache = cls(ad)
        self._caches.append(cache)
        return cache

    def begin_op(self) -> None:
        self._spans = []
        self._caches = []

    def end_op(self, label: str, t0: float, t1: float) -> None:
        child = sum(s[3] - s[2] for s in self._spans)
        for cache in self._caches:
            self.counts["chromatics.chi_calls"] += cache.calls
            self.counts["chromatics.chi_misses"] += cache.misses
            if isinstance(cache, TimedChiCache):
                # the CLI looks up one chi value per `tables chi` row
                self.counts["chromatics.table_rows"] += cache.calls
                child += cache.seconds
                self.ms["chromatics.chi"] += cache.seconds * 1000.0
        self.ms["cli.self"] += (t1 - t0 - child) * 1000.0
        self.ms["op"] += (t1 - t0) * 1000.0
        spans = [
            {"layer": layer, "name": name, "start": s, "end": e}
            for layer, name, s, e in self._spans
        ]
        chi_seconds = sum(c.seconds for c in self._caches)
        if chi_seconds:
            # one aggregate record: per-lookup spans would number millions
            spans.append(
                {"layer": "chromatics", "name": "chi", "seconds": chi_seconds,
                 "calls": sum(c.calls for c in self._caches)}
            )
        self.records.append({"op": label, "start": t0, "end": t1, "spans": spans})


def _timed(tracer: Tracer, layer: str, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.span(layer, name, t0, perf_counter())
        if after is not None:
            after(result, *args)
        return result

    return wrapper


def install(tracer: Tracer):
    """Rebinds cli's layer entry points to traced wrappers; returns an undo."""
    c = tracer.counts
    orig = {
        name: getattr(cli, name)
        for name in (
            "extract_pattern", "extract_plane_path", "validate_observation",
            "phi_table", "ChiCache", "verify_certificate",
            "codec", "generators", "oracles", "svg",
        )
    }

    def extract_pattern(ad, m1, m2, chi_cache=None):
        cache = chi_cache if chi_cache is not None else tracer.chi_cache(ad)
        t0 = perf_counter()
        try:
            out = orig["extract_pattern"](ad, m1, m2, chi_cache=cache)
        finally:
            tracer.span("extraction", "extract", t0, perf_counter())
        c["extraction.attempts"] += 1
        c["extraction.certified"] += out.certificate is not None
        c["extraction.stages"] += out.stats.stages
        c["ramsey.edges_built"] += out.stats.total_edges
        c["ramsey.zero_edge_stages"] += out.stats.zero_edge_stages
        return out

    def extract_plane_path(ad, chi_cache=None, **kwargs):
        cache = chi_cache if chi_cache is not None else tracer.chi_cache(ad)
        t0 = perf_counter()
        try:
            out = orig["extract_plane_path"](ad, chi_cache=cache, **kwargs)
        finally:
            tracer.span("planepath", "extract", t0, perf_counter())
        c["planepath.attempts"] += 1
        c["planepath.increasing"] += out.stats.branch == "increasing"
        c["planepath.steps"] += out.stats.steps
        return out

    def phi_table(ad, chi_cache=None):
        cache = chi_cache if chi_cache is not None else tracer.chi_cache(ad)
        t0 = perf_counter()
        try:
            table = orig["phi_table"](ad, cache)
        finally:
            tracer.span("chromatics", "phi", t0, perf_counter())
        pairs = (ad.n - 1) * (ad.n - 2) // 2
        c["chromatics.phi_pairs"] += pairs
        c["chromatics.table_rows"] += pairs  # `tables phi` writes one row per pair
        return table

    def after_validate(report, *args):
        c["chromatics.triples_checked"] += report.triples_checked

    def after_verify(report, *args):
        c["drawing.verify_checks"] += report.checked

    def after_load(result, path):
        c["codec.bytes_read"] += os.path.getsize(path)

    def after_save(result, cert, path):
        c["codec.bytes_written"] += os.path.getsize(path)

    def after_encode(text, *args):
        c["codec.bytes_written"] += len(text.encode("utf-8"))

    def after_decode(result, text):
        c["codec.bytes_read"] += len(text.encode("utf-8"))

    def after_render(text, *args):
        c["svg.bytes"] += len(text.encode("utf-8"))

    def search(fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BudgetExhausted as exc:
                result = exc.payload
                raise
            finally:
                tracer.span("oracles", "search", t0, perf_counter())
                c["oracles.searches"] += 1
                if result is not None:
                    c["oracles.exact"] += bool(result.exact)
                    c["oracles.nodes"] += result.nodes

        return wrapper

    def chi_cache_factory(ad):
        return tracer.chi_cache(ad, TimedChiCache)

    cli.extract_pattern = extract_pattern
    cli.extract_plane_path = extract_plane_path
    cli.phi_table = phi_table
    cli.ChiCache = chi_cache_factory
    cli.validate_observation = _timed(
        tracer, "chromatics", "validate", orig["validate_observation"], after_validate
    )
    cli.verify_certificate = _timed(
        tracer, "drawing", "verify", orig["verify_certificate"], after_verify
    )
    cli.codec = _LayerProxy(
        codec,
        load_drawing=_timed(tracer, "codec", "decode", codec.load_drawing, after_load),
        load_certificate=_timed(tracer, "codec", "decode", codec.load_certificate, after_load),
        decode_drawing=_timed(tracer, "codec", "decode", codec.decode_drawing, after_decode),
        save_certificate=_timed(tracer, "codec", "encode", codec.save_certificate, after_save),
        encode_drawing=_timed(tracer, "codec", "encode", codec.encode_drawing, after_encode),
    )
    cli.generators = _LayerProxy(
        generators,
        anchored_view=_timed(tracer, "generators", "anchor", generators.anchored_view),
    )
    cli.oracles = _LayerProxy(
        oracles,
        max_pattern_exact=search(oracles.max_pattern_exact),
        longest_plane_path_exact=search(oracles.longest_plane_path_exact),
    )
    cli.svg = _LayerProxy(
        svg,
        render_svg=_timed(tracer, "svg", "render", svg.render_svg, after_render),
    )

    def restore():
        for name, value in orig.items():
            setattr(cli, name, value)

    return restore


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass: totals over the pass, and ratios."""
    ms, c = tracer.ms, tracer.counts
    chromatics_ms = ms["chromatics.validate"] + ms["chromatics.phi"] + ms["chromatics.chi"]
    return {
        "chromatics.validate_ms": (ms["chromatics.validate"], "ms"),
        "chromatics.triples_checked": (c["chromatics.triples_checked"], "count"),
        "chromatics.phi_ms": (ms["chromatics.phi"], "ms"),
        "chromatics.phi_pairs": (c["chromatics.phi_pairs"], "count"),
        "chromatics.chi_ms": (ms["chromatics.chi"], "ms"),
        "chromatics.table_rows": (c["chromatics.table_rows"], "count"),
        "chromatics.chi_calls": (c["chromatics.chi_calls"], "count"),
        "chromatics.chi_memo_hit_ratio": (
            _ratio(c["chromatics.chi_calls"] - c["chromatics.chi_misses"], c["chromatics.chi_calls"]),
            "ratio",
        ),
        "chromatics.op_share": (_ratio(chromatics_ms, ms["op"]), "ratio"),
        "extraction.extract_ms": (ms["extraction.extract"], "ms"),
        "extraction.stages": (c["extraction.stages"], "count"),
        "extraction.certified_ratio": (
            _ratio(c["extraction.certified"], c["extraction.attempts"]), "ratio"
        ),
        "ramsey.edges_built": (c["ramsey.edges_built"], "count"),
        "ramsey.zero_edge_stages": (c["ramsey.zero_edge_stages"], "count"),
        "planepath.extract_ms": (ms["planepath.extract"], "ms"),
        "planepath.steps": (c["planepath.steps"], "count"),
        "planepath.increasing_ratio": (
            _ratio(c["planepath.increasing"], c["planepath.attempts"]), "ratio"
        ),
        "drawing.verify_ms": (ms["drawing.verify"], "ms"),
        "drawing.verify_checks": (c["drawing.verify_checks"], "count"),
        "oracles.search_ms": (ms["oracles.search"], "ms"),
        "oracles.nodes": (c["oracles.nodes"], "count"),
        "oracles.nodes_per_s": (
            _ratio(c["oracles.nodes"], ms["oracles.search"] / 1000.0), "1/s"
        ),
        "oracles.exact_ratio": (_ratio(c["oracles.exact"], c["oracles.searches"]), "ratio"),
        "codec.decode_ms": (ms["codec.decode"], "ms"),
        "codec.encode_ms": (ms["codec.encode"], "ms"),
        "codec.bytes_read": (c["codec.bytes_read"], "B"),
        "codec.bytes_written": (c["codec.bytes_written"], "B"),
        "generators.anchor_ms": (ms["generators.anchor"], "ms"),
        "svg.render_ms": (ms["svg.render"], "ms"),
        "svg.bytes": (c["svg.bytes"], "B"),
        "cli.self_ms": (ms["cli.self"], "ms"),
    }
