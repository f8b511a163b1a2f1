"""In-memory call tracing of the ``pavls`` modules, installed from outside.

The program carries no instrumentation.  :class:`Tracer` replaces module
attributes with timing wrappers and puts the originals back on
:meth:`Tracer.uninstall`.  It patches every attribute a caller actually
looks up: ``search`` imports ``delta`` by name, so ``pavls.search.delta``
is patched next to ``pavls.core.delta``.

Two kinds of wrapper share one call stack, so every call's self time is
its duration minus the time spent in traced calls below it:

* hot calls (``delta``, ``apply_swap``, the pickers, ...) are aggregated
  per name: call count, total and self time, and a fixed-size latency
  sample, so hundreds of thousands of calls fit in memory;
* coarse calls get one span each: name, start, end, parent span.

Everything stays in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import random
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

LATENCY_SAMPLE = 20_000


class Stats:
    """Aggregated figures of one traced name within one phase."""

    __slots__ = ("calls", "total", "self_time", "sample", "counters", "_rng")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.sample: list[float] = []
        self.counters: dict[str, int] = {}
        self._rng = random.Random(0)

    def add(self, duration: float, self_time: float) -> None:
        self.calls += 1
        self.total += duration
        self.self_time += self_time
        # Reservoir sampling keeps a uniform latency sample of bounded size.
        if len(self.sample) < LATENCY_SAMPLE:
            self.sample.append(duration)
        else:
            slot = self._rng.randrange(self.calls)
            if slot < LATENCY_SAMPLE:
                self.sample[slot] = duration

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def percentile_us(self, q: float) -> float:
        """Nearest-rank percentile of the latency sample, in microseconds."""
        if not self.sample:
            return 0.0
        ordered = sorted(self.sample)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e6


class Tracer:
    """Spans and aggregates of traced calls, split into named phases."""

    def __init__(self):
        self.phases: dict[str, dict[str, Stats]] = {}
        self.spans: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # Each frame is [time spent in traced children, span id or None].
        self._stack: list[list] = [[0.0, None]]
        self.set_phase("setup")

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self.stats = self.phases.setdefault(phase, {})

    def stat(self, name: str, phase: str | None = None) -> Stats:
        table = self.phases.get(phase or self.phase, {})
        return table.get(name) or Stats()

    # -- recording -------------------------------------------------------

    def _finish(self, name: str, frame: list, start: float, end: float) -> float:
        duration = end - start
        self._stack.pop()
        self._stack[-1][0] += duration
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = Stats()
        stats.add(duration, duration - frame[0])
        return duration

    @contextmanager
    def span(self, name: str):
        """One recorded span around the enclosed block."""
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        frame = [0.0, len(self.spans)]
        record = {"id": frame[1], "parent": parent, "name": name, "phase": self.phase}
        self.spans.append(record)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._finish(name, frame, start, end)
            record.update(start=start, end=end, self=(end - start) - frame[0])

    def _hot(self, fn, name: str, extra):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._finish(name, frame, start, clock())
            if extra is not None:
                extra(tracer.stats[name], args, result)
            return result

        return wrapper

    def _coarse(self, fn, name: str, extra):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if extra is not None:
                extra(tracer.stats[name], args, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, name: str, hot: bool, extra=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper reporting as ``name``.

        An attribute the program no longer has is listed in ``missing``
        instead, so a renamed function shows up as a gap in the trace
        rather than as a crash of the benchmark.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        make = self._hot if hot else self._coarse
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, make(fn, name, extra))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # -- queries ---------------------------------------------------------

    def outer_total(self, name: str, phase: str) -> float:
        """Inclusive seconds of the spans called ``name`` that are not
        nested in another span of the same name."""
        by_id = self.spans
        return sum(
            s["end"] - s["start"]
            for s in by_id
            if s["name"] == name and s["phase"] == phase
            and (s["parent"] is None or by_id[s["parent"]]["name"] != name)
        )

    def dump(self, path: Path, meta: dict) -> None:
        """Write spans and aggregates once, at the end of the run."""
        aggregates = {
            phase: {
                name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time,
                       "us_p50": s.percentile_us(0.5), "us_p99": s.percentile_us(0.99),
                       **s.counters}
                for name, s in table.items()
            }
            for phase, table in self.phases.items()
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"meta": meta, "missing": self.missing, "aggregates": aggregates,
             "spans": self.spans}, indent=1))


def approver_counts(election) -> list[int]:
    """Number of ballot classes approving each candidate."""
    counts = [0] * election.m
    for bc in election.ballot_classes:
        for c in bc.approves:
            counts[c] += 1
    return counts


def instrument(tracer: Tracer) -> None:
    """Patch the public functions of every ``pavls`` layer."""
    from pavls import constructions, core, formats, harness, samplers, search

    counts_by_election: dict[int, tuple[object, list[int]]] = {}

    def classes_visited(stats, args, _result):
        # sum len(approvers[a]) + len(approvers[b]), from the ballots, so
        # the count does not depend on the engine's own indexes.
        election, _state, a, b = args[:4]
        entry = counts_by_election.get(id(election))
        if entry is None:
            # Holding the election keeps its id from being reused.
            entry = counts_by_election[id(election)] = (election, approver_counts(election))
        stats.count("classes_visited", entry[1][a] + entry[1][b])

    def scan_result(stats, _args, result):
        swap, _delta, used = result
        stats.count("evals", used)
        stats.count("found", swap is not None)

    def text_bytes(stats, args, result):
        text = result if isinstance(result, str) else args[0]
        stats.count("bytes", len(text.encode()))

    hot = [
        (core, "delta", "core.delta", classes_visited),
        (search, "delta", "core.delta", classes_visited),
        (core, "apply_swap", "core.apply_swap", None),
        (search, "apply_swap", "core.apply_swap", None),
        (core, "assert_quantized", "core.assert_quantized", None),
        (search, "assert_quantized", "core.assert_quantized", None),
        (core.SatisfactionState, "__init__", "core.state_init", None),
        (search, "next_swap_lex", "search.scan", scan_result),
        (search, "next_swap_best", "search.scan", scan_result),
        (samplers, "sample", "samplers.sample", None),
        (harness, "sample", "samplers.sample", None),
        (harness, "select_initial_committee", "harness.select_initial", None),
    ]
    coarse = [
        (core, "validate_sequence", "core.validate_sequence", None),
        (search, "run", "search.run", None),
        (harness, "run", "search.run", None),
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "aggregate", "harness.aggregate", None),
        (formats, "write_csv", "formats.write_csv", text_bytes),
        (harness, "write_csv", "formats.write_csv", text_bytes),
        (formats, "serialize_native", "formats.serialize_native", text_bytes),
        (formats, "parse_native", "formats.parse_native", text_bytes),
        (constructions, "layered_election", "constructions.build", None),
        (constructions, "hardened_election", "constructions.build", None),
    ]
    for owner, attr, name, extra in hot:
        tracer.patch(owner, attr, name, hot=True, extra=extra)
    for owner, attr, name, extra in coarse:
        tracer.patch(owner, attr, name, hot=False, extra=extra)
    # cached_property calls its ``func`` on first access.
    for value in vars(core.Election).values():
        if isinstance(value, functools.cached_property):
            tracer.patch(value, "func", "core.index_build", hot=True)


class _NoTrace:
    """Stands in for a :class:`Tracer` when tracing is off."""

    @staticmethod
    def span(_name: str):
        return nullcontext()


NO_TRACE = _NoTrace()
