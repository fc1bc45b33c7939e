"""Outside-in tracer for the cvdiscord library.

``Tracer.install`` wraps every public function of the library modules at
its defining module and at every ``cvdiscord`` module that bound the same
object with ``from ... import`` (``cli.read_records`` and
``verifier.sample_gaussian`` are names of their own), plus the
``RecordSet.select_pair`` method.  ``uninstall`` puts every original back;
no library file is edited.  While ``op`` is set, each call records one span
in memory: name, start, end, parent span, and counters taken from its
arguments and result.  ``layer_metrics`` turns the spans into the
per-layer metrics.

Spans are kept on one stack, so traced functions must be called from one
thread; the library's sampler only uses threads inside its chunk
callbacks, which are not traced.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("states", "marginals", "sampler", "verifier", "fock", "cli")
METHODS = (("sampler", "RecordSet", "select_pair"),)

# span name -> counters from (bound arguments, result)
COUNTERS = {
    "sampler.write_records": lambda a, r: {
        "bytes": os.stat(a["path"]).st_size, "records": len(a["rs"])},
    "sampler.read_records": lambda a, r: {
        "bytes": os.stat(a["path"]).st_size, "records": len(r)},
    "sampler.sample_scheme": lambda a, r: {"records": len(r)},
    "sampler.sample_gaussian": lambda a, r: {"records": len(r)},
    "sampler.RecordSet.select_pair": lambda a, r: {
        "rows_scanned": len(a["self"]), "rows_returned": len(r)},
    "verifier.estimate_peak": lambda a, r: {"replicates": a["n_boot"]},
    "verifier.verdict_gaussian": lambda a, r: {"pairs": len(r.per_pair)},
    "verifier.verdict_mixture": lambda a, r: {"pairs": 1},
    "verifier.separation_statistic": lambda a, r: {"pairs": 1},
    "marginals.output_joint_density": lambda a, r: {
        "points": int(np.size(r))},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = None  # index of the op being recorded; None records nothing
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        holders = [m for n, m in list(sys.modules.items())
                   if n == "cvdiscord" or n.startswith("cvdiscord.")]
        for short in MODULES:
            module = sys.modules[f"cvdiscord.{short}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, name, wrapper)
        for short, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"cvdiscord.{short}"], cls_name)
            fn = vars(cls)[attr]
            self._patch(cls, attr, self._wrap(f"{short}.{cls_name}.{attr}", fn))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    def _patch(self, holder, name: str, wrapper) -> None:
        self._patches.append((holder, name, getattr(holder, name)))
        setattr(holder, name, wrapper)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = {"op": self.op, "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "nested": self._active[name] > 0, "child_s": 0.0}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._active[name] -= 1
                span["start"], span["end"] = start, end
                if span["parent"] is not None:
                    self.spans[span["parent"]]["child_s"] += end - start
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = count(bound.arguments, result)
            return result

        return wrapper

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds (outermost calls of that name
        only), self seconds (duration minus child spans) and summed
        counters."""
        out: dict[str, dict] = {}
        for span in self.spans:
            if "end" not in span:
                continue
            entry = out.setdefault(span["name"],
                                   {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            duration = span["end"] - span["start"]
            entry["calls"] += 1
            if not span["nested"]:
                entry["busy_s"] += duration
            entry["self_s"] += duration - span["child_s"]
            for key, value in span.get("counts", {}).items():
                entry[key] = entry.get(key, 0) + value
        return out


# metric names and units, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "sampler.write_records.busy_s": "s",
    "sampler.write_records.bytes": "bytes",
    "sampler.write_records.records_per_s": "1/s",
    "sampler.read_records.busy_s": "s",
    "sampler.read_records.bytes": "bytes",
    "sampler.read_records.records_per_s": "1/s",
    "sampler.sample.busy_s": "s",
    "sampler.sample.records": "count",
    "sampler.select_pair.busy_s": "s",
    "sampler.select_pair.rows_scanned_per_row_returned": "count",
    "verifier.split_by_threshold.busy_s": "s",
    "verifier.estimate_density.busy_s": "s",
    "verifier.bin_count_fd.busy_s": "s",
    "verifier.bin_count_fd.calls_per_pair": "count",
    "verifier.estimate_peak.busy_s": "s",
    "verifier.estimate_peak.replicates": "count",
    "verifier.estimate_peak.s_per_replicate": "s",
    "verifier.chi_square_two_sample.busy_s": "s",
    "verifier.verdict.busy_s": "s",
    "marginals.output_joint_density.busy_s": "s",
    "marginals.output_joint_density.points": "count",
    "marginals.output_joint_density.s_per_point": "s",
    "fock.build_ce.busy_s": "s",
    "fock.verify_classical_on_b.busy_s": "s",
    "fock.homodyne_marginal_fock.busy_s": "s",
    "fock.sign_projectors.busy_s": "s",
    "fock.sign_projectors.calls": "count",
    "states.busy_s": "s",
    "cli.self.busy_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(totals: dict[str, dict], ops: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-op values of every per-layer metric; a layer the workload does
    not call reads 0.  Busy times are inclusive of the layer's callees,
    except the ``self`` ones."""

    def total(key: str, *names: str) -> float:
        return sum(totals.get(n, {}).get(key, 0) for n in names)

    def self_time(prefix: str) -> float:
        return sum(t["self_s"] for n, t in totals.items()
                   if n.startswith(prefix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    write = total("busy_s", "sampler.write_records")
    read = total("busy_s", "sampler.read_records")
    sample = ("sampler.sample_scheme", "sampler.sample_gaussian")
    peak = total("busy_s", "verifier.estimate_peak")
    replicates = total("replicates", "verifier.estimate_peak")
    density = total("busy_s", "marginals.output_joint_density")
    points = total("points", "marginals.output_joint_density")
    pairs = total("pairs", "verifier.verdict_gaussian",
                  "verifier.verdict_mixture", "verifier.separation_statistic")
    per_run = {
        "sampler.write_records.busy_s": write,
        "sampler.write_records.bytes": total("bytes", "sampler.write_records"),
        "sampler.read_records.busy_s": read,
        "sampler.read_records.bytes": total("bytes", "sampler.read_records"),
        "sampler.sample.busy_s": total("busy_s", *sample),
        "sampler.sample.records": total("records", *sample),
        "sampler.select_pair.busy_s":
            total("busy_s", "sampler.RecordSet.select_pair"),
        "verifier.split_by_threshold.busy_s":
            total("busy_s", "verifier.split_by_threshold"),
        "verifier.estimate_density.busy_s":
            total("self_s", "verifier.estimate_density"),
        "verifier.bin_count_fd.busy_s": total("busy_s", "verifier.bin_count_fd"),
        "verifier.estimate_peak.busy_s": peak,
        "verifier.estimate_peak.replicates": replicates,
        "verifier.chi_square_two_sample.busy_s":
            total("busy_s", "verifier.chi_square_two_sample"),
        "verifier.verdict.busy_s": total("self_s", "verifier.verdict_gaussian",
                                         "verifier.verdict_mixture"),
        "marginals.output_joint_density.busy_s": density,
        "marginals.output_joint_density.points": points,
        "fock.build_ce.busy_s": total("busy_s", "fock.build_ce_zero_discord",
                                      "fock.build_ce_hidden_discord"),
        "fock.verify_classical_on_b.busy_s":
            total("busy_s", "fock.verify_classical_on_b"),
        "fock.homodyne_marginal_fock.busy_s":
            total("busy_s", "fock.homodyne_marginal_fock"),
        "fock.sign_projectors.busy_s": total("busy_s", "fock.sign_projectors"),
        "fock.sign_projectors.calls": total("calls", "fock.sign_projectors"),
        "states.busy_s": self_time("states."),
        "cli.self.busy_s": self_time("cli."),
    }
    out = {name: value / ops for name, value in per_run.items()}
    # ratios are the same per op and per run
    out["sampler.write_records.records_per_s"] = ratio(
        total("records", "sampler.write_records"), write)
    out["sampler.read_records.records_per_s"] = ratio(
        total("records", "sampler.read_records"), read)
    out["sampler.select_pair.rows_scanned_per_row_returned"] = ratio(
        total("rows_scanned", "sampler.RecordSet.select_pair"),
        total("rows_returned", "sampler.RecordSet.select_pair"))
    out["verifier.bin_count_fd.calls_per_pair"] = ratio(
        total("calls", "verifier.bin_count_fd"), pairs)
    out["verifier.estimate_peak.s_per_replicate"] = ratio(peak, replicates)
    out["marginals.output_joint_density.s_per_point"] = ratio(density, points)
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in LAYER_UNITS}
