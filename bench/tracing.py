"""Span recording for the traced benchmark run, installed from outside.

The package looks up its stage functions as module attributes at call time
(``pipeline.run`` calls ``estimate_pv`` through the ``camelion.pipeline``
module globals, ``synth.fit`` through the ``camelion.synth`` module, and so
on). ``install`` rebinds those attributes to wrappers that record one span per
call: name, start, end, parent span id and the id of the unit of work (a
subject, a workflow command or a set-up) it belongs to, plus exact work counts
computed from the call's inputs and outputs. Nothing under ``src/`` changes,
and untraced runs never call ``install``.

Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory span store shared by every wrapper in one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # unit and phase are set by the main thread; worker threads (the
        # phantom's cohort pool) inherit them and hang their spans off the
        # unit's root span
        self.unit = None
        self.phase = None
        self.root = None  # id of the open unit's root span

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name, start, end, parent, span_id=None, **counts):
        self.spans.append({
            "id": next(self._ids) if span_id is None else span_id,
            "parent": parent,
            "unit": self.unit,
            "phase": self.phase,
            "name": name,
            "start": start,
            "end": end,
            **counts,
        })

    @contextmanager
    def unit_of_work(self, phase: str, unit: str):
        """Root span of one unit; every span recorded inside shares its id."""
        prev = (self.phase, self.unit, self.root)
        self.phase, self.unit = phase, unit
        root = self.root = next(self._ids)
        stack = self._stack()
        stack.append(root)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.record(f"{phase}.unit", start, end, None, span_id=root)
            self.phase, self.unit, self.root = prev

    def wrap(self, fn, name: str, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.root
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer.record(name, start, end, parent, span_id=span_id, error=True)
                raise
            end = time.perf_counter()
            stack.pop()
            counts = counter(args, kwargs, result) if counter is not None else {}
            tracer.record(name, start, end, parent, span_id=span_id, **counts)
            return result

        traced.__wrapped_by_bench__ = True
        return traced

    def dump(self, path) -> None:
        dump_spans(self.spans, path)


def dump_spans(spans, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spans))


# ---- exact work counts, computed at the span boundary ----------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _loop_counts(args, kwargs, result):
    return {"iterations": len(result.records), "converged": bool(result.converged)}


def _atlas_set(args, kwargs, result):
    digest = hashlib.blake2b(digest_size=16)
    for pair in _arg(args, kwargs, 0, "atlases"):
        digest.update(pair.labels.data.tobytes())
        digest.update(pair.image.data.tobytes())
    return {"atlas_set": digest.hexdigest()}


def _pv_voxels(args, kwargs, result):
    import numpy as np

    return {"voxels": int(np.count_nonzero(_arg(args, kwargs, 1, "labels").data))}


def _edt_count(args, kwargs, result):
    import numpy as np

    labels = _arg(args, kwargs, 0, "labels")
    per_class = np.bincount(labels.data.ravel(), minlength=labels.num_classes + 1)[1:]
    return {"edt": int(np.count_nonzero(per_class))}


def _synth_voxels(args, kwargs, result):
    import numpy as np

    pv = _arg(args, kwargs, 1, "pv")
    return {"voxels": int(np.count_nonzero(pv.channels.any(axis=0)))}


def _read_counts(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path), "path": str(path)}


def _write_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# (module, attribute, span name, counter). A function imported by name into
# several modules is rebound in each module that calls it.
TARGETS = [
    ("camelion.pipeline", "run", "pipeline.run", _loop_counts),
    ("camelion.cli", "run", "pipeline.run", _loop_counts),
    ("camelion.pipeline", "precompute_atlas_pv", "pipeline.precompute_atlas_pv", _atlas_set),
    ("camelion.pipeline", "run_direct", "pipeline.run_direct", None),
    ("camelion.cli", "run_direct", "pipeline.run_direct", None),
    ("camelion.pipeline", "run_nhm", "pipeline.run_nhm", None),
    ("camelion.cli", "run_nhm", "pipeline.run_nhm", None),
    ("camelion.pipeline", "estimate_pv", "pv.estimate_pv", _pv_voxels),
    ("camelion.pv", "second_class_map", "pv.second_class_map", _edt_count),
    ("camelion.pipeline", "train", "segmenter.train", None),
    ("camelion.segmenter", "label_frequency", "segmenter.label_frequency", None),
    ("camelion.pipeline", "predict", "segmenter.predict", None),
    ("camelion.synth", "fit", "synth.fit", None),
    ("camelion.pipeline", "synthesize", "synth.synthesize", _synth_voxels),
    ("camelion.phantom", "generate_cohort", "phantom.generate_cohort", None),
    ("camelion.cli", "generate_cohort", "phantom.generate_cohort", None),
    ("camelion.phantom", "generate_label_phantom", "phantom.generate_label_phantom", None),
    ("camelion.phantom", "downsample_to_pv", "phantom.downsample_to_pv", None),
    ("camelion.phantom", "restrict_to_top_two", "phantom.restrict_to_top_two", None),
    ("camelion.phantom", "render", "phantom.render", None),
    ("camelion.harmonize", "landmarks", "harmonize.landmarks", None),
    ("camelion.harmonize", "apply", "harmonize.apply", None),
    ("camelion.metrics", "dice", "metrics.dice", None),
    ("camelion.metrics", "write_trajectory", "metrics.write_trajectory", None),
    ("camelion.volumes", "read_mvf", "volumes.read_mvf", _read_counts),
    ("camelion.cli", "read_mvf", "volumes.read_mvf", _read_counts),
    ("camelion.volumes", "write_mvf", "volumes.write_mvf", _write_counts),
    ("camelion.cli", "write_mvf", "volumes.write_mvf", _write_counts),
    ("camelion.pipeline", "write_mvf", "volumes.write_mvf", _write_counts),
    ("camelion.phantom", "write_mvf", "volumes.write_mvf", _write_counts),
]


@contextmanager
def installed(tracer: Tracer):
    """Rebind every target attribute to a recording wrapper; restore on exit."""
    # import every module before rebinding anything, so no module binds a
    # wrapper through its own `from .x import y` at import time
    modules = {name: importlib.import_module(name) for name, *_ in TARGETS}
    originals = []
    try:
        for module_name, attr, name, counter in TARGETS:
            module = modules[module_name]
            fn = getattr(module, attr)
            if getattr(fn, "__wrapped_by_bench__", False):
                raise RuntimeError(f"{module_name}.{attr} is already traced")
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, counter))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


# ---- per-layer aggregation -------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        covered = _union_length(
            (max(k["start"], s["start"]), min(k["end"], s["end"]))
            for k in kids
            if k["end"] > s["start"] and k["start"] < s["end"]
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# Per-layer metrics: (name, unit). Every traced run emits all of them; a layer
# that is not on a workload's path reports 0 there.
PER_LAYER = [
    ("pipeline.run.s", "s"),
    ("pipeline.run.self_s", "s"),
    ("pipeline.precompute_atlas_pv.s", "s"),
    ("pipeline.precompute_atlas_pv.self_s", "s"),
    ("pipeline.precompute_atlas_pv.useful_ratio", "ratio"),
    ("pipeline.iterations", "count"),
    ("pipeline.converged_frac", "ratio"),
    ("pv.estimate_pv.calls", "count"),
    ("pv.estimate_pv.s", "s"),
    ("pv.second_class_map.s", "s"),
    ("pv.edt_count", "count"),
    ("pv.voxels", "count"),
    ("segmenter.train.calls", "count"),
    ("segmenter.train.s", "s"),
    ("segmenter.label_frequency.s", "s"),
    ("segmenter.predict.calls", "count"),
    ("segmenter.predict.s", "s"),
    ("synth.fit.calls", "count"),
    ("synth.fit.s", "s"),
    ("synth.synthesize.calls", "count"),
    ("synth.synthesize.s", "s"),
    ("synth.synthesize.voxels", "count"),
    ("phantom.generate_label_phantom.s", "s"),
    ("phantom.downsample_to_pv.s", "s"),
    ("phantom.restrict_to_top_two.s", "s"),
    ("phantom.render.s", "s"),
    ("volumes.read_mvf.calls", "count"),
    ("volumes.read_mvf.bytes", "count"),
    ("volumes.read_mvf.s", "s"),
    ("volumes.write_mvf.calls", "count"),
    ("volumes.write_mvf.bytes", "count"),
    ("volumes.write_mvf.s", "s"),
    ("harmonize.landmarks.s", "s"),
    ("harmonize.apply.s", "s"),
    ("metrics.dice.calls", "count"),
    ("metrics.dice.s", "s"),
    ("metrics.write_trajectory.s", "s"),
    ("cli.import_s", "s"),
    ("cli.phantom.s", "s"),
    ("cli.run.direct.s", "s"),
    ("cli.run.nhm.s", "s"),
    ("cli.run.camelion.s", "s"),
    ("cli.eval.s", "s"),
    ("cli.eval.reference_useful_ratio", "ratio"),
    ("trace.subjects_per_s", "1/s"),
    ("trace.workflow_s", "s"),
    ("trace.spans", "count"),
]


def per_layer(spans, units: int, setups: int, traced: dict) -> dict:
    """Per-layer metrics from one traced run.

    Seconds and counts are per unit of work of the measured phase: per
    subject on the loop workloads, per workflow on operator_cli. On the loop
    workloads the phantom only runs during set-up, so its metrics there are
    per set-up. The cli.* seconds are means per command. ``traced`` holds the
    traced run's own end-to-end figures (subjects_per_s, workflow_s).
    """
    measured = [s for s in spans if s["phase"] == "measure"]
    setup = [s for s in spans if s["phase"] == "setup"]
    selfs = self_times(spans)
    units = max(units, 1)

    def named(name, pool=measured):
        return [s for s in pool if s["name"] == name]

    def seconds(name, pool=measured, per=units):
        return sum(s["end"] - s["start"] for s in named(name, pool)) / per

    def calls(name):
        return len(named(name)) / units

    def summed(name, key):
        return sum(s.get(key, 0) for s in named(name)) / units

    def mean_of(name, key):
        got = [float(s[key]) for s in named(name) if key in s]
        return sum(got) / len(got) if got else 0.0

    def command_mean(name):
        got = [s["end"] - s["start"] for s in named(name)]
        return sum(got) / len(got) if got else 0.0

    # precompute calls that did real work (ran estimate_pv) vs distinct
    # atlas sets among them
    pv_parents = {s["parent"] for s in named("pv.estimate_pv")}
    computing = [s for s in named("pipeline.precompute_atlas_pv") if s["id"] in pv_parents]
    atlas_ratio = (len({s["atlas_set"] for s in computing}) / len(computing)) if computing else 1.0

    # eval: subjects that had runs to evaluate vs reference run_direct calls
    eval_units = {s["unit"] for s in named("cli.eval")}
    eval_spans = [s for s in measured if s["unit"] in eval_units]
    run_subjects = {
        (s["unit"], Path(s["path"]).parent.parent.name)
        for s in eval_spans
        if s["name"] == "volumes.read_mvf" and s["path"].endswith("labels_final.mvf")
    }
    ref_calls = sum(1 for s in eval_spans if s["name"] == "pipeline.run_direct")
    eval_ratio = len(run_subjects) / ref_calls if ref_calls else 0.0

    if named("phantom.generate_label_phantom"):
        phantom_pool, phantom_per = measured, units
    else:
        phantom_pool, phantom_per = setup, max(setups, 1)

    values = {
        "pipeline.run.s": seconds("pipeline.run"),
        "pipeline.run.self_s": sum(selfs[s["id"]] for s in named("pipeline.run")) / units,
        "pipeline.precompute_atlas_pv.s": seconds("pipeline.precompute_atlas_pv"),
        "pipeline.precompute_atlas_pv.self_s": sum(
            selfs[s["id"]] for s in named("pipeline.precompute_atlas_pv")) / units,
        "pipeline.precompute_atlas_pv.useful_ratio": atlas_ratio,
        "pipeline.iterations": mean_of("pipeline.run", "iterations"),
        "pipeline.converged_frac": mean_of("pipeline.run", "converged"),
        "pv.estimate_pv.calls": calls("pv.estimate_pv"),
        "pv.estimate_pv.s": seconds("pv.estimate_pv"),
        "pv.second_class_map.s": seconds("pv.second_class_map"),
        "pv.edt_count": summed("pv.second_class_map", "edt"),
        "pv.voxels": summed("pv.estimate_pv", "voxels"),
        "segmenter.train.calls": calls("segmenter.train"),
        "segmenter.train.s": seconds("segmenter.train"),
        "segmenter.label_frequency.s": seconds("segmenter.label_frequency"),
        "segmenter.predict.calls": calls("segmenter.predict"),
        "segmenter.predict.s": seconds("segmenter.predict"),
        "synth.fit.calls": calls("synth.fit"),
        "synth.fit.s": seconds("synth.fit"),
        "synth.synthesize.calls": calls("synth.synthesize"),
        "synth.synthesize.s": seconds("synth.synthesize"),
        "synth.synthesize.voxels": summed("synth.synthesize", "voxels"),
        "volumes.read_mvf.calls": calls("volumes.read_mvf"),
        "volumes.read_mvf.bytes": summed("volumes.read_mvf", "bytes"),
        "volumes.read_mvf.s": seconds("volumes.read_mvf"),
        "volumes.write_mvf.calls": calls("volumes.write_mvf"),
        "volumes.write_mvf.bytes": summed("volumes.write_mvf", "bytes"),
        "volumes.write_mvf.s": seconds("volumes.write_mvf"),
        "harmonize.landmarks.s": seconds("harmonize.landmarks"),
        "harmonize.apply.s": seconds("harmonize.apply"),
        "metrics.dice.calls": calls("metrics.dice"),
        "metrics.dice.s": seconds("metrics.dice"),
        "metrics.write_trajectory.s": seconds("metrics.write_trajectory"),
        "cli.import_s": command_mean("cli.import"),
        "cli.phantom.s": command_mean("cli.phantom"),
        "cli.run.direct.s": command_mean("cli.run.direct"),
        "cli.run.nhm.s": command_mean("cli.run.nhm"),
        "cli.run.camelion.s": command_mean("cli.run.camelion"),
        "cli.eval.s": command_mean("cli.eval"),
        "cli.eval.reference_useful_ratio": eval_ratio,
        "trace.subjects_per_s": traced.get("subjects_per_s", 0.0),
        "trace.workflow_s": traced.get("workflow_s", 0.0),
        "trace.spans": len(measured) / units,
    }
    for short in ("generate_label_phantom", "downsample_to_pv", "restrict_to_top_two", "render"):
        values[f"phantom.{short}.s"] = seconds(f"phantom.{short}", phantom_pool, phantom_per)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
