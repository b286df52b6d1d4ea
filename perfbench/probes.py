"""Span probes around the public functions of each ``repro`` layer.

Tracing is done entirely from the benchmark's side: :class:`Probes`
replaces a function or method with a wrapper that records a span and
calls the original, and puts the original back on :meth:`uninstall`.
A function imported with ``from ... import`` is bound under several
module names; each binding its callers use is patched, or calls made
through the missed name go unrecorded.

Forked campaign workers inherit the wrappers, but leave through
``os._exit``, which skips ``atexit``; the wrapper around
``worker_process_entry`` therefore writes the worker's spans in a
``finally``, one file per process.
"""

from __future__ import annotations

import functools
import importlib
import os
from pathlib import Path

from perfbench.spans import Recorder

# (module, attribute, span name): module-level functions, patched under
# every module name their callers look them up by.
FUNCTIONS = (
    ("repro.program.generator", "generate_program", "program.generate"),
    ("repro.program.generator", "program_for", "program.lookup"),
    ("repro.program", "program_for", "program.lookup"),
    ("repro.core.simulator", "program_for", "program.lookup"),
    ("repro.trace.walker", "dynamic_stats", "trace.dynamic_stats"),
    ("repro.trace", "dynamic_stats", "trace.dynamic_stats"),
    ("repro.sweeps.run", "run_sweep", "sweeps.run_sweep"),
    ("repro.sweeps", "run_sweep", "sweeps.run_sweep"),
    ("repro.campaign.worker", "_execute_lease", "campaign.lease_exec"),
)

# (module, class, method, span name): methods are looked up on the
# class at call time, so one patch covers every caller and subclass.
METHODS = (
    ("repro.core.simulator", "Simulator", "__init__", "core.construct"),
    ("repro.backend.reference", "ReferenceBackend", "warm",
     "backend.warm"),
    ("repro.backend.reference", "ReferenceBackend", "advance",
     "backend.advance"),
    ("repro.backend.reference", "ReferenceBackend", "result",
     "backend.result"),
    ("repro.experiments.session", "ExperimentSession", "plan",
     "campaign.plan"),
    ("repro.experiments.session", "ExperimentSession", "run_cells",
     "session.run_cells"),
    ("repro.campaign.engine", "Campaign", "execute", "campaign.execute"),
    ("repro.campaign.queue", "CellQueue", "lease", "campaign.queue.lease"),
    ("repro.campaign.queue", "CellQueue", "ack", "campaign.queue.ack"),
    ("repro.campaign.queue", "CellQueue", "nack", "campaign.queue.nack"),
    ("repro.campaign.queue", "CellQueue", "unlease",
     "campaign.queue.unlease"),
    ("repro.experiments.cache", "ResultCache", "get", "cache.get"),
    ("repro.experiments.cache", "ResultCache", "put", "cache.put"),
    ("repro.obs.journal", "Journal", "emit", "obs.emit"),
)


def _key_arg(args, kwargs):
    return kwargs.get("key", args[1] if len(args) > 1 else None)


def _cycles_attrs(args, kwargs):
    return {"cycles": kwargs.get("cycles", args[1] if len(args) > 1
                                 else 0),
            "engine": args[0].simulator.engine.name}


def _execute_attrs(args, kwargs):
    spawn = kwargs.get("spawn", False)
    return {"workers": kwargs.get("workers", 1) if spawn else 1}


# Span name -> (attrs from the call, attrs from the return value).
ANNOTATE = {
    "backend.warm": (_cycles_attrs, None),
    "backend.advance": (_cycles_attrs, None),
    "campaign.execute": (_execute_attrs, None),
    "campaign.queue.lease": (None, lambda r: {"n": len(r)}),
    "cache.get": (None, lambda r: {"hit": r is not None}),
}
KEYED = {"campaign.queue.ack", "campaign.queue.nack",
         "campaign.queue.unlease", "cache.get", "cache.put"}


def traced(recorder: Recorder, fn, name: str):
    """``fn`` wrapped so each call records a span named ``name``."""
    before, after = ANNOTATE.get(name, (None, None))
    keyed = name in KEYED

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(
            name, key=_key_arg(args, kwargs) if keyed else None,
            **(before(args, kwargs) if before else {}))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if after is not None:
            span.attrs.update(after(result))
        return result

    return wrapper


class Probes:
    """Installs and removes the span wrappers for one process.

    Args:
        recorder: Where spans go.
        span_dir: Directory for per-process span files; needed only
            when campaign workers are forked from this process.
    """

    def __init__(self, recorder: Recorder, span_dir=None) -> None:
        self.recorder = recorder
        self.span_dir = span_dir
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Probes":
        wrapped: dict[int, object] = {}
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            new = wrapped.get(id(fn))
            if new is None:
                new = wrapped[id(fn)] = traced(self.recorder, fn, name)
            self._patch(module, attr, new)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr,
                        traced(self.recorder, cls.__dict__[attr], name))
        report = importlib.import_module("repro.sweeps.report")
        for fmt, fn in list(report.FORMATTERS.items()):
            self._undo.append((report.FORMATTERS, fmt, fn))
            report.FORMATTERS[fmt] = traced(self.recorder, fn,
                                            "sweeps.render")
        worker = importlib.import_module("repro.campaign.worker")
        self._patch(worker, "worker_process_entry",
                    self._flushing(worker.worker_process_entry))
        return self

    def install_cli(self, module) -> None:
        """Wrap a CLI script module's report renderer, if it has one."""
        if hasattr(module, "emit_markdown"):
            self._patch(module, "emit_markdown",
                        traced(self.recorder, module.emit_markdown,
                               "cli.render"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _flushing(self, entry):
        recorder, span_dir = self.recorder, self.span_dir

        @functools.wraps(entry)
        def worker_entry(*args, **kwargs):
            recorder.reset()
            try:
                return entry(*args, **kwargs)
            finally:
                if span_dir is not None:
                    recorder.dump(Path(span_dir)
                                  / f"spans-{os.getpid()}.json")

        return worker_entry
