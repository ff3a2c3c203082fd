"""Run one ``seqtext`` CLI command with layer spans recorded from outside.

    python3 bench/tracer.py OUT.json CELL -- <seqtext arguments>

The program is not changed: after importing it, this script rebinds the
public functions of each module under the names their callers look up
(``seqtext.engine.forward``, ``seqtext.cells.sigmoid``, ...) to wrappers
that time each call, then hands the arguments to ``seqtext.cli.entry``.
Spans are aggregated in memory and written to OUT.json when the command
returns. CELL labels the spans of the cell-specific layers.

Each wrapper adds its duration to the span that called it, so a span's
self time is its duration minus that of the wrapped calls inside it.
The direct children of each command handler and of each training epoch
are its top-level spans; their share of the wall time is the coverage
that tells whether the split accounts for the time. A name that a
later version of the program no longer has is listed as missing and its
spans read zero.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

# Parent span -> context of a model.forward call.
_FORWARD_CONTEXT = {
    "engine.train": "step",
    "engine.eval_pass": "eval_pass",
    "engine.evaluate": "evaluate",
    "cli.predict": "predict",
}
_COMMANDS = ("cli.preprocess", "cli.train", "cli.evaluate", "cli.predict")


class Tracer:
    def __init__(self, cell: str):
        self.cell = cell
        self.stack: list[list] = []     # [name, start, seconds in wrapped children]
        self.spans: dict[str, list] = {}  # name -> [total_s, self_s, calls]
        self.counts: dict[str, int] = {}
        self.epochs: list[tuple[float, float]] = []    # (wall_s, covered_s)
        self.commands: list[tuple[float, float]] = []  # (wall_s, covered_s)
        self.missing: list[str] = []
        self._epoch_start = None
        self._epoch_covered = 0.0

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def wrap(self, owner, attr: str, name, after=None, leaf=False) -> None:
        """Rebind ``owner.attr`` to a timed wrapper.

        ``name`` is a span name, or a callable taking the parent span's
        name (or None) and returning one. ``after(args, result)`` runs
        once the span is closed, for counts that need the call's data.
        A ``leaf`` gets a cheaper wrapper: it must call no wrapped
        function and never be a top-level span.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        stack = self.stack
        if leaf:
            setattr(owner, attr, self._leaf(fn, name))
            return

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name(parent) if callable(name) else name, perf_counter(), 0.0]
            if frame[0] == "engine.train":
                self._epoch_start, self._epoch_covered = frame[1], 0.0
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, perf_counter() - frame[1])
            if after is not None:
                try:
                    after(args, result)
                except (AttributeError, IndexError, OSError, TypeError):
                    self.count("tracer.hook_errors", 1)
            return result

        setattr(owner, attr, traced)

    def _leaf(self, fn, name: str):
        span = self.spans.setdefault(name, [0.0, 0.0, 0])
        stack = self.stack

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                span[0] += dur
                span[1] += dur
                span[2] += 1
                if stack:
                    stack[-1][2] += dur

        return timed

    def _close(self, frame: list, dur: float) -> None:
        self.stack.pop()
        span = self.spans.setdefault(frame[0], [0.0, 0.0, 0])
        span[0] += dur
        span[1] += dur - frame[2]
        span[2] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            if parent[0] == "engine.train":
                self._epoch_covered += dur
                if frame[0] == "engine.build_model":
                    self._epoch_start = perf_counter()
                    self._epoch_covered = 0.0
        if frame[0] == "engine.train":
            self._epoch_start = None
        elif frame[0] in _COMMANDS:
            self.commands.append((dur, frame[2]))

    def epoch_logged(self) -> None:
        """An epoch ends when training logs its progress line."""
        now = perf_counter()
        if self._epoch_start is not None:
            self.epochs.append((now - self._epoch_start, self._epoch_covered))
        self._epoch_start = now
        self._epoch_covered = 0.0

    def report(self, import_s: float) -> dict:
        return {"cell": self.cell, "import_s": import_s, "spans": self.spans,
                "counts": self.counts, "epochs": self.epochs,
                "commands": self.commands, "missing": self.missing}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports."""
    from seqtext import cells, cli, engine, metrics, model, optim, pipeline

    cell = tracer.cell
    w = tracer.wrap

    # cli: each command handler, and the progress log that closes an epoch
    for span in _COMMANDS:
        w(cli, "_cmd_" + span[4:], span)
    log = getattr(cli, "_log", None)
    if log is None:
        tracer.missing.append("cli._log")
    else:
        def progress(msg, *args, **kwargs):
            if isinstance(msg, str) and msg.startswith("epoch "):
                tracer.epoch_logged()
            return log(msg, *args, **kwargs)
        cli._log = progress

    # pipeline, under the names engine and cli call
    for owner in (engine, cli):
        w(owner, "clean", "pipeline.clean")
        w(owner, "make_document", "pipeline.make_document")
    w(engine, "build_vocabulary", "pipeline.build_vocabulary")
    w(pipeline.Vocabulary, "save", "pipeline.vocab_save")

    # engine
    def wrote(args, result):
        tracer.count("engine.container_bytes_written", os.path.getsize(args[0]))

    for fn in ("load_csv_dataset", "split", "corpus_stats", "save_dataset",
               "load_dataset", "load_checkpoint", "save_checkpoint", "evaluate",
               "build_model", "emit_learning_curve"):
        w(engine, fn, f"engine.{fn}")
    w(engine, "write_container", "engine.write_container", after=wrote)
    w(engine, "_stack_indices", "engine.stack_indices")
    w(engine, "_eval_loss_acc", "engine.eval_pass")
    w(engine, "train", "engine.train")

    # model, under the names engine and cli call
    def forward_name(parent):
        ctx = _FORWARD_CONTEXT.get(parent, "other")
        return f"model.forward.{ctx}" + (f".{cell}" if ctx in ("step", "eval_pass") else "")

    def forwarded(args, result):
        idx = args[1]
        tracer.count("model.forward.docs", 1 if idx.ndim == 1 else idx.shape[0])
        tracer.count("model.forward.positions", idx.size)
        tracer.count("model.forward.pad_positions", int((idx == 0).sum()))

    def stepped(args, result):
        xs = args[0]
        tracer.count("cells.steps", len(xs) * (xs.shape[1] if xs.ndim == 3 else 1))

    for owner in (engine, cli):
        w(owner, "forward", forward_name, after=forwarded)
    w(engine, "backward", f"model.backward.{cell}")
    w(engine, "loss_values", "model.loss_values")
    w(engine, "cost", "model.cost")
    w(engine, "predict_classes", "model.predict_classes")
    w(cells, "run_sequence", f"cells.run_sequence.{cell}", after=stepped)
    w(cells, "backward_sequence", f"cells.backward_sequence.{cell}")

    # linalg: the sigmoid under each name that calls it
    for owner in (cells, model):
        w(owner, "sigmoid", "linalg.sigmoid", leaf=True)

    # optim: the step method of each optimizer class
    for cls in (optim.Adam, optim.RmsProp, optim.Sgd):
        w(cls, "step", f"optim.step.{cell}")

    # metrics, under the names engine and cli call
    for fn in ("confusion", "scores", "format_report", "write_metrics"):
        w(metrics, fn, f"metrics.{fn}")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py OUT.json CELL -- <seqtext arguments>", file=sys.stderr)
        return 1
    out_path, cell, cli_args = argv[0], argv[1], argv[3:]
    t0 = perf_counter()
    import seqtext.cli
    import_s = perf_counter() - t0
    tracer = Tracer(cell)
    install(tracer)
    rc = seqtext.cli.entry(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(import_s), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
