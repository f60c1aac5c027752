"""Spans around diaghooks' public functions, recorded from outside the library.

Tracing installs wrappers at run time and leaves the library's source alone.
A module-level function is rebound in every diaghooks module that holds it:
`verify`, `formula` and `cli` bind their imports when they are imported, so
patching only the defining module would miss their calls. Methods, properties
and constructors are patched once, on the class.

Spans stay in memory as parallel arrays (name, start, end, parent span, op id,
outcome) and are written out once, when the run ends. The benchmark runs in
one thread, so spans nest strictly and a span's self time is its duration
minus the durations of its direct children.
"""

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

# `<module>.<name>` or `<module>.<Class>.<member>`; `partitions.Partition`
# traces constructions and `partitions.enumerate_partitions` traces the time
# spent inside each next() of the generator.
SPANS = (
    "verify.run_verify",
    "partitions.enumerate_partitions",
    "partitions.delta_of",
    "partitions.from_delta_lengths",
    "partitions.Partition",
    "partitions.Partition.conjugate",
    "partitions.Partition.is_symmetric",
    "beta.beta_of",
    "beta.partition_of",
    "abacus.p_core",
    "abacus.p_quotient",
    "abacus.from_core_and_quotient",
    "abacus.is_p_core",
    "abacus.is_symmetric_quotient",
    "abacus.Abacus.runner",
    "bisequence.diagonal_bisequence",
    "bisequence.is_symmetric_p_core",
    "formula.delta_general",
    "formula.delta_empty_core",
    "formula.core_counts",
    "formula.d0_shift",
    "cli.main",
    "cli.parse_partition",
)

ENUMERATE = SPANS.index("partitions.enumerate_partitions")
CONSTRUCT = SPANS.index("partitions.Partition")
DELTA_GENERAL = SPANS.index("formula.delta_general")
GUARDS = frozenset(SPANS.index(s) for s in (
    "abacus.is_p_core", "abacus.is_symmetric_quotient", "partitions.Partition.is_symmetric"))

# Span outcomes. STOPPED marks the next() that ends a generator: neither a
# yield nor an error.
OK, RAISED, STOPPED = 0, 1, 2

RATIOS = (
    ("partitions.enumerate_partitions.useful_ratio", "ratio", "higher"),
    ("formula.delta_general.guard_share", "ratio", "lower"),
)
OVERHEAD = (
    ("trace.overhead_ms_per_op", "ms/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for span in SPANS:
        out.append((f"{span}.calls_per_op", "calls/op", "lower"))
        out.append((f"{span}.self_us_per_op", "us/op", "lower"))
        out.append((f"{span}.errors_per_op", "errors/op", "lower"))
    return out + list(RATIOS) + list(OVERHEAD)


class _TracedIterator:
    def __init__(self, tracer: "Tracer", name_id: int, it):
        self._tracer = tracer
        self._name_id = name_id
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        i = self._tracer.open(self._name_id)
        try:
            item = next(self._it)
        except StopIteration:
            self._tracer.close(i, STOPPED)
            raise
        except BaseException:
            self._tracer.close(i, RAISED)
            raise
        self._tracer.close(i, OK)
        return item


class Tracer:
    """Span store plus the patches that feed it; one per traced run."""

    def __init__(self):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.outcome = array("b")
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.outcome.append(OK)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, outcome: int) -> None:
        self.end[i] = time.perf_counter()
        self.outcome[i] = outcome
        self._stack.pop()

    def _wrap(self, name_id: int, fn):
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(name_id)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                close(i, RAISED)
                raise
            close(i, OK)
            return out

        return traced

    def _wrap_generator(self, name_id: int, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedIterator(self, name_id, fn(*args, **kwargs))

        return traced

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every span of SPANS in the diaghooks modules already imported."""
        modules = [m for n, m in sys.modules.items() if n == "diaghooks" or n.startswith("diaghooks.")]
        for name_id, span in enumerate(SPANS):
            module_name, _, qualname = span.partition(".")
            owner = sys.modules["diaghooks." + module_name]
            cls_name, _, member = qualname.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[member]
                if isinstance(original, property):
                    replacement = property(self._wrap(name_id, original.fget))
                else:
                    replacement = self._wrap(name_id, original)
                self._patch(cls, member, original, replacement)
                continue
            original = getattr(owner, member)
            if inspect.isclass(original):
                init = original.__dict__["__init__"]
                self._patch(original, "__init__", init, self._wrap(name_id, init))
                continue
            wrap = self._wrap_generator if inspect.isgeneratorfunction(original) else self._wrap
            replacement = wrap(name_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self, labels: list[str]) -> tuple[dict, dict]:
        """Per-layer metrics over the traced ops, and calls per op by op label.

        labels[k] names op k (its kind, and p for queries). Spans recorded
        outside an op are ignored.
        """
        n_ops = len(labels)
        k = len(SPANS)
        n = len(self.start)
        name, start, end, parent, op, outcome = self.name, self.start, self.end, self.parent, self.op, self.outcome
        covered = array("d", bytes(8 * n))
        for i in range(n):
            par = parent[i]
            if par >= 0:
                covered[par] += end[i] - start[i]
        calls = [0] * k
        self_s = [0.0] * k
        errors = [0] * k
        by_label: dict[str, list[int]] = {}
        # Parents precede their children, so one forward pass can tell which
        # spans run inside enumerate_partitions or delta_general.
        in_enum = bytearray(n)
        in_delta = bytearray(n)
        yields = constructed = 0
        guard_s = delta_s = 0.0
        for i in range(n):
            if op[i] < 0:
                continue
            s = name[i]
            calls[s] += 1
            own = end[i] - start[i] - covered[i]
            self_s[s] += own
            if outcome[i] == RAISED:
                errors[s] += 1
            by_label.setdefault(labels[op[i]], [0] * k)[s] += 1
            par = parent[i]
            if par >= 0:
                in_enum[i] = in_enum[par] or name[par] == ENUMERATE
                in_delta[i] = in_delta[par] or name[par] == DELTA_GENERAL
            if s == ENUMERATE and outcome[i] == OK:
                yields += 1
            elif s == CONSTRUCT and in_enum[i]:
                constructed += 1
            if s == DELTA_GENERAL and not in_delta[i]:
                delta_s += end[i] - start[i]
            elif s in GUARDS and in_delta[i]:
                guard_s += own
        metrics = {}
        for s, span in enumerate(SPANS):
            metrics[f"{span}.calls_per_op"] = (calls[s] / n_ops, "calls/op")
            metrics[f"{span}.self_us_per_op"] = (1e6 * self_s[s] / n_ops, "us/op")
            metrics[f"{span}.errors_per_op"] = (errors[s] / n_ops, "errors/op")
        metrics["partitions.enumerate_partitions.useful_ratio"] = (
            yields / constructed if constructed else 0.0, "ratio")
        metrics["formula.delta_general.guard_share"] = (guard_s / delta_s if delta_s else 0.0, "ratio")
        ops_by_label: dict[str, int] = {}
        for label in labels:
            ops_by_label[label] = ops_by_label.get(label, 0) + 1
        breakdown = {
            label: {SPANS[s]: c / ops_by_label[label] for s, c in enumerate(counts) if c}
            for label, counts in sorted(by_label.items())
        }
        return metrics, breakdown

    def dump(self, directory: Path, stem: str) -> Path:
        """Write the spans as raw arrays plus a JSON header describing them."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "op", "outcome")
        data = directory / f"{stem}.spans.bin"
        with open(data, "wb") as f:
            for field in fields:
                getattr(self, field).tofile(f)
        header = {
            "spans": len(self),
            "names": list(SPANS),
            "outcomes": {"ok": OK, "raised": RAISED, "stopped": STOPPED},
            "columns": [[field, getattr(self, field).typecode] for field in fields],
            "layout": "each column stored whole, in order, native byte order; times from time.perf_counter",
        }
        (directory / f"{stem}.spans.json").write_text(json.dumps(header, indent=1) + "\n")
        return data
