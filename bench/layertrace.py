"""Call spans around the public callables of ntklab's modules.

The tracer wraps functions from the outside; nothing under ``src/`` knows it
exists.  Each call's span (name, start, end, and parent: the index of the
enclosing span, -1 at the top) is kept in memory and written out once, when
the traced run ends.  ``layer_metrics`` turns the spans into the per-layer
metrics named in BENCHMARK.json.
"""

import functools
import inspect
import math
import mmap
import sys
import time

# The modules of ntklab, in pipeline order; each one is a layer.
LAYERS = ("netsim", "wmmse", "kernels", "spectral", "nets", "training",
          "experiments")

# The loss and gradient entry points live in nets.py, but they are the
# training loop's per-step and per-snapshot calls, so their own time counts in
# the training layer: per-step loop overhead then shows there.
ALIASES = {"nets.gradients": "training.gradients",
           "nets.loss_value": "training.loss_value"}

MODES = ("train", "eval")


class Tracer:
    """Records one span per call of every function it wrapped.

    Spans go into fixed-size arrays in anonymous memory maps, not into
    Python objects: holding tens of thousands of small objects for the whole
    run changed how the allocator served numpy's large temporaries and made
    traced runs of ntk-regime take 1.7x as long.  Untouched pages of the maps
    cost no memory.
    """

    CAPACITY = 1 << 22

    def __init__(self):
        self.count = 0
        self.names = []
        self._name = memoryview(mmap.mmap(-1, 4 * self.CAPACITY)).cast("i")
        self._parent = memoryview(mmap.mmap(-1, 8 * self.CAPACITY)).cast("q")
        self._start = memoryview(mmap.mmap(-1, 8 * self.CAPACITY)).cast("d")
        self._end = memoryview(mmap.mmap(-1, 8 * self.CAPACITY)).cast("d")
        self._open = []

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    @property
    def spans(self):
        """``[name, start, end, parent]`` per call, in call order."""
        return [[self.names[self._name[i]], self._start[i], self._end[i],
                 self._parent[i]] for i in range(self.count)]

    def wrap(self, fn, name):
        """``fn`` wrapped so that each call records a span.  A call that takes
        a ``train`` flag gets ``.train`` or ``.eval`` appended to its name."""
        params = list(inspect.signature(fn).parameters.values())
        param_names = [p.name for p in params]
        at = param_names.index("train") if "train" in param_names else None
        if at is None:
            default = None
            eval_id = train_id = self._name_id(name)
        else:
            default = params[at].default
            eval_id = self._name_id(f"{name}.eval")
            train_id = self._name_id(f"{name}.train")
        tracer, stack, clock = self, self._open, time.perf_counter
        name_of, parent_of = self._name, self._parent
        start_of, end_of = self._start, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.count
            if i == tracer.CAPACITY:
                raise RuntimeError("span capacity exceeded")
            tracer.count = i + 1
            if at is not None and kwargs.get(
                    "train", args[at] if len(args) > at else default):
                name_of[i] = train_id
            else:
                name_of[i] = eval_id
            parent_of[i] = stack[-1] if stack else -1
            stack.append(i)
            start_of[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end_of[i] = clock()
                stack.pop()

        return traced


def install(tracer):
    """Wrap every public function and public method of each layer module,
    and rebind each name in every ntklab namespace that imported it, so
    calls through ``from .x import f`` bindings are traced too."""
    import ntklab.cli  # noqa: F401  (loads every module)

    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"ntklab.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for m_attr, m_obj in list(vars(obj).items()):
                    if not m_attr.startswith("_") and inspect.isfunction(m_obj):
                        setattr(obj, m_attr, tracer.wrap(
                            m_obj, f"{layer}.{obj.__name__}.{m_attr}"))
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(obj, ALIASES.get(name, name))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "ntklab" or mod_name.startswith("ntklab."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _base(name):
    head, _, mode = name.rpartition(".")
    return head if mode in MODES else name


def _matches(name, base):
    return name == base or _base(name) == base


def _rank(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_quantile(n):
    """The highest quantile with at least 10 calls beyond it, never below
    the median."""
    return max(0.5, 1.0 - 10.0 / n) if n else 0.5


class SpanSet:
    """A finished run's spans, grouped by name, with their self times."""

    def __init__(self, spans):
        self.spans = spans
        self.own = self_times(spans)
        self.by_name = {}
        for i, span in enumerate(spans):
            self.by_name.setdefault(span[0], []).append(i)

    def indices(self, match):
        return [i for name, idx in self.by_name.items() if match(name)
                for i in idx]

    def self_s(self, match):
        return sum(self.own[i] for i in self.indices(match))

    def total_s(self, base):
        """Summed duration of the calls named ``base`` that do not run inside
        another call of the same name (recursion is not counted twice)."""
        spans, total = self.spans, 0.0
        for i in self.indices(lambda n: _matches(n, base)):
            parent = spans[i][3]
            while parent >= 0 and not _matches(spans[parent][0], base):
                parent = spans[parent][3]
            if parent < 0:
                total += spans[i][2] - spans[i][1]
        return total

    def stat(self, base, stat):
        """One statistic over the calls named ``base`` (in either mode, when
        ``base`` names none)."""
        if stat == "self_s":
            return self.self_s(lambda n: _matches(n, base))
        if stat == "total_s":
            return self.total_s(base)
        idx = self.indices(lambda n: _matches(n, base))
        if stat == "calls":
            return len(idx)
        durations = sorted(self.spans[i][2] - self.spans[i][1] for i in idx)
        if stat not in ("max_s", "p50_ms", "tail_ms"):
            raise KeyError(stat)
        if not durations:
            return 0.0
        if stat == "max_s":
            return durations[-1]
        q = 0.5 if stat == "p50_ms" else tail_quantile(len(durations))
        return 1e3 * _rank(durations, q)


def layer_metrics(spans, names, traced_wall_s, untraced_wall_s, cpu_s):
    """Values of the named per-layer metrics for one traced run.

    ``traced_wall_s`` is the traced child's spawn-to-exit time,
    ``untraced_wall_s`` the median of the untraced children in the same
    invocation and ``cpu_s`` their median user+system CPU time.
    """
    s = SpanSet(spans)
    out = {}
    for name in names:
        if name == "trace.wall_s":
            value = traced_wall_s
        elif name == "trace.outside_s":
            value = traced_wall_s - sum(s.own)
        elif name == "trace.overhead_s":
            value = traced_wall_s - untraced_wall_s
        elif name == "process.cpu_s":
            value = cpu_s
        elif name == "experiments.self_s":
            value = s.self_s(lambda n: n.startswith("experiments.run_"))
        elif name == "training.snapshot_share":
            loop = s.total_s("training.train")
            snap = (s.total_s("training.gradients.eval")
                    + s.total_s("training.loss_value.eval"))
            value = snap / loop if loop else 0.0
        elif name.startswith("layers."):
            layer, stat = name[len("layers."):].rsplit(".", 1)
            if layer not in LAYERS or stat != "self_s":
                raise KeyError(name)
            value = s.self_s(lambda n: n.startswith(layer + "."))
        else:
            base, stat = name.rsplit(".", 1)
            value = s.stat(base, stat)
        out[name] = value
    return out
