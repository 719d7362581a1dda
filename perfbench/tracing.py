"""Call-site probes around ctckit's public layer functions.

The benchmark never edits ctckit. It measures a layer by replacing, for the
duration of a ``with`` block, the name a caller module imported (for example
``ctckit.harness.forward``) with a wrapper that times the call and then
restores the original object. A function imported by several modules is
wrapped at each import site: the objectives in ``consistency`` and
``smoothing`` call their own copies of ``ctc_loss``, ``softmax_rows`` and
``occupancy_marginals``, which a probe on ``harness`` alone would miss.

Wrappers read only the clock and the call's arguments and result; they draw
from no random generator and change no argument, so a traced run computes
bit for bit what an untraced run computes.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


def _frames(args, out):
    return out[0].num_frames


def _ctc_cells(args, out):
    dist, y = args[0], args[1]
    return dist.num_frames * (2 * len(y) + 1)


def _decode_frames(args, out):
    return args[0].num_frames


# (importing module, attribute, span name, work count or None). A span is
# named after the module that defines the function, not the one calling it.
REGION_SITES = (
    ("ctckit.harness", "augment", "augment.augment", None),
    ("ctckit.harness", "make_views", "augment.make_views", None),
    ("ctckit.harness", "pool_mask_any", "augment.pool_mask_any", None),
    ("ctckit.harness", "forward", "encoder.forward", _frames),
    ("ctckit.harness", "backward", "encoder.backward", None),
    ("ctckit.harness", "adam_step", "encoder.adam_step", None),
    ("ctckit.harness", "softmax_rows", "lattice.softmax_rows", None),
    ("ctckit.harness", "ctc_loss", "ctc.ctc_loss", _ctc_cells),
    ("ctckit.harness", "occupancy_marginals", "ctc.occupancy_marginals", None),
    ("ctckit.harness", "paired_loss_from_logits",
     "consistency.paired_loss_from_logits", None),
    ("ctckit.harness", "sr_loss_from_logits",
     "smoothing.sr_loss_from_logits", None),
    ("ctckit.harness", "greedy_decode", "decode.greedy_decode", None),
    ("ctckit.harness", "prefix_beam_decode", "decode.prefix_beam_decode",
     _decode_frames),
    ("ctckit.harness", "peak_stats", "peakedness.peak_stats", None),
    ("ctckit.harness", "corpus_token_error_rate",
     "metrics.corpus_token_error_rate", None),
    ("ctckit.consistency", "softmax_rows", "lattice.softmax_rows", None),
    ("ctckit.consistency", "ctc_loss", "ctc.ctc_loss", _ctc_cells),
    ("ctckit.consistency", "occupancy_marginals", "ctc.occupancy_marginals",
     None),
    ("ctckit.consistency", "cr_loss", "consistency.cr_loss", None),
    ("ctckit.smoothing", "softmax_rows", "lattice.softmax_rows", None),
    ("ctckit.smoothing", "ctc_loss", "ctc.ctc_loss", _ctc_cells),
    ("ctckit.smoothing", "occupancy_marginals", "ctc.occupancy_marginals",
     None),
    ("ctckit.smoothing", "sr_penalty", "smoothing.sr_penalty", None),
    ("ctckit.peakedness", "greedy_decode", "decode.greedy_decode", None),
)

SETUP_SITES = (
    ("ctckit.dataset", "generate_dataset", "dataset.generate_dataset", None),
)

# Spans reported per layer. harness.self is the timed region minus every
# span below it: the per-sample orchestration.
SPANS = tuple(dict.fromkeys(site[2] for site in REGION_SITES + SETUP_SITES)) + (
    "harness.self",
)

REGION_ROOT = "harness"
SETUP_ROOT = "setup"


@contextmanager
def patched(replacements):
    """Set ``module.attr = value`` for each (module, attr, value) and put
    every original back on exit, also when the block raises."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def resolve_sites(sites):
    """(module object, attr, span, work) for each site the module has.

    A site whose module no longer imports that name is left out, so its
    span reads zero calls instead of stopping the run."""
    found, missing = [], []
    for mod_name, attr, span, work in sites:
        module = importlib.import_module(mod_name)
        if hasattr(module, attr):
            found.append((module, attr, span, work))
        else:
            missing.append(f"{mod_name}.{attr}")
    return found, missing


@dataclass
class Tracer:
    """In-memory span recorder.

    Each span is (id, parent id or None, name, start ns, end ns, work).
    Spans nest by call order: a wrapper's parent is the span open when it
    was entered. Nothing is aggregated until the run is over.
    """

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _next_id: int = 0

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, t1, work):
        self._stack.pop()
        self.spans.append((sid, parent, name, t0, t1, work))

    @contextmanager
    def span(self, name):
        sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0, time.perf_counter_ns(), 0)

    def wrap(self, fn, name, work=None):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, name, t0, time.perf_counter_ns(), 0)
                raise
            t1 = time.perf_counter_ns()
            self._close(sid, parent, name, t0, t1,
                        work(args, out) if work else 0)
            return out

        traced.__wrapped__ = fn
        return traced

    def replacements(self, resolved, hooks=None):
        """Wrappers for resolved sites. ``hooks`` maps (module name, attr)
        to a function that wraps the traced wrapper once more (the
        benchmark's step clock and hypothesis capture)."""
        hooks = hooks or {}
        out = []
        for module, attr, span, work in resolved:
            wrapped = self.wrap(getattr(module, attr), span, work)
            hook = hooks.get((module.__name__, attr))
            out.append((module, attr, hook(wrapped) if hook else wrapped))
        return out

    def summary(self):
        """Per-span totals grouped by the root (phase) each span ran under.

        Returns ({root name: (count, total ns)},
                 {span name: (root name, calls, self ns, work)}).
        """
        child_ns = defaultdict(int)
        for sid, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        # A span closes, and is appended, after all of its children, so in
        # reverse order every parent comes before its children.
        root_of = {}
        for sid, parent, name, *_ in reversed(self.spans):
            root_of[sid] = name if parent is None else root_of[parent]

        roots = defaultdict(lambda: [0, 0])
        per_span = {}
        for sid, parent, name, t0, t1, work in self.spans:
            self_ns = (t1 - t0) - child_ns[sid]
            if parent is None:
                roots[name][0] += 1
                roots[name][1] += t1 - t0
            key = f"{name}.self" if parent is None else name
            phase = root_of[sid]
            calls, ns, w = per_span.get(key, (phase, 0, 0, 0))[1:]
            per_span[key] = (phase, calls + 1, ns + self_ns, w + work)
        return {k: tuple(v) for k, v in roots.items()}, per_span
