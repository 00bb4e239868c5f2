"""In-memory spans around vrmsi's public functions, installed for traced runs only.

``instrument`` swaps each probed function or method for a wrapper that opens
a span (name, start, end, parent span, request id) and, after the call,
records counts derived from the call's array shapes.  Module-level functions
are swapped in every loaded ``vrmsi`` module that bound them by import, so
calls made inside the package are seen too.  The originals come back when the
context exits.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("core", "phantom", "sampling", "recon", "learn", "metrics", "pipeline")

# Counts derived from array shapes, with their units; they must repeat
# exactly for equal work.
COMPUTED = {
    "core.container_bytes_written": "B",
    "core.container_bytes_read": "B",
    "recon.pi_flop": "flop",
    "learn.conv_flop": "flop",
    "learn.im2col_bytes": "B",
    "learn.checkpoint_bytes": "B",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                          # index into Tracer.spans, -1 for a root
    request: int


class Tracer:
    """Spans and counts of one traced unit of work, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request_kinds: list[str] = []
        self.counts = defaultdict(int)   # (request id, counter) -> value
        self.hashes = defaultdict(set)   # (request id, counter) -> distinct digests
        self._stack: list[int] = []

    @property
    def request(self) -> int:
        return len(self.request_kinds) - 1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def new_request(self, kind: str):
        """Root span ``bench.<kind>``; spans opened inside share its request id."""
        self.request_kinds.append(kind)
        idx = self.open(f"bench.{kind}")
        try:
            yield
        finally:
            self.close(idx)

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def add(self, counter: str, value) -> None:
        self.counts[(self.request, counter)] += value

    def add_distinct(self, counter: str, digest: bytes) -> None:
        self.hashes[(self.request, counter)].add(digest)

    def requests(self, kinds) -> list[int]:
        return [r for r, k in enumerate(self.request_kinds) if k in kinds]

    def total(self, counter: str, requests) -> int:
        return sum(self.counts.get((r, counter), 0) for r in requests)

    def distinct(self, counter: str, requests) -> int:
        return sum(len(self.hashes.get((r, counter), ())) for r in requests)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for idx, span in enumerate(spans):
        covered = _union_length(
            (max(c.start, span.start), min(c.end, span.end)) for c in children[idx]
        )
        out.append(max(span.end - span.start - covered, 0.0))
    return out


def outermost(spans, names, keep) -> tuple[int, float]:
    """Count and summed duration of spans named in ``names`` that have no
    ancestor also named in ``names``, among spans whose index passes ``keep``."""
    count = 0
    seconds = 0.0
    for idx, span in enumerate(spans):
        if span.name not in names or not keep(idx):
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            count += 1
            seconds += span.end - span.start
    return count, seconds


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    owner: object                        # module (function) or class (method)
    attr: str
    name: object                         # span name, or fn(args, kwargs) -> name
    count: object = None                 # fn(tracer, args, kwargs, result), after the call


def _wrap(tracer: Tracer, fn, probe: Probe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = probe.name(args, kwargs) if callable(probe.name) else probe.name
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if probe.count is not None:
            probe.count(tracer, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer, probes):
    """Install every probe for the duration of the context."""
    undo = []
    try:
        for probe in probes:
            orig = getattr(probe.owner, probe.attr)
            wrapper = _wrap(tracer, orig, probe)
            if isinstance(probe.owner, type):
                targets = [(probe.owner, probe.attr)]
            else:
                targets = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name == "vrmsi" or mod_name.startswith("vrmsi.")
                    for key, val in list(vars(mod).items())
                    if val is orig
                ]
            for owner, key in targets:
                undo.append((owner, key, orig))
                setattr(owner, key, wrapper)
        yield tracer
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _conv_forward_counts(tracer, args, kwargs, result):
    layer, x = args[0], _arg(args, kwargs, 1, "x")
    batch, cin = x.shape[0], x.shape[1]
    k = layer.kernel_size
    ho, wo = result.shape[2], result.shape[3]
    tracer.add("learn.conv_flop", 2 * batch * layer.out_channels * k * k * cin * ho * wo)
    tracer.add("learn.im2col_bytes", 8 * batch * k * k * cin * ho * wo)


def _conv_backward_counts(tracer, args, kwargs, result):
    layer, dy = args[0], _arg(args, kwargs, 1, "dy")
    batch, _, ho, wo = dy.shape
    k = layer.kernel_size
    # weight-gradient GEMM plus input-gradient GEMM, each the forward's size
    tracer.add("learn.conv_flop", 4 * batch * layer.out_channels * k * k * layer.in_channels * ho * wo)


def pi_flop(ksp_shape, acs_shape, geometry) -> int:
    """Real floating-point operations of one ``pi_interpolate`` call.

    Per missing lattice offset: the calibration Gram matrix and right-hand
    side (complex multiply-add = 8 flop), an LU solve (8/3 p^3 + 8 p^2 nc)
    and the kernel application, all from the array shapes and the kernel
    geometry.
    """
    nc, ky, kz = ksp_shape
    ar, ac = acs_shape[1], acs_shape[2]
    ry, rz = geometry.ry, geometry.rz
    if ry == 1 and rz == 1:
        return 0
    p = nc * geometry.ky_taps * geometry.kz_taps
    taps_y = [(i - (geometry.ky_taps - 1) // 2) * ry for i in range(geometry.ky_taps)]
    taps_z = [(i - (geometry.kz_taps - 1) // 2) * rz for i in range(geometry.kz_taps)]
    total = 0
    for dy in range(ry):
        for dz in range(rz):
            if dy == 0 and dz == 0:
                continue
            sy = [t - dy for t in taps_y]
            sz = [t - dz for t in taps_z]
            n_y = (ar - 1 - max(max(sy), 0)) - max(0, -min(sy)) + 1
            n_z = (ac - 1 - max(max(sz), 0)) - max(0, -min(sz)) + 1
            n_inst = max(n_y, 0) * max(n_z, 0)
            fit = 8 * n_inst * p * p + 8 * n_inst * p * nc + 8 * p ** 3 // 3 + 8 * p * p * nc
            m = len(range((ky // 2 + dy) % ry, ky, ry)) * len(range((kz // 2 + dz) % rz, kz, rz))
            total += fit + 8 * m * p * nc
    return total


def _pi_counts(tracer, args, kwargs, result):
    ksp = _arg(args, kwargs, 0, "ksp")
    acs = _arg(args, kwargs, 1, "acs_block")
    geometry = _arg(args, kwargs, 2, "geometry")
    tracer.add("recon.pi_flop", pi_flop(ksp.shape, acs.shape, geometry))
    tracer.add("recon.full_bin_recons", 1)
    tracer.add_distinct("recon.full_bin_recons", hashlib.blake2b(ksp.tobytes(), digest_size=16).digest())


def _write_counts(tracer, args, kwargs, result):
    size = len(_arg(args, kwargs, 3, "payload"))
    tracer.add("core.container_bytes_written", size)
    if tracer.inside("learn.checkpoint"):
        tracer.add("learn.checkpoint_bytes", size)


def _read_counts(tracer, args, kwargs, result):
    size = len(result[1])
    tracer.add("core.container_bytes_read", size)
    if tracer.inside("learn.checkpoint"):
        tracer.add("learn.checkpoint_bytes", size)


def _recon_name(args, kwargs):
    return "recon." + _arg(args, kwargs, 2, "method").lower()


def vrmsi_probes() -> list[Probe]:
    """The layer boundaries of the vrmsi package, as the benchmark sees them."""
    # vrmsi.learn re-exports the function ``train`` under its submodule's
    # name, so the submodules are taken from the import system instead.
    core, metrics, phantom, pipeline, recon, sampling, layers, model, train = (
        importlib.import_module(f"vrmsi.{name}")
        for name in ("core", "metrics", "phantom", "pipeline", "recon", "sampling",
                     "learn.layers", "learn.model", "learn.train")
    )
    probes = [
        Probe(core, "fft2c", "core.fft"),
        Probe(core, "ifft2c", "core.fft"),
        Probe(core, "write_container", "core.container_write", _write_counts),
        Probe(core, "read_container", "core.container_read", _read_counts),
        Probe(phantom, "generate_phantom", "phantom.generate"),
        Probe(phantom, "simulate_bins", "phantom.simulate_bins"),
        Probe(phantom, "to_kspace", "phantom.to_kspace"),
        Probe(recon, "reconstruct", _recon_name),
        Probe(recon, "pi_interpolate", "recon.pi_interpolate", _pi_counts),
        Probe(recon, "homodyne_recon", "recon.homodyne"),
        Probe(recon, "apodized_acs_recon", "recon.apodized_acs"),
        Probe(recon, "rsos_coils", "recon.rsos"),
        Probe(recon, "rsos_bins", "recon.rsos"),
        Probe(model.UNet, "forward", "learn.forward"),
        Probe(model.UNet, "backward", "learn.backward"),
        Probe(layers.Conv2d, "forward", "learn.conv_forward", _conv_forward_counts),
        Probe(layers.Conv2d, "backward", "learn.conv_backward", _conv_backward_counts),
        Probe(train.Adam, "step", "learn.adam_step"),
        Probe(train, "train", "learn.train"),
        Probe(train, "infer_full_stack", "learn.infer"),
        Probe(train, "infer_zreplace", "learn.infer"),
        Probe(train, "save_model", "learn.checkpoint"),
        Probe(train, "load_model", "learn.checkpoint"),
        Probe(metrics, "ssim", "metrics.ssim"),
        Probe(metrics, "psnr", "metrics.psnr"),
        Probe(metrics, "resi", "metrics.resi"),
        Probe(metrics.EvalReport, "finalize", "metrics.finalize"),
    ]
    for fn in ("full_scheme_mask", "acs_only_mask", "partial_fourier_mask", "uniform_accel_mask"):
        probes.append(Probe(sampling, fn, "sampling.mask"))
    for stage in ("phantom", "acquire", "recon", "train", "infer", "eval"):
        probes.append(Probe(pipeline, f"cmd_{stage}", f"pipeline.{stage}"))
    return probes


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric -> (unit, span names); the value is the outermost count or seconds
_SPAN_METRICS = {
    "core.fft_calls": ("count", {"core.fft"}),
    "core.fft_s": ("s", {"core.fft"}),
    "core.container_io_s": ("s", {"core.container_write", "core.container_read"}),
    "phantom.generate_s": ("s", {"phantom.generate"}),
    "phantom.simulate_bins_s": ("s", {"phantom.simulate_bins"}),
    "phantom.to_kspace_s": ("s", {"phantom.to_kspace"}),
    "sampling.mask_calls": ("count", {"sampling.mask"}),
    "sampling.mask_s": ("s", {"sampling.mask"}),
    "recon.reference_s": ("s", {"recon.reference"}),
    "recon.cr_vr_s": ("s", {"recon.cr_vr"}),
    "recon.cr_zreplace_s": ("s", {"recon.cr_zreplace"}),
    "recon.pi_interpolate_calls": ("count", {"recon.pi_interpolate"}),
    "recon.pi_interpolate_s": ("s", {"recon.pi_interpolate"}),
    "recon.homodyne_calls": ("count", {"recon.homodyne"}),
    "recon.homodyne_s": ("s", {"recon.homodyne"}),
    "recon.apodized_acs_s": ("s", {"recon.apodized_acs"}),
    "recon.rsos_s": ("s", {"recon.rsos"}),
    "learn.forward_calls": ("count", {"learn.forward"}),
    "learn.forward_s": ("s", {"learn.forward"}),
    "learn.backward_s": ("s", {"learn.backward"}),
    "learn.adam_step_s": ("s", {"learn.adam_step"}),
    "learn.checkpoint_s": ("s", {"learn.checkpoint"}),
    "metrics.ssim_calls": ("count", {"metrics.ssim"}),
    "metrics.ssim_s": ("s", {"metrics.ssim"}),
    "metrics.resi_s": ("s", {"metrics.resi"}),
    "metrics.finalize_s": ("s", {"metrics.finalize"}),
    "pipeline.phantom_s": ("s", {"pipeline.phantom"}),
    "pipeline.acquire_s": ("s", {"pipeline.acquire"}),
    "pipeline.recon_s": ("s", {"pipeline.recon"}),
    "pipeline.train_s": ("s", {"pipeline.train"}),
    "pipeline.infer_s": ("s", {"pipeline.infer"}),
    "pipeline.eval_s": ("s", {"pipeline.eval"}),
}

# Work the benchmark measures: set-up and operations; cached reruns apart.
MEASURED_KINDS = ("setup", "op")


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric over the traced set-up and operations.

    Values are totals over the traced unit, not rates, except
    ``learn.conv_gflop_per_s`` and ``pipeline.cache_hit_ratio``.
    """
    spans = tracer.spans
    measured = set(tracer.requests(MEASURED_KINDS))
    reruns = tracer.requests(("rerun",))

    def keep(idx):
        return spans[idx].request in measured

    out = {}
    for metric, (unit, names) in _SPAN_METRICS.items():
        count, seconds = outermost(spans, names, keep)
        out[metric] = (count if unit == "count" else seconds, unit)
    for counter, unit in COMPUTED.items():
        out[counter] = (tracer.total(counter, measured), unit)

    out["recon.full_bin_recons"] = (tracer.total("recon.full_bin_recons", measured), "count")
    out["recon.full_bin_recons_unique"] = (tracer.distinct("recon.full_bin_recons", measured), "count")
    _, conv_s = outermost(spans, {"learn.conv_forward", "learn.conv_backward"}, keep)
    conv_flop = out["learn.conv_flop"][0]
    out["learn.conv_gflop_per_s"] = (conv_flop / conv_s / 1e9 if conv_s > 0 else 0.0, "GFLOP/s")

    _, rerun_s = outermost(spans, {"bench.rerun"}, lambda idx: spans[idx].request in reruns)
    out["pipeline.cached_rerun_s"] = (rerun_s, "s")
    stages = tracer.total("pipeline.cache_stages", reruns)
    hits = tracer.total("pipeline.cache_hits", reruns)
    out["pipeline.cache_hit_ratio"] = (hits / stages if stages else 0.0, "ratio")

    selfs = self_times(spans)
    for layer in LAYERS:
        total = sum(
            s for idx, s in enumerate(selfs)
            if keep(idx) and spans[idx].name.startswith(layer + ".")
        )
        out[f"{layer}.self_s"] = (total, "s")
    return out


def per_op_computed(tracer: Tracer) -> list[dict]:
    """Computed counts of each traced operation, in order."""
    return [{c: tracer.counts.get((r, c), 0) for c in COMPUTED} for r in tracer.requests(("op",))]


def dump(tracer: Tracer, metrics: dict) -> dict:
    """Spans and the per-layer metrics (self times included), ready for
    ``json.dump``."""
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    return {
        "requests": tracer.request_kinds,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "spans": [
            [s.name, round(s.start - t0, 9), round(s.end - t0, 9), s.parent, s.request]
            for s in tracer.spans
        ],
        "span_fields": ["name", "start_s", "end_s", "parent", "request"],
    }
