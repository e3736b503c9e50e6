"""Per-layer attribution: the conv FLOP table, the spans installed around
ocuseg's public callables, and the per-layer metrics computed from them.

Import only after ``ocuseg`` is importable from the checkout's ``src``.
"""

from __future__ import annotations

from pathlib import Path

from ocuseg import (cli, datasetio, detect, layers, metrics, optim, pipeline, segnet,
                    synth, uncertainty)
from ocuseg.segnet import N_CLASSES, count_flops
from ocuseg.uncertainty import head_flops

from workloads import Render, Score, Train, Workload

CONVS = ("conv1", "conv2", "conv3", "h1", "h2", "h3", "h4")
CLI_COMMANDS = ("gen", "train-seg", "train-unc", "infer", "eval")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def conv_flop_table(config) -> dict[str, int]:
    """Per-image forward FLOPs of each conv, as 2 * k^2 * C_in * C_out * H * W."""
    h, w = config.crop_h, config.crop_w
    w1, w2 = config.widths
    u, d = config.head_width, config.d

    def conv(c_in, c_out, hh, ww):
        return 2 * 9 * c_in * c_out * hh * ww

    return {"conv1": conv(1, w1, h, w), "conv2": conv(w1, w2, h // 2, w // 2),
            "conv3": conv(w1 + w2, d, h, w), "h1": conv(w2, u, h // 2, w // 2),
            "h2": conv(u, u, h // 4, w // 4), "h3": conv(2 * u, u, h // 2, w // 2),
            "h4": conv(u + w1 + d, d, h, w)}


def check_flop_table(config) -> list[str]:
    """The table must reproduce count_flops and head_flops exactly."""
    table = conv_flop_table(config)
    backbone = sum(table[c] for c in ("conv1", "conv2", "conv3"))
    class_head = 2 * N_CLASSES * config.d * config.crop_h * config.crop_w
    head = sum(table[c] for c in ("h1", "h2", "h3", "h4"))
    errors = []
    for what, ours, theirs in (
            ("count_flops(include_head=False)", backbone, count_flops(config, include_head=False)),
            ("count_flops(include_head=True)", backbone + class_head,
             count_flops(config, include_head=True)),
            ("head_flops", head, head_flops(config))):
        if ours != theirs:
            errors.append(f"per-conv FLOP table sums to {ours}, {what} is {theirs}")
    return errors


def install_spans(tracer, flops: dict[str, int]) -> None:
    """Wrap each module's public callables at the names their callers use."""

    def conv_fwd(attrs, args, _):
        conv, x = args[0], args[1]
        c_in, n, h, w = x.shape
        attrs["flops"] = flops[conv.name] * n
        attrs["n"] = n
        attrs["bytes"] = 8 * (c_in * conv.k * conv.k * n * h * w + c_in * n * h * w
                              + conv.c_out * n * h * w)

    def conv_bwd(attrs, args, _):
        attrs["n"] = n = args[1].shape[1]
        attrs["flops"] = 2 * flops[args[0].name] * n

    def conv_single(attrs, args, _):
        x, kernel = args[0], args[1]
        c_out, c_in, kh, kw = kernel.shape
        attrs["flops"] = 2 * kh * kw * c_in * c_out * x.shape[1] * x.shape[2]

    def clipped(attrs, args, norm):
        attrs["clipped"] = float(norm > args[1])

    def detected(attrs, args, box):
        sample, mode = args[0], args[1]
        if mode != "heuristic":
            return
        fh, fw = sample.image.shape
        side = int(round(0.75 * min(fh, fw)))
        fallback = detect.BBox((fw - side) // 2, (fh - side) // 2, side, side)
        attrs["heuristic"] = 1.0
        attrs["fallback"] = float(box == fallback)
        attrs["hit"] = float(detect.iou(box.as_tuple(), tuple(sample.gt_bbox)) >= 0.5)

    def cropped(attrs, args, _):
        attrs["n"] = len(args[0])

    def wrote(attrs, args, _):
        attrs["bytes"] = dir_bytes(Path(args[1]))

    def read(attrs, args, samples):
        attrs["bytes"] = dir_bytes(Path(args[0]))

    t = tracer.trace
    t(layers.Conv2d, "forward", lambda c, x: f"layers.conv_fwd.{c.name}", conv_fwd)
    t(layers.Conv2d, "backward", lambda c, g: f"layers.conv_bwd.{c.name}", conv_bwd)
    t(synth, "conv2d", "layers.conv2d", conv_single)
    t(segnet.SegModel, "forward_batch", "segnet.forward")
    t(segnet.SegModel, "backward_batch", "segnet.backward")
    t(segnet, "seg_loss", "segnet.seg_loss")
    for owner in (segnet, cli):
        t(owner, "evaluate_miou", "segnet.evaluate_miou")
    t(cli, "train_seg", "segnet.train_seg")
    t(cli, "train_unc", "uncertainty.train_unc")
    t(uncertainty.UncHead, "forward", "uncertainty.forward")
    t(uncertainty.UncHead, "backward", "uncertainty.backward")
    for attr in ("surrogate_loss_batch", "original_loss_batch"):
        t(uncertainty, attr, "uncertainty.loss")
    t(optim.SgdMomentum, "step", "optim.step")
    t(segnet, "clip_grad_norm", "optim.clip.seg", clipped)
    t(uncertainty, "clip_grad_norm", "optim.clip.unc", clipped)
    t(pipeline, "choose_bbox", "pipeline.choose_bbox", detected)
    t(pipeline, "detect_eye_heuristic", "detect.heuristic")
    for owner in (pipeline, cli):
        t(owner, "crop_resize", "detect.crop_resize")
        t(owner, "build_crops", "pipeline.build_crops", cropped)
    t(cli, "infer_samples", "pipeline.infer_samples")
    t(synth, "render_eye", "synth.render")
    t(synth, "apply_corruption", lambda s, c, r: f"synth.corrupt.{c.kind}")
    t(cli, "generate_dataset", "synth.generate_dataset")
    t(cli, "write_dataset", "datasetio.write_dataset", wrote)
    for owner in (cli, datasetio):
        t(owner, "read_dataset", "datasetio.read_dataset", read)
    for owner in (cli, metrics, segnet, pipeline):
        t(owner, "confusion_matrix", "metrics.confusion")
    t(cli, "rank_and_filter", "evaluate.rank_and_filter")
    t(cli, "save_checkpoint", "checkpoint.save")
    t(cli, "load_checkpoint", "checkpoint.load")


def layer_metrics(tracer, traced: list[float], untraced: list[float],
                  samples_per_rep: int) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced repetitions.

    ``traced`` and ``untraced`` are the seconds of each repetition of the
    run.  ``*_ms`` are inclusive milliseconds per call unless named
    ``self``; counts and bytes are per traced repetition.
    """
    s = tracer.summary()
    traced_reps = len(traced)

    def row(name):
        return s.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}})

    def ms(name, key="total_s"):
        r = row(name)
        return 1e3 * r[key] / r["calls"] if r["calls"] else 0.0

    def per_rep(value):
        return value / traced_reps

    def frac(name, attr, of="calls"):
        r = row(name)
        base = r["calls"] if of == "calls" else r["attrs"].get(of, 0.0)
        return r["attrs"].get(attr, 0.0) / base if base else 0.0

    def gflops(name):
        r = row(name)
        return r["attrs"].get("flops", 0.0) / r["total_s"] / 1e9 if r["total_s"] else 0.0

    m: dict[str, float] = {}
    fwd_s = sum(row(f"layers.conv_fwd.{c}")["total_s"] for c in CONVS)
    bwd_s = sum(row(f"layers.conv_bwd.{c}")["total_s"] for c in CONVS)
    for c in CONVS:
        m[f"layers.conv_fwd_ms.{c}"] = ms(f"layers.conv_fwd.{c}")
        m[f"layers.conv_bwd_ms.{c}"] = ms(f"layers.conv_bwd.{c}")
        m[f"layers.conv_gflops_fwd.{c}"] = gflops(f"layers.conv_fwd.{c}")
        m[f"layers.conv_gflops_bwd.{c}"] = gflops(f"layers.conv_bwd.{c}")
        fwd = row(f"layers.conv_fwd.{c}")
        m[f"layers.conv_bytes.{c}"] = (fwd["attrs"].get("bytes", 0.0) / fwd["calls"]
                                       if fwd["calls"] else 0.0)
    m["layers.conv_fwd_calls"] = per_rep(sum(row(f"layers.conv_fwd.{c}")["calls"] for c in CONVS))
    m["layers.conv_bwd_calls"] = per_rep(sum(row(f"layers.conv_bwd.{c}")["calls"] for c in CONVS))
    full_res = sum(row(f"layers.conv_{d}.{c}")["total_s"] for d in ("fwd", "bwd")
                   for c in ("conv3", "h4"))
    m["layers.conv_fullres_share"] = full_res / (fwd_s + bwd_s) if fwd_s + bwd_s else 0.0
    # per image, since forward also runs at other batch sizes (evaluation, inference)
    fwd_n = sum(row(f"layers.conv_fwd.{c}")["attrs"].get("n", 0.0) for c in CONVS)
    bwd_n = sum(row(f"layers.conv_bwd.{c}")["attrs"].get("n", 0.0) for c in CONVS)
    m["layers.conv_bwd_fwd_ratio"] = (bwd_s / bwd_n) / (fwd_s / fwd_n) if bwd_n else 0.0
    m["layers.conv2d_ms"] = ms("layers.conv2d")
    m["layers.conv2d_gflops"] = gflops("layers.conv2d")

    m["segnet.forward_ms"] = ms("segnet.forward")
    m["segnet.backward_ms"] = ms("segnet.backward")
    m["segnet.loss_self_ms"] = ms("segnet.seg_loss", "self_s")
    m["segnet.eval_miou_ms"] = ms("segnet.evaluate_miou")
    m["segnet.steps"] = per_rep(row("segnet.backward")["calls"])
    m["segnet.forward_calls"] = per_rep(row("segnet.forward")["calls"])

    backbone = tracer.children("segnet.forward", "uncertainty.train_unc")
    m["uncertainty.forward_ms"] = ms("uncertainty.forward")
    m["uncertainty.backward_ms"] = ms("uncertainty.backward")
    m["uncertainty.loss_ms"] = ms("uncertainty.loss")
    m["uncertainty.backbone_ms"] = 1e3 * backbone[1] / backbone[0] if backbone[0] else 0.0
    m["uncertainty.steps"] = per_rep(row("uncertainty.backward")["calls"])
    m["uncertainty.forward_calls"] = per_rep(row("uncertainty.forward")["calls"])

    seg_clip, unc_clip = row("optim.clip.seg"), row("optim.clip.unc")
    clip_calls = seg_clip["calls"] + unc_clip["calls"]
    m["optim.step_ms"] = ms("optim.step")
    m["optim.clip_ms"] = (1e3 * (seg_clip["total_s"] + unc_clip["total_s"]) / clip_calls
                          if clip_calls else 0.0)
    m["optim.clip_frac.seg"] = frac("optim.clip.seg", "clipped")
    m["optim.clip_frac.unc"] = frac("optim.clip.unc", "clipped")
    m["optim.steps"] = per_rep(row("optim.step")["calls"])

    m["detect.heuristic_ms"] = ms("detect.heuristic")
    m["detect.crop_resize_ms"] = ms("detect.crop_resize")
    m["detect.calls"] = per_rep(row("detect.heuristic")["calls"])
    m["detect.fallback_frac"] = frac("pipeline.choose_bbox", "fallback", of="heuristic")
    m["detect.hit_frac"] = frac("pipeline.choose_bbox", "hit", of="heuristic")

    m["pipeline.build_crops_ms"] = ms("pipeline.build_crops")
    m["pipeline.infer_self_ms"] = ms("pipeline.infer_samples", "self_s")

    m["synth.render_ms"] = ms("synth.render")
    for kind in ("blur", "occlusion", "domain_shift"):
        m[f"synth.corrupt_ms.{kind}"] = ms(f"synth.corrupt.{kind}")

    m["datasetio.write_ms"] = ms("datasetio.write_dataset")
    m["datasetio.read_ms"] = ms("datasetio.read_dataset")
    m["datasetio.bytes_written"] = per_rep(row("datasetio.write_dataset")["attrs"].get("bytes", 0.0))
    m["datasetio.bytes_read"] = per_rep(row("datasetio.read_dataset")["attrs"].get("bytes", 0.0))

    m["metrics.confusion_ms"] = ms("metrics.confusion")
    m["evaluate.rank_and_filter_ms"] = ms("evaluate.rank_and_filter")
    m["checkpoint.save_ms"] = ms("checkpoint.save")
    m["checkpoint.load_ms"] = ms("checkpoint.load")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_ms"] = ms(f"cli.{cmd}")
        m[f"cli.{cmd}_self_ms"] = ms(f"cli.{cmd}", "self_s")

    traced_sps = samples_per_rep * len(traced) / sum(traced)
    untraced_sps = samples_per_rep * len(untraced) / sum(untraced)
    m["trace.samples_per_s"] = traced_sps
    m["trace.untraced_samples_per_s"] = untraced_sps
    m["trace.overhead_frac"] = 1.0 - traced_sps / untraced_sps
    # self time of the module spans; time only a cli.* span covers is unattributed
    m["trace.attributed_frac"] = (sum(r["self_s"] for name, r in s.items()
                                      if not name.startswith("cli.")) / sum(traced))
    return m


def stage_table(m: dict[str, float], tracer, workload: Workload) -> dict[str, float]:
    """The ROADMAP stage rows this workload's traced repetitions cover."""
    s = tracer.summary()
    rows: dict[str, float] = {}

    def per_sample(name, samples):
        r = s.get(name)
        return 1e3 * r["total_s"] / samples if r and samples else None

    crops = s.get("pipeline.build_crops")
    if crops and crops["attrs"].get("n"):
        key = "heuristic crop ms/sample" if isinstance(workload, Score) else "gt-jitter crop ms/sample"
        rows[key] = 1e3 * crops["total_s"] / crops["attrs"]["n"]
    size = workload.size
    calls = {cmd: s[f"cli.{cmd}"]["calls"] for cmd in CLI_COMMANDS if f"cli.{cmd}" in s}
    if isinstance(workload, Render):
        rows["gen ms/sample"] = per_sample("cli.gen", calls.get("gen", 0) * size["n"])
    if isinstance(workload, Train):
        rows["train-seg ms/sample/epoch"] = per_sample(
            "cli.train-seg", calls.get("train-seg", 0) * size["n"] * size["seg_epochs"])
        rows["train-unc ms/sample/epoch"] = per_sample(
            "cli.train-unc", calls.get("train-unc", 0) * size["n"] * size["unc_epochs"])
    if isinstance(workload, Score):
        rows["infer ms/sample"] = per_sample("cli.infer", calls.get("infer", 0) * size["n"])
    gflops = [m[f"layers.conv_gflops_{d}.{c}"] for d in ("fwd", "bwd") for c in CONVS
              if m[f"layers.conv_gflops_{d}.{c}"] > 0]
    if gflops:
        rows["conv GFLOP/s min"] = min(gflops)
        rows["conv GFLOP/s max"] = max(gflops)
        rows["conv3+h4 share of conv time"] = m["layers.conv_fullres_share"]
        rows["conv backward/forward time"] = m["layers.conv_bwd_fwd_ratio"]
    return {k: v for k, v in rows.items() if v is not None}
