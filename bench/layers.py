"""Per-layer metrics from the spans of one traced run.

Layers are the pe3d modules; a span's layer is the prefix of its name
(``tridiag.solve_batch`` belongs to ``tridiag``).  Self time is a span's
duration minus the time its child spans cover (the union of their
intervals, so children running in parallel are not counted twice).

The tri-diagonal work counts are exact.  Flops and bytes are computed
from the batch shapes with the per-row model below, not measured: they
ignore broadcast diagonals and caches, and are labelled as computed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

LAYERS = ("cli", "config", "parallel", "marching", "operators", "tridiag",
          "environment", "pool", "output")

# Real flops per row and member.  Complex multiply 6, add or subtract 2,
# reciprocal 7, magnitude 4.  Factor row: sub*cp, subtract, |pivot|,
# reciprocal, sup*inv = 25.  Substitution row: forward 14, backward 8 = 22.
# Open: factor + one substitution.  Cyclic: factor + two substitutions
# (right side and Sherman-Morrison spike) + the rank-1 update (8).
FLOPS_PER_ROW = {"open": 25 + 22, "cyclic": 25 + 2 * 22 + 8}
# Bytes per row and member, each complex128 array element read or written
# once per pass: factor 5 arrays, substitution 7, cyclic adds the modified
# main diagonal (2), the spike (1) and the update (3).
BYTES_PER_ROW = {"open": 16 * (5 + 7), "cyclic": 16 * (5 + 2 * 7 + 2 + 1 + 3)}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(intervals) -> float:
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += max(hi - lo, 0.0)
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    out = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered = _covered(
            (max(c["start"], lo), min(c["end"], hi))
            for c in children.get(span["id"], ())
        )
        out[span["id"]] = (hi - lo) - covered
    return out


def layer_self_seconds(spans: list[dict]) -> dict[str, float]:
    selfs = self_times(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        totals[layer_of(span["name"])] += selfs[span["id"]]
    return totals


def _solve_kinds(spans: list[dict]) -> dict[str, str]:
    """Each range step solves the depth batch first, then the azimuth one."""
    by_step = defaultdict(list)
    for span in spans:
        if span["name"] == "tridiag.solve_batch":
            by_step[span["parent"]].append(span)
    kinds = {}
    for solves in by_step.values():
        solves.sort(key=lambda s: s["start"])
        for kind, span in zip(("depth", "azimuth"), solves):
            kinds[span["id"]] = kind
    return kinds


def per_layer_metrics(record: dict, traced_s: float, untraced_s: float) -> dict:
    """Name -> (value, unit) for the traced run ``record``; ``traced_s``
    and ``untraced_s`` are the wall times of the traced run and the
    untraced median, both measured from outside."""
    spans = record["spans"]
    named = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)

    def dur(span):
        return span["end"] - span["start"]

    def total(name):
        return sum(dur(s) for s in named[name])

    def count(name):
        return len(named[name])

    layer_self = layer_self_seconds(spans)

    kinds = _solve_kinds(spans)
    solves = named["tridiag.solve_batch"]
    depth_s = sum(dur(s) for s in solves if kinds.get(s["id"]) == "depth")
    azimuth_s = sum(dur(s) for s in solves if kinds.get(s["id"]) == "azimuth")
    systems = sum(s["attrs"]["w"] for s in solves)
    rows = sum(s["attrs"]["n"] * s["attrs"]["w"] for s in solves)
    flops = sum(FLOPS_PER_ROW[s["attrs"]["topology"]] * s["attrs"]["n"] * s["attrs"]["w"]
                for s in solves)
    nbytes = sum(BYTES_PER_ROW[s["attrs"]["topology"]] * s["attrs"]["n"] * s["attrs"]["w"]
                 for s in solves)

    fork_joins = named["pool.fork_join"]
    steps_ms = [1e3 * dur(s) for s in named["marching.range_step"]]

    farm_s = total("parallel.frequency_farm")
    per_worker = defaultdict(float)
    for span in named["marching.run_frequency"]:
        per_worker[span["pid"]] += span["attrs"]["wall_seconds"]
    busy = sum(per_worker.values())

    write_s = total("output.write_tl_grid")
    tl_bytes = sum(s["attrs"]["bytes"] for s in named["output.write_tl_grid"])
    manifest_bytes = sum(s["attrs"]["bytes"] for s in named["output.write_manifest"])
    hash_s = total("output.file_sha256")
    manifest_s = total("output.write_manifest")

    return {
        "config.load_s": (total("config.load_config"), "s"),
        "environment.refraction_grid_s": (total("environment.refraction_index_grid"), "s"),
        "environment.refraction_grid_calls": (count("environment.refraction_index_grid"), "count"),
        "environment.tl_record_s": (total("environment.transmission_loss_field"), "s"),
        "environment.tl_record_calls": (count("environment.transmission_loss_field"), "count"),
        "environment.self_s": (layer_self["environment"], "s"),
        "operators.rhs_s": (total("operators.compute_rhs"), "s"),
        "operators.assemble_depth_s": (total("operators.assemble_depth_batch"), "s"),
        "operators.assemble_azimuth_s": (total("operators.assemble_azimuth_batch"), "s"),
        "operators.self_s": (layer_self["operators"], "s"),
        "tridiag.depth_solve_s": (depth_s, "s"),
        "tridiag.azimuth_solve_s": (azimuth_s, "s"),
        "tridiag.systems_per_s": (systems / (depth_s + azimuth_s), "1/s"),
        "tridiag.solve_calls": (len(solves), "count"),
        "tridiag.systems_solved": (systems, "count"),
        "tridiag.rows_eliminated": (rows, "count"),
        "tridiag.computed_flops": (flops, "flop"),
        "tridiag.computed_bytes": (nbytes, "B"),
        "tridiag.ops_per_byte": (flops / nbytes, "flop/B"),
        "tridiag.self_s": (layer_self["tridiag"], "s"),
        "pool.fork_join_calls": (len(fork_joins), "count"),
        "pool.fork_join_s": (layer_self["pool"], "s"),
        "pool.parallel_dispatches": (
            sum(1 for s in fork_joins if s["attrs"]["parallel"]), "count"),
        "marching.steps": (len(steps_ms), "count"),
        "marching.step_ms.p50": (statistics.median(steps_ms), "ms"),
        "marching.step_ms.p95": (statistics.quantiles(steps_ms, n=20)[18], "ms"),
        "marching.frequency_s": (total("marching.run_frequency"), "s"),
        "marching.self_s": (layer_self["marching"], "s"),
        "parallel.farm_s": (farm_s, "s"),
        "parallel.farm_overhead_s": (farm_s - max(per_worker.values()), "s"),
        "parallel.worker_busy_frac": (busy / (len(per_worker) * farm_s), "fraction"),
        "parallel.result_bytes": (record["result_bytes"], "B"),
        "parallel.self_s": (layer_self["parallel"], "s"),
        "output.write_s": (write_s, "s"),
        "output.bytes_written": (tl_bytes + manifest_bytes, "B"),
        "output.write_mb_per_s": (tl_bytes / write_s / 1e6, "MB/s"),
        "output.hash_s": (hash_s, "s"),
        "output.manifest_s": (manifest_s, "s"),
        "output.self_s": (layer_self["output"], "s"),
        "cli.self_s": (total("cli.main") - farm_s - write_s - hash_s - manifest_s, "s"),
        "trace.run_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.spans": (len(spans), "count"),
    }
