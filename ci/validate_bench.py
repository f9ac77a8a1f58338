#!/usr/bin/env python3
"""Validates the schema and invariants of a perf-benchmark JSON file.
The schema is selected by `meta.bench`:

  * `pr5-encode-hot-path` (`BENCH_PR5.json`, `perf [--smoke]`);
  * `pr8_kernels` (`BENCH_PR8.json`, `perf --kernels [--smoke]`).

Usage: python3 ci/validate_bench.py <bench.json> [--detected <tier>]

PR5 checks:
  * schema: meta block + per-result field names and types;
  * every (clip, variant) cell present: naive and fast, each at 1 thread;
  * the optimized single-thread path actually saves SAD work, and its
    measured speedup clears a floor (1.2x here — a soft CI gate; the
    committed BENCH_PR5.json records ~1.8x on a quiet machine);
  * single-thread steady state performs zero allocations per frame.

PR8 checks:
  * schema: meta block (arch, detected-best tier, per-arch pins) +
    per-result field names and types;
  * every kernel is measured on every tier the run reported, with the
    scalar baseline pinned at exactly 1.0x;
  * the best tier clears a 2.0x floor on the SAD and fused-transform
    microbenches (the PR8 acceptance claim);
  * `--detected <tier>`: the tier the running host detects as best
    (from `perf --kernels-info`) matches the committed per-arch pin, so
    a silently broken dispatch chain fails CI instead of benching
    scalar everywhere.
"""

import json
import sys

SPEEDUP_FLOOR = 1.2

KERNEL_SPEEDUP_FLOORS = {"sad16": 2.0, "fused_transform": 2.0}
KERNEL_META_FIELDS = {"bench", "arch", "detected_best", "pins", "scale"}
KERNEL_RESULT_FIELDS = {
    "kernel": str,
    "tier": str,
    "ns_per_call": (int, float),
    "speedup_vs_scalar": (int, float),
}
KERNELS = {"sad16", "sad16_bounded", "fused_transform", "idct8", "halfpel16"}

META_FIELDS = {"bench", "config", "warmup_frames", "measured_frames_per_clip"}
RESULT_FIELDS = {
    "name": str,
    "threads": int,
    "clip": str,
    "frames": int,
    "fps": (int, float),
    "sad_ops_per_frame": (int, float),
    "allocs_per_frame": (int, float),
    "speedup_vs_naive": (int, float),
}
EXPECTED_VARIANTS = {
    ("naive", 1),
    ("fast", 1),
}


def fail(msg):
    print(f"bench validation FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_kernels(doc, detected):
    if set(doc["meta"]) != KERNEL_META_FIELDS:
        fail(f"meta keys {sorted(doc['meta'])} != {sorted(KERNEL_META_FIELDS)}")
    meta = doc["meta"]
    pins = meta["pins"]
    if not isinstance(pins, dict) or not pins:
        fail("meta.pins must be a non-empty arch -> tier map")
    if meta["scale"] not in ("full", "smoke"):
        fail(f"meta.scale {meta['scale']!r} not full/smoke")
    results = doc["results"]
    if not results:
        fail("empty results")

    by_kernel = {}
    tiers = []
    for r in results:
        if set(r) != set(KERNEL_RESULT_FIELDS):
            fail(f"result keys {sorted(r)} != {sorted(KERNEL_RESULT_FIELDS)}")
        for field, ty in KERNEL_RESULT_FIELDS.items():
            if not isinstance(r[field], ty):
                fail(f"{r['kernel']}/{r['tier']}: {field} is {type(r[field]).__name__}")
        if r["ns_per_call"] <= 0:
            fail(f"{r['kernel']}/{r['tier']}: non-positive ns_per_call")
        by_kernel.setdefault(r["kernel"], {})[r["tier"]] = r
        if r["tier"] not in tiers:
            tiers.append(r["tier"])

    if set(by_kernel) != KERNELS:
        fail(f"kernels {sorted(by_kernel)} != {sorted(KERNELS)}")
    if tiers[0] != "scalar":
        fail("the scalar baseline must be measured first")
    for kernel, cells in sorted(by_kernel.items()):
        if set(cells) != set(tiers):
            fail(f"{kernel}: tiers {sorted(cells)} != {sorted(tiers)}")
        if cells["scalar"]["speedup_vs_scalar"] != 1.0:
            fail(f"{kernel}: scalar speedup {cells['scalar']['speedup_vs_scalar']} != 1.0")
    if len(tiers) > 1:
        for kernel, floor in sorted(KERNEL_SPEEDUP_FLOORS.items()):
            best = max(r["speedup_vs_scalar"] for r in by_kernel[kernel].values())
            if best < floor:
                fail(f"{kernel}: best speedup {best} below floor {floor}")

    if detected is not None:
        pin = pins.get(meta["arch"])
        if pin is None:
            fail(f"no pin committed for arch {meta['arch']}")
        if detected != pin:
            fail(
                f"host detects best tier {detected!r} but the committed pin"
                f" for {meta['arch']} is {pin!r} — dispatch regressed"
            )

    best = {
        kernel: max(r["speedup_vs_scalar"] for r in cells.values())
        for kernel, cells in sorted(by_kernel.items())
    }
    print(
        f"bench OK: {len(results)} kernel results over tiers {tiers}, best "
        + ", ".join(f"{k}={v:.2f}x" for k, v in best.items())
        + (f", detected={detected} matches pin" if detected is not None else "")
    )


def main(path, detected=None):
    with open(path) as f:
        doc = json.load(f)

    if set(doc) != {"meta", "results"}:
        fail(f"top-level keys {sorted(doc)} != ['meta', 'results']")
    if doc.get("meta", {}).get("bench") == "pr8_kernels":
        validate_kernels(doc, detected)
        return
    if detected is not None:
        fail("--detected only applies to pr8_kernels benches")
    if set(doc["meta"]) != META_FIELDS:
        fail(f"meta keys {sorted(doc['meta'])} != {sorted(META_FIELDS)}")
    results = doc["results"]
    if not results:
        fail("empty results")

    by_clip = {}
    for r in results:
        if set(r) != set(RESULT_FIELDS):
            fail(f"result keys {sorted(r)} != {sorted(RESULT_FIELDS)}")
        for field, ty in RESULT_FIELDS.items():
            if not isinstance(r[field], ty):
                fail(f"{r['name']}: {field} is {type(r[field]).__name__}")
        if r["frames"] != doc["meta"]["measured_frames_per_clip"]:
            fail(f"{r['name']}: frames != meta.measured_frames_per_clip")
        if r["fps"] <= 0:
            fail(f"{r['name']}: non-positive fps")
        variant = r["name"].rsplit("/", 1)[0]
        by_clip.setdefault(r["clip"], {})[variant] = r

    for clip, cells in sorted(by_clip.items()):
        have = {(v, r["threads"]) for v, r in cells.items()}
        if have != EXPECTED_VARIANTS:
            fail(f"{clip}: variants {sorted(have)} != {sorted(EXPECTED_VARIANTS)}")
        naive, fast = cells["naive"], cells["fast"]
        if fast["sad_ops_per_frame"] >= naive["sad_ops_per_frame"]:
            fail(f"{clip}: fast path saved no SAD work")
        if fast["speedup_vs_naive"] < SPEEDUP_FLOOR:
            fail(
                f"{clip}: fast single-thread speedup {fast['speedup_vs_naive']}"
                f" below floor {SPEEDUP_FLOOR}"
            )
        for v in ("naive", "fast"):
            if cells[v]["allocs_per_frame"] != 0:
                fail(f"{clip}: {v} steady state allocates")

    print(
        f"bench OK: {len(results)} results over {sorted(by_clip)}, "
        "speedups "
        + ", ".join(
            f"{clip}={cells['fast']['speedup_vs_naive']:.2f}x"
            for clip, cells in sorted(by_clip.items())
        )
    )


if __name__ == "__main__":
    if len(sys.argv) == 2:
        main(sys.argv[1])
    elif len(sys.argv) == 4 and sys.argv[2] == "--detected":
        main(sys.argv[1], sys.argv[3])
    else:
        fail("usage: validate_bench.py <bench.json> [--detected <tier>]")
