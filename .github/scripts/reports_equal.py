#!/usr/bin/env python3
"""reports_equal.py REF OTHER... - the JSON outputs of `qadaptive-cli run` /
`sweep` must agree with REF on every field of the bit-for-bit contract.

`wall_seconds` and `memory_bytes` are skipped at every depth: both
legitimately vary with the host, the execution mode and resume's
exact-length buffers (the same list `SimulationReport::first_difference`
skips). Exits 1 naming the first diverging path and both values.
"""
import json
import sys

SKIP = ("wall_seconds", "memory_bytes")


def first_difference(path, a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key in SKIP:
                continue
            if key not in a or key not in b:
                return f"{path}.{key} (present on one side only)"
            diff = first_difference(f"{path}.{key}", a[key], b[key])
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path} (length {len(a)} vs {len(b)})"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(f"{path}[{i}]", x, y)
            if diff:
                return diff
        return None
    return None if a == b else f"{path} ({a!r} vs {b!r})"


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    ref_path, others = argv[1], argv[2:]
    with open(ref_path) as f:
        ref = json.load(f)
    for other_path in others:
        with open(other_path) as f:
            diff = first_difference("", ref, json.load(f))
        if diff:
            sys.exit(f"{other_path} diverges from {ref_path} at {diff}")
    print(f"{ref_path} == {', '.join(others)} on every field but {', '.join(SKIP)}")


if __name__ == "__main__":
    main(sys.argv)
