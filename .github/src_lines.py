"""Print ``src/repro`` lines per package (markdown) and hold the line ratchet.

    python .github/src_lines.py >> "$GITHUB_STEP_SUMMARY"

Fails when the total exceeds ``CEILING``.  A PR that shrinks the tree lowers
``CEILING`` to its own count; nothing raises it without saying why in review.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

# Smol-Core IV(a) lowered it 27 677 -> 27 158: the CLI's seven demo
# subcommands (serve-bench, loadtest, cluster-bench, adapt, measure, costs,
# video) and their helpers were deleted in favour of the benchmarks/ drivers
# that already ran the same experiments.  Smol-Serve III raised it by exactly
# the 29 lines the session server's lanes cost (27 158 -> 27 187): a lane per
# declared session stream, the session manager's streams check, the lane
# census at close, and the ladder's downgrade lock.
CEILING = 27_187
ROADMAP_GATE = 24_500  # ROADMAP item 9, Smol-Core IV: "the gate was <= 24 500"


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    lines: Counter[str] = Counter()
    for path in sorted(root.rglob("*.py")):
        package = "/".join(("repro", *path.relative_to(root).parts[:-1][:1]))
        lines[package] += len(path.read_bytes().splitlines())
    total = sum(lines.values())
    print("## Source lines by package\n")
    print("| Package | Lines |")
    print("|---|---:|")
    for package in sorted(lines):
        print(f"| {package} | {lines[package]} |")
    print(f"| **total** | **{total}** (ceiling {CEILING}, "
          f"ROADMAP gate {ROADMAP_GATE}) |")
    if total > CEILING:
        print(f"src/repro is {total} lines, over its ceiling of {CEILING}: "
              f"net source lines must not grow", file=sys.stderr)
    return int(total > CEILING)


if __name__ == "__main__":
    raise SystemExit(main())
