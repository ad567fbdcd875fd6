#!/usr/bin/env python3
"""Re-measure the frontier rows of tests/data/frontier.json: requests that
hang, run slowly, or give an inexact report today.

Each row runs as one `python -m eulerchar` process, one row at a time,
killed at the row's cap in seconds.  The table gives its exit code
("timeout" when the cap killed it), wall seconds, stdout bytes and peak
RSS.  The RSS is that row's own: a fresh wrapper process starts the row
and reads RUSAGE_CHILDREN, the maximum over its children, of which the row
is the only one.  A run takes at most the sum of the caps, plus start-up.

Example: python scripts/frontier.py
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROWS = ROOT / "tests" / "data" / "frontier.json"


def _wrapper() -> None:
    """Run the row read from stdin under its cap and print its figures as
    JSON; runs in its own process (`--row`)."""
    import resource

    row = json.load(sys.stdin)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    started = time.monotonic()
    try:
        done = subprocess.run([sys.executable, "-m", "eulerchar", *row["argv"]],
                              input=row["stdin"].encode(), capture_output=True,
                              timeout=row["cap"], env=env, cwd=ROOT)
        code, out = done.returncode, len(done.stdout)
    except subprocess.TimeoutExpired as exc:
        code, out = "timeout", len(exc.stdout or b"")
    seconds = time.monotonic() - started
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    print(json.dumps({"exit": code, "seconds": seconds, "stdout_bytes": out,
                      "peak_rss_mb": rss_kb / 1024}))


def measure(row: dict) -> dict:
    """The exit code, seconds, stdout bytes and peak RSS in MB of one row."""
    done = subprocess.run([sys.executable, __file__, "--row"], input=json.dumps(row),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main() -> int:
    rows = json.loads(ROWS.read_text(encoding="utf-8"))
    width = max(len(row["name"]) for row in rows)
    print(f"{'row':<{width}}  item  cap s  exit     seconds  stdout bytes  peak RSS MB")
    for row in rows:
        got = measure(row)
        print(f"{row['name']:<{width}}  {row['item']:>4}  {row['cap']:>5}  {got['exit']!s:<7}  "
              f"{got['seconds']:>7.2f}  {got['stdout_bytes']:>12}  {got['peak_rss_mb']:>11.1f}",
              flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--row"]:
        _wrapper()
    else:
        sys.exit(main())
