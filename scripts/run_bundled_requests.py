#!/usr/bin/env python3
"""Run the bundled analysis requests and print their text reports.

Usage: python scripts/run_bundled_requests.py [--format json|text]
"""

import argparse
import json
import pathlib
import sys

from eulerchar.cli import _emit, analyze_request, parse_request, render_text, report_to_dict

REQUEST_DIR = pathlib.Path(__file__).resolve().parent.parent / "data" / "requests"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--format", choices=("json", "text"), default="text")
    args = ap.parse_args()
    for path in sorted(REQUEST_DIR.glob("*.json")):
        report = analyze_request(parse_request(json.loads(path.read_text())))
        print(f"=== {path.name} ===")
        _emit(report_to_dict(report), "json" if args.format == "json" else render_text, sys.stdout)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
