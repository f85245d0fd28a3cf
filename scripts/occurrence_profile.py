#!/usr/bin/env python3
"""Letter bookkeeping for one degree: per-position counts and run histograms."""

from __future__ import annotations

import argparse

from bchseries import PRESET_NAMES, letter_occurrence_profile, preset
from bchseries.engine import MAX_DEGREE


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "degree",
        type=int,
        choices=range(1, MAX_DEGREE + 1),
        metavar="degree",
        help=f"series degree to profile, 1..{MAX_DEGREE}",
    )
    parser.add_argument(
        "--variant",
        choices=PRESET_NAMES,
        metavar="NAME",
        default="standard",
        help=f"preset name: {', '.join(PRESET_NAMES)}",
    )
    args = parser.parse_args(argv)

    profile = letter_occurrence_profile(args.degree, preset(args.variant))
    print(f"variant={args.variant} degree={profile.n}")
    print(f"non-zero words: {profile.term_count}")
    print(f"X per position: {profile.x_position_counts} (total {profile.x_total})")
    print(f"Y per position: {profile.y_position_counts} (total {profile.y_total})")
    print(f"maximal X-run histogram: {profile.x_run_histogram}")
    print(f"maximal Y-run histogram: {profile.y_run_histogram}")
    print(f"run totals consistent with position totals: {profile.consistent}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
