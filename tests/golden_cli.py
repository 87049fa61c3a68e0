"""Strict CLI entry shared by the golden-regeneration scripts.

Every ``--write`` entrypoint (``tests/test_goldens.py``,
``tests/test_engine_scheduler.py``, ``tests/test_output_digests.py``)
funnels through :func:`golden_main`
so regeneration hygiene is uniform and pinned by
``tests/test_golden_hygiene.py``:

* unknown arguments fail loudly (argparse exits 2) **before** any golden
  byte is written — a typo like ``--wirte`` or a stray extra flag must
  never silently print the docstring while the caller believes the
  goldens were refreshed;
* ``--write`` asserts the repo-root working directory (``tests/goldens/``
  resolvable from ``cwd``) so regen always runs in the tree whose diff
  the reviewer is about to read;
* a bare invocation prints the script's docstring (the historical
  behaviour) and changes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable


def golden_main(
    writer: Callable[[], None],
    doc: str | None,
    argv: list[str] | None = None,
) -> None:
    """Run one golden script's CLI: ``--write`` regenerates, else docs."""
    parser = argparse.ArgumentParser(
        description="regenerate committed goldens (review the diff!)"
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="rewrite the goldens this script owns",
    )
    args = parser.parse_args(argv)  # unknown/extra args: exit 2, no write
    if not args.write:
        print(doc or "pass --write to regenerate the goldens")
        return
    golden_dir = os.path.join(os.getcwd(), "tests", "goldens")
    if not os.path.isdir(golden_dir):
        sys.exit(
            "golden regen must run from the repo root "
            f"(no tests/goldens/ under {os.getcwd()!r})"
        )
    writer()
