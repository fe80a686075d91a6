"""Digest every artifact of one full run, to show two checkouts byte-identical.

    PYTHONPATH=src python3 tools/artifact_digests.py --seed 7 [--config cfg.json]
        [--out-dir DIR]

Runs every stage for the seed (the config file's seed is overridden), then
``explain`` for every labelled address, and prints ``sha256  relpath`` for
every file in the run directory, sorted by path.  A labelled address that
``explain`` refuses prints a ``# explain`` line with the error instead.
Run it in two checkouts and ``diff`` the outputs.  The run directory is a
temporary one unless ``--out-dir`` names a directory to keep.  The program is
imported from this checkout's ``src`` directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from chainsentry import pipeline  # noqa: E402
from chainsentry.chain import load_labels  # noqa: E402
from chainsentry.errors import NotFoundError  # noqa: E402


def digest_run(config, out_dir: Path) -> list[str]:
    """Every stage and every explain into ``out_dir``; the listing lines."""
    pipeline.run_pipeline(config, out_dir)
    lines = []
    for address in sorted(load_labels(out_dir / config.data.labels)):
        try:
            pipeline.explain_address(config, out_dir, address)
        except NotFoundError as exc:
            lines.append(f"# explain {address}: {exc}")
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(out_dir).as_posix()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="universe seed")
    parser.add_argument("--config", type=Path, default=None,
                        help="pipeline config JSON (default: the built-in defaults)")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="keep the run here (default: a temporary directory)")
    args = parser.parse_args(argv)
    payload = json.loads(args.config.read_text()) if args.config else {}
    config = pipeline.load_config({**payload, "seed": args.seed})
    if args.out_dir is not None:
        lines = digest_run(config, args.out_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="artifact-digests-") as tmp:
            lines = digest_run(config, Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
