"""The `soke` console script.

    soke run CONFIG OUT [--set key.path=value ...] [--force]
    soke verify OUT

`run` executes the pipeline into the run directory OUT; `verify` exits 0
when every artifact still matches the manifest, and otherwise prints the
path of each altered or missing artifact and exits 1.
Package errors print to stderr and exit 2.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_run_config
from .errors import SokeError
from .pipeline import changed_artifacts, run_pipeline


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="soke", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the pipeline into a run directory")
    run.add_argument("config", help="run config JSON file")
    run.add_argument("out", help="run directory")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="key.path=value", help="override one config key (repeatable)")
    run.add_argument("--force", action="store_true", help="re-run every stage")
    verify = commands.add_parser("verify", help="re-hash a run directory's artifacts")
    verify.add_argument("out", help="run directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_run_config(args.config, args.overrides)
            manifest = run_pipeline(config, args.out, force=args.force)
            print(f"{args.out}: ran {', '.join(manifest['stages_run']) or 'no stages'}")
            return 0
        changed = changed_artifacts(args.out)
        print(f"{args.out}: {'artifacts differ from the manifest' if changed else 'ok'}")
        for rel in changed:
            print(f"  {rel}")
        return 1 if changed else 0
    except (SokeError, OSError) as exc:
        print(f"soke: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
