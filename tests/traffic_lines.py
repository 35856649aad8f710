"""A line census of package traffic: the lines of `src/soke` that the
package's callers never reach.

    PYTHONPATH=src python tests/traffic_lines.py

Runs these callers under one `sys.settrace` line trace, limited to files
under `src/soke`:
- `benchmark/configs/train.json` through `run_pipeline` in each decoding
  mode, twice into one directory (a fresh run, then a resume);
- `soke run` on that config, then `soke verify` on its directory;
- each benchmark workload at `--size tiny`, untraced and traced
  (`benchmark/run.py --trace 0` and `--trace 1`, in this process).

Then prints, per module and function, the executable lines of function
bodies that none of them reached, as line ranges. A claim that no caller
uses some code can cite this output instead of a guess. Module and class
bodies run at import, before the trace starts, so they are not counted.
The script reads `benchmark/`; it writes to a temporary directory and to
the benchmark's own output directory, `.bench_out/`. It is not a test.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from types import CodeType

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "soke"
CONFIG = REPO / "benchmark" / "configs" / "train.json"
WORKLOADS = ("train", "text2sign", "posefit")


class LineTrace:
    """The (file, line) pairs reached in package files while installed."""

    def __init__(self, root: Path):
        self.root = str(root)
        self.reached: set[tuple[str, int]] = set()

    def _line(self, frame, event, arg):
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.root):
            return self._line
        return None

    @contextlib.contextmanager
    def installed(self):
        previous = sys.gettrace()
        sys.settrace(self._call)
        try:
            yield self
        finally:
            sys.settrace(previous)


def executable_lines(path: Path) -> dict[str, set[int]]:
    """Function name -> the body lines its code objects can execute. A
    comprehension, generator expression or lambda counts toward the
    function that holds it."""
    lines: dict[str, set[int]] = defaultdict(set)

    def walk(code: CodeType, owner: str | None) -> None:
        if code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a module or class body
            if not code.co_name.startswith("<") or owner is None:
                owner = code.co_qualname
            # the def (or first decorator) line gets a call event, not a line event
            lines[owner].update(line for _, _, line in code.co_lines()
                                if line is not None and line != code.co_firstlineno)
        for const in code.co_consts:
            if isinstance(const, CodeType):
                walk(const, owner)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return lines


def ranges(numbers: list[int]) -> str:
    """Sorted line numbers as `a-b, c` ranges."""
    spans: list[list[int]] = []
    for n in numbers:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def run_callers(scratch: Path) -> None:
    from soke.amg import MODES
    from soke.cli import main as soke_main
    from soke.config import load_run_config
    from soke.pipeline import run_pipeline

    for mode in MODES:
        config = load_run_config(CONFIG, ["eval_sentences=4", f"mode={mode}"])
        for _ in range(2):
            run_pipeline(config, scratch / f"pipeline-{mode}")
    cli_dir = str(scratch / "cli")
    assert soke_main(["run", str(CONFIG), cli_dir]) == 0
    assert soke_main(["verify", cli_dir]) == 0

    sys.path.insert(0, str(REPO / "benchmark"))
    import run as bench_run

    for workload in WORKLOADS:
        for trace in ("0", "1"):
            assert bench_run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                                   "--trace", trace, "--size", "tiny"]) == 0


def main() -> int:
    start = time.perf_counter()
    trace = LineTrace(PACKAGE)
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        with trace.installed():
            run_callers(Path(scratch))
    total = unreached_total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE.parent)
        for function, lines in sorted(executable_lines(path).items()):
            unreached = sorted(line for line in lines if (str(path), line) not in trace.reached)
            total += len(lines)
            unreached_total += len(unreached)
            if unreached:
                print(f"{rel}  {function}  {ranges(unreached)}")
    print(f"# {unreached_total} of {total} executable function-body lines never reached; "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
