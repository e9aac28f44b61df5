"""List every line of src/phkit that the Tier-1 tests never run.

usage: python tools/untested_lines.py [pytest args ...]

Runs `python -m pytest -q` from the repository root under a line tracer
and prints `path:line: source` for each unreached line, then a count. The
tracer is a `sitecustomize` module placed first on PYTHONPATH: every Python
process that starts with that PYTHONPATH installs it, and the tests' CLI
children keep the entry, so their lines count too. Each process writes its
hits when it exits; a process that is killed writes none.

A line is reachable when a code object compiled from the file lists it in
`co_lines()`. Extra arguments go to pytest, for example `-m "not slow"`.
The exit status is pytest's when it fails, else 1 if any line is unreached.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phkit"

# installed in every traced process; reads where to write from the
# environment so children find the same directory
SITECUSTOMIZE = '''\
import atexit
import json
import os
import sys
import threading

_prefix = os.environ["UNTESTED_LINES_PACKAGE"] + os.sep
_out = os.environ["UNTESTED_LINES_OUT"]
_hits = set()


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_prefix):
        return _local
    return None


def _dump():
    if _hits:
        path = os.path.join(_out, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sorted(_hits), fh)


atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
'''


def _code_lines(code):
    """Line numbers of the code object and of every code object inside it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def main(argv):
    with tempfile.TemporaryDirectory() as tmp:
        site_dir, out_dir = Path(tmp, "site"), Path(tmp, "hits")
        site_dir.mkdir()
        out_dir.mkdir()
        (site_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        path = os.pathsep.join(
            p for p in (str(site_dir), str(ROOT / "src"),
                        os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path,
                   UNTESTED_LINES_PACKAGE=str(PACKAGE),
                   UNTESTED_LINES_OUT=str(out_dir))
        status = subprocess.call(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *argv], cwd=ROOT, env=env)
        hits = set()
        for dump in out_dir.glob("*.json"):
            hits.update(map(tuple, json.loads(dump.read_text())))

    missing = 0
    for source in sorted(PACKAGE.glob("*.py")):
        text = source.read_text(encoding="utf-8")
        lines = text.splitlines()
        code = compile(text, str(source), "exec")
        for line in sorted(_code_lines(code)):
            if (str(source), line) not in hits:
                missing += 1
                rel = source.relative_to(ROOT)
                print(f"{rel}:{line}: {lines[line - 1].strip()}")
    print(f"{missing} unreached lines in {PACKAGE.relative_to(ROOT)}")
    if status:
        return status
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
