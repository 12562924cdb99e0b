"""Consumer census: which functions of a package does nothing run?

``python -m repro.analysis census`` runs every *consumer* of the
library — the examples, the experiment CLI, the paper-exhibit
benchmarks, the docs' runnable blocks, the lint gate and the
end-to-end workloads ``BENCHMARK.json`` declares — each as a
subprocess under a generated ``sitecustomize.py``.  That hook records
the first call of every code object defined under ``src/repro``, in
the process itself, in its threads and in every process it spawns (the
hook rides ``PYTHONPATH`` and the environment into ``spawn``-started
children, and appends each new code object to a per-process file at
once, so a worker killed mid-run has already reported what it ran).

Every function definition the AST holds is then matched against that
call set, and each one no consumer called is printed as a finding —
unless a ``# census: <reason>`` comment sits on the line directly above
its ``def`` (or above its first decorator).  A function nested inside
an uncalled function is covered by its parent's finding.  The census
does not count its own module: it is the instrument, not a consumer.

It is a command, not a gate: it takes about a minute and a half, and
its call set is only as wide as the consumers are.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.astutil import qualname_map
from repro.analysis.findings import Finding, SourceFile

RULE = "census"
_KEEP_RE = re.compile(r"#\s*census:\s*(\S.*)")

#: Imported at start-up by every interpreter that finds it on
#: ``PYTHONPATH``; records ``path\tfirst line\tname`` of each code object
#: under ``$REPRO_CENSUS_SRC`` the first time any thread calls it.
HOOK = '''\
import os, sys, threading

_out = os.environ.get("REPRO_CENSUS_OUT")
_src = os.environ.get("REPRO_CENSUS_SRC")
if _out and _src:
    _seen = {}
    _fd = os.open(os.path.join(_out, "%d.calls" % os.getpid()),
                  os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def _census(frame, event, arg):
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
            path = os.path.abspath(code.co_filename)
            if path.startswith(_src):
                os.write(_fd, ("%s\\t%d\\t%s\\n" % (
                    path, code.co_firstlineno, code.co_name)).encode())

    sys.settrace(_census)
    threading.settrace(_census)
'''


def repo_consumers(root: Path) -> list[list[str]]:
    """The command lines of every consumer of this repository."""
    py = sys.executable
    e2e = str(root / "benchmarks" / "e2e" / "run.py")
    commands = [[py, str(p)] for p in sorted((root / "examples").glob("*.py"))]
    commands += [
        [py, "-m", "repro.experiments", "all"],
        [py, "-m", "repro.experiments", "export", "{tmp}"],
        [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable",
         *map(str, sorted((root / "benchmarks").glob("bench_*.py")))],
        [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(root / "tests" / "test_docs.py")],
        [py, "-m", "repro.analysis", "--check"],
    ]
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in ("0", "1"):
            commands.append([py, e2e, "--workload", workload, "--seed", "0",
                             "--seconds", "2", "--trace", trace])
    return commands


def record_calls(
    commands: Sequence[Sequence[str]], src: Path, cwd: Path
) -> set[tuple[str, int, str]]:
    """Run each command under the hook; the ``(path, line, name)`` of
    every code object under ``src`` any of them called.

    Raises
    ------
    RuntimeError
        If a command exits non-zero: a consumer that fails part-way has
        not run what it would run, and its gap would condemn live code.
    """
    src = src.resolve()
    with tempfile.TemporaryDirectory(prefix="repro-census-") as tmp:
        hook_dir, out = Path(tmp, "hook"), Path(tmp, "calls")
        hook_dir.mkdir()
        out.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(hook_dir), str(src.parent)]),
            REPRO_CENSUS_OUT=str(out),
            REPRO_CENSUS_SRC=str(src) + os.sep,
        )
        for i, command in enumerate(commands):
            scratch = Path(tmp, f"consumer-{i}")
            argv = [a.replace("{tmp}", str(scratch)) for a in command]
            print("census: running " + " ".join(argv[1:]), file=sys.stderr)
            done = subprocess.run(argv, cwd=cwd, env=env,
                                  stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                raise RuntimeError(
                    f"consumer exited {done.returncode}: {' '.join(argv)}")
        calls = set()
        for log in out.glob("*.calls"):
            for line in log.read_text().splitlines():
                path, first, name = line.split("\t")
                calls.add((path, int(first), name))
    return calls


def _definitions(
    node: ast.AST, called: "set[tuple[int, str]]"
) -> Iterator["tuple[ast.FunctionDef | ast.AsyncFunctionDef, bool]"]:
    """``(function, was_called)`` for every function under ``node``
    except those nested inside an uncalled function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            hit = (_first_line(child), child.name) in called
            yield child, hit
            if hit:
                yield from _definitions(child, called)
        else:
            yield from _definitions(child, called)


def _first_line(node: "ast.FunctionDef | ast.AsyncFunctionDef") -> int:
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def uncalled(
    src: Path, root: Path, calls: "set[tuple[str, int, str]]"
) -> tuple[list[Finding], int, int]:
    """Findings for the uncalled, unkept functions under ``src``, with
    the number of functions and of ``# census:`` keeps seen."""
    called: dict[str, set[tuple[int, str]]] = {}
    for path, line, name in calls:
        called.setdefault(path, set()).add((line, name))
    findings: list[Finding] = []
    total = kept = 0
    for path in sorted(src.resolve().rglob("*.py")):
        if path == Path(__file__).resolve():
            continue
        parsed = SourceFile.parse(path.relative_to(root.resolve()).as_posix(),
                                  path.read_text())
        names = qualname_map(parsed.tree)
        hits = called.get(str(path), set())
        for defn, hit in _definitions(parsed.tree, hits):
            total += 1
            if hit:
                continue
            if _KEEP_RE.search(parsed.comments.get(_first_line(defn) - 1, "")):
                kept += 1
                continue
            findings.append(Finding(
                rule=RULE, path=parsed.path, line=defn.lineno,
                symbol=names[defn],
                message=f"no consumer calls {defn.name}; delete it or "
                "keep it with a '# census: <reason>' line above its def",
            ))
    return findings, total, kept


def main(root: Path) -> int:
    """Run the repository's consumers and print what none of them called."""
    src = root / "src" / "repro"
    try:
        calls = record_calls(repo_consumers(root), src, root)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings, total, kept = uncalled(src, root, calls)
    for finding in findings:
        print(finding.render())
    print(f"census: {total} function(s), {total - kept - len(findings)} "
          f"called, {kept} kept, {len(findings)} uncalled")
    return 1 if findings else 0
