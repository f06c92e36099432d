"""Run the mutation catalogue: each mutant weakens one gate, and the test
selection named for it must fail.

    python3 mutants/run.py                       # every mutant
    python3 mutants/run.py --only premise-he-skipped

Run it from the root of a checkout.  For each entry of
`mutants/catalogue.json` (file, exact snippet, replacement, the gate it
weakens, the pytest selection expected to kill it) the script copies
`src/`, `tests/`, `perfbench/` and `pyproject.toml` into a temporary
directory, replaces the snippet there (it must occur exactly once in the
file), and runs the selection with pytest in one subprocess, under a
timeout of TIMEOUT seconds.  Mutants run one at a time.  Before them,
the test files of the selections run once on an unmutated copy, and a
failure there stops the run: a kill means nothing if the selection fails
anyway.

Each mutant ends killed (pytest exit code 1, or 2 for an error while
collecting), surviving (exit code 0), timed out, or error (any other
exit code, such as a selection that names no test).  The results go to
`mutants/MUTANTS.json`; the exit code is 0 only if every mutant was
killed.  Nothing under `src/` or `tests/` of the checkout is changed.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "mutants" / "catalogue.json"
RESULTS = ROOT / "mutants" / "MUTANTS.json"
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
# seconds per pytest run; the baseline of every selection took 11 s on a
# 2-vCPU host
TIMEOUT = 600


def _copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".perfbench_out")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _apply(dest, mutant):
    path = dest / mutant["file"]
    text = path.read_text()
    n = text.count(mutant["snippet"])
    if n != 1:
        raise ValueError("%s: snippet occurs %d times in %s"
                         % (mutant["id"], n, mutant["file"]))
    path.write_text(text.replace(mutant["snippet"], mutant["replacement"]))


def _pytest(dest, selection):
    """(exit code or None on timeout, seconds, last lines of output)."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", *selection]
    t0 = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=dest, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, ""
    tail = (done.stdout + done.stderr).strip().splitlines()[-3:]
    return done.returncode, time.perf_counter() - t0, "\n".join(tail)


def _status(code):
    if code is None:
        return "timed out"
    if code in (1, 2):
        return "killed"
    if code == 0:
        return "surviving"
    return "error"


def _run(selection, mutant=None):
    """_pytest of selection on a fresh copy, with mutant applied if any."""
    with tempfile.TemporaryDirectory(prefix="uqwb-mutant-") as tmp:
        dest = pathlib.Path(tmp)
        _copy_tree(dest)
        if mutant is not None:
            _apply(dest, mutant)
        return _pytest(dest, selection)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", action="append", default=[],
                    help="run only this mutant id (repeatable)")
    args = ap.parse_args(argv)

    with open(CATALOGUE) as fh:
        mutants = json.load(fh)
    unknown = set(args.only) - {m["id"] for m in mutants}
    if unknown:
        ap.error("no such mutant: %s" % ", ".join(sorted(unknown)))
    if args.only:
        mutants = [m for m in mutants if m["id"] in args.only]

    files = sorted({a.partition("::")[0] for m in mutants for a in m["kill"]
                    if a.startswith("tests/")})
    code, secs, tail = _run(files)
    print("baseline: exit %s in %.1f s" % (code, secs), flush=True)
    if code != 0:
        print(tail)
        print("the selections fail on the unmutated tree; no mutant run")
        return 2
    results = []
    for m in mutants:
        code, secs, tail = _run(m["kill"], m)
        status = _status(code)
        print("%-40s %-10s %6.1f s" % (m["id"], status, secs), flush=True)
        results.append({"id": m["id"], "file": m["file"], "gate": m["gate"],
                         "kill": m["kill"], "status": status,
                         "exit_code": code, "seconds": round(secs, 1),
                         "output_tail": tail})
    with open(RESULTS, "w") as fh:
        json.dump({"python": sys.version.split()[0], "mutants": results},
                  fh, indent=1)
        fh.write("\n")
    counts = {}
    for r in results:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    print("wrote %s: %s" % (RESULTS, counts))
    return 0 if counts.get("killed", 0) == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
