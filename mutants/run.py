#!/usr/bin/env python3
"""Mutation runner: which tests kill each mutant of `mutants/corpus.json`.

A mutant is one anchored text edit to non-test source; a test kills it
when it fails with the edit applied. For every corpus row the runner

1. copies the working tree once into `target/mutants/tree` (its own
   `CARGO_TARGET_DIR`, `target/mutants/target`, so the repo's build is
   never reused or disturbed) and applies the row's edit there;
2. records the row as `invalid` if the anchor does not occur exactly
   once or the mutated tree does not compile;
3. runs tier-1 (`cargo test --no-fail-fast` on the root package), then
   the workspace suite of every other package that depends on the
   mutated one (a package that does not cannot observe the edit), and
   records each failing test binary and test name (the unmutated tree
   must pass every one, or the runner stops);
4. puts a mutant that no test kills through CI's clippy gate;
5. caps each mutant at `CAP_S` seconds of wall clock — `fl::transport`
   has no read timeout, so a protocol mutant can wedge a socket test —
   recording a capped run as `timeout` after killing its process group;
6. checks afterwards that no `fedmp-node` process and no `fedmp-*.sock`
   file is left behind.

It writes `bench-results/mutants.json` after every row. It takes no
flags, uses fixed paths, runs about an hour on two cores, and is not
run in CI:

    python3 mutants/run.py
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "mutants" / "corpus.json"
OUT = ROOT / "bench-results" / "mutants.json"
WORK = ROOT / "target" / "mutants"
TREE = WORK / "tree"
TARGET = WORK / "target"
TMP = WORK / "tmp"
ROOT_PACKAGE = "fedmp"
CAP_S = 1200

RUNNING = re.compile(r"^\s*Running (?:unittests )?(\S+) \((.+)\)\s*$")
DOC_TESTS = re.compile(r"^\s*Doc-tests (\S+)\s*$")
FAILED = re.compile(r"^test (.+) \.\.\. FAILED\s*$")
EXITED = re.compile(r"process didn't exit successfully: `([^`\s]+)")


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("FEDMP_")}
    env.update(CARGO_TARGET_DIR=str(TARGET), TMPDIR=str(TMP), CARGO_TERM_COLOR="never")
    return env


def run(cmd, deadline):
    """Runs `cmd` in TREE in its own process group; returns (code, output),
    code None when the deadline passed and the group was killed."""
    proc = subprocess.Popen(
        cmd,
        cwd=TREE,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        errors="replace",
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out


def copy_tree():
    """Mirrors the working tree into TREE. A file is rewritten only when
    its content differs, which gives it a fresh mtime; an unchanged one
    keeps the mtime of its last write. Copying old mtimes back over a
    restored mutant would let cargo trust artifacts built from it."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT,
        check=True,
        capture_output=True,
    ).stdout.decode()
    keep = {rel for rel in listed.split("\0") if rel and (ROOT / rel).is_file()}
    for rel in keep:
        src, dst = (ROOT / rel).read_bytes(), TREE / rel
        if not dst.is_file() or dst.read_bytes() != src:
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_bytes(src)
    for path in [p for p in TREE.rglob("*") if p.is_file()]:
        if path.relative_to(TREE).as_posix() not in keep:
            path.unlink()


def workspace():
    """Package directories, lib crate names and reverse dependencies."""
    meta = json.loads(
        subprocess.run(
            ["cargo", "metadata", "--format-version", "1", "--offline", "--no-deps"],
            cwd=TREE,
            env=child_env(),
            check=True,
            capture_output=True,
            text=True,
        ).stdout
    )
    names = {p["name"] for p in meta["packages"]}
    dirs, crates, deps = {}, {}, {}
    for p in meta["packages"]:
        dirs[p["name"]] = Path(p["manifest_path"]).parent.resolve()
        for t in p["targets"]:
            if "lib" in t["kind"]:
                crates[t["name"]] = p["name"]
        deps[p["name"]] = {d["name"] for d in p["dependencies"] if d["name"] in names}
    return dirs, crates, deps


def dependents(package, deps):
    out = {package}
    while True:
        more = {p for p, ds in deps.items() if ds & out} - out
        if not more:
            return out
        out |= more


def owner(path, dirs):
    path = (TREE / path).resolve()
    best = max((d for d in dirs.values() if d in path.parents), key=lambda d: len(d.parts))
    return next(name for name, d in dirs.items() if d == best)


def build(packages, deadline, binaries, dirs):
    """Compiles every test target of `packages`; fills `binaries` (executable
    file name → `package/target`). Returns None on success, else a reason."""
    cmd = ["cargo", "test", "--no-run", "--offline", "--message-format=json"]
    cmd += [a for p in sorted(packages) for a in ("-p", p)]
    code, out = run(cmd, deadline)
    if code is None:
        return "timeout"
    package_of = {d: name for name, d in dirs.items()}
    for line in out.splitlines():
        if not line.startswith("{"):
            continue
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            pkg = package_of[Path(msg["manifest_path"]).parent.resolve()]
            kind = msg["target"]["kind"][0]
            target = "lib" if kind == "lib" else msg["target"]["name"]
            binaries[Path(msg["executable"]).name] = f"{pkg}/{target}"
    if code != 0:
        errors = [
            json.loads(l)["message"]["rendered"].splitlines()[0]
            for l in out.splitlines()
            if l.startswith("{") and '"level":"error"' in l and '"reason":"compiler-message"' in l
        ]
        return "does not compile: " + (errors[0] if errors else out.strip().splitlines()[-1])
    return None


def failures(out, binaries, crates):
    """(binary, test) pairs that failed, from merged `cargo test` output."""
    failed, current, seen = set(), None, set()
    for line in out.splitlines():
        if m := RUNNING.match(line):
            current = binaries.get(Path(m.group(2)).name, Path(m.group(2)).name)
        elif m := DOC_TESTS.match(line):
            current = f"{crates.get(m.group(1), m.group(1))}/doc"
        elif (m := FAILED.match(line)) and current:
            failed.add((current, m.group(1)))
            seen.add(current)
        elif m := EXITED.search(line):
            binary = binaries.get(Path(m.group(1)).name, Path(m.group(1)).name)
            if binary not in seen:
                failed.add((binary, "(exited without a test result)"))
    return failed


def test_stage(packages, deadline, binaries, crates):
    cmd = ["cargo", "test", "--no-fail-fast", "--offline"]
    cmd += [a for p in sorted(packages) for a in ("-p", p)]
    code, out = run(cmd, deadline)
    return code is None, failures(out, binaries, crates)


def leaks():
    found = []
    pids = subprocess.run(["pgrep", "-x", "fedmp-node"], capture_output=True, text=True).stdout
    for pid in pids.split():
        try:
            exe = os.readlink(f"/proc/{pid}/exe")
        except OSError:
            continue
        if exe.startswith(str(TARGET)):
            found.append(f"fedmp-node pid {pid}")
            os.kill(int(pid), signal.SIGKILL)
    found += [f"socket {p.name}" for p in TMP.glob("fedmp-*.sock")]
    return found


def names(pairs):
    return sorted(f"{b}::{t}" for b, t in pairs)


def mutate(row, dirs, deps, crates):
    path = TREE / row["file"]
    original = path.read_text()
    result = {k: row[k] for k in ("id", "mechanism", "file")}
    count = original.count(row["anchor"])
    package = owner(row["file"], dirs)
    touched = dependents(package, deps)
    tier1 = {ROOT_PACKAGE} & touched
    rest = touched - {ROOT_PACKAGE}
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir(parents=True)
    start = time.monotonic()
    deadline = start + CAP_S
    binaries = {}
    path.write_text(original.replace(row["anchor"], row["replacement"]))
    try:
        reason = f"anchor occurs {count} times" if count != 1 else None
        reason = reason or build(tier1 | rest, deadline, binaries, dirs)
        killed = {"tier1": set(), "workspace": set()}
        timed_out = reason == "timeout"
        if reason and not timed_out:
            result.update(status="invalid", reason=reason)
        elif not timed_out:
            for stage, packages in (("tier1", tier1), ("workspace", rest)):
                if packages:
                    timed_out, failed = test_stage(packages, deadline, binaries, crates)
                    killed[stage] = failed
                    if timed_out:
                        break
        clippy = False
        if not reason and not timed_out and not (killed["tier1"] or killed["workspace"]):
            cmd = ["cargo", "clippy", "--offline", "--workspace", "--all-targets", "--", "-D", "warnings"]
            code, _ = run(cmd, deadline)
            timed_out = code is None
            clippy = code not in (0, None)
        if "status" not in result:
            status = "timeout" if timed_out else "killed" if (
                killed["tier1"] or killed["workspace"] or clippy
            ) else "survived"
            result.update(
                status=status,
                tier1=names(killed["tier1"]),
                workspace=names(killed["workspace"]),
                clippy=clippy,
            )
    finally:
        path.write_text(original)
    result["packages"] = sorted(touched)
    result["wall_s"] = round(time.monotonic() - start, 1)
    result["leaks"] = leaks()
    kills = set(result.get("tier1", [])) | set(result.get("workspace", []))
    kills |= {"clippy"} if result.get("clippy") else set()
    result["expect"] = row["expect"]
    result["expect_met"] = result["status"] == "killed" and set(row["expect"]) <= kills
    if "equivalent" in row:
        result["equivalent"] = row["equivalent"]
    return result


def summary(rows):
    """Per test: the mutants it kills, and those it is the only killer of."""
    tests = {}
    for r in rows:
        killers = r.get("tier1", []) + r.get("workspace", []) + (["clippy"] if r.get("clippy") else [])
        for k in killers:
            entry = tests.setdefault(k, {"kills": [], "sole": []})
            entry["kills"].append(r["id"])
            if len(killers) == 1:
                entry["sole"].append(r["id"])
    return dict(sorted(tests.items()))


def main():
    if len(sys.argv) > 1:
        sys.exit("usage: python3 mutants/run.py (no flags)")
    corpus = json.loads(CORPUS.read_text())
    started = time.monotonic()
    copy_tree()
    TMP.mkdir(parents=True, exist_ok=True)
    dirs, crates, deps = workspace()
    everything = set(dirs)
    binaries = {}
    deadline = time.monotonic() + 4 * CAP_S
    if reason := build(everything, deadline, binaries, dirs):
        sys.exit(f"unmutated tree: {reason}")
    for packages in ({ROOT_PACKAGE}, everything - {ROOT_PACKAGE}):
        timed_out, failed = test_stage(packages, deadline, binaries, crates)
        if timed_out or failed:
            sys.exit("unmutated tree fails: " + ("timeout" if timed_out else ", ".join(names(failed))))
    report = {
        "corpus": "mutants/corpus.json",
        "runner": "python3 mutants/run.py",
        "baseline_wall_s": round(time.monotonic() - started, 1),
        "mutants": [],
    }
    for row in corpus:
        report["mutants"].append(mutate(row, dirs, deps, crates))
        counts = {}
        for r in report["mutants"]:
            counts[r["status"]] = counts.get(r["status"], 0) + 1
        report["counts"] = counts
        report["total_wall_s"] = round(time.monotonic() - started, 1)
        report["tests"] = summary(report["mutants"])
        OUT.write_text(json.dumps(report, indent=2, ensure_ascii=False) + "\n")
        last = report["mutants"][-1]
        print(f"{last['id']}: {last['status']} ({last['wall_s']} s)", flush=True)
    if any(r["leaks"] for r in report["mutants"]):
        sys.exit("leaked fedmp-node processes or socket files; see bench-results/mutants.json")


if __name__ == "__main__":
    main()
