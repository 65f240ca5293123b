#!/usr/bin/env python3
"""Lints the GitHub Actions workflows against the built test binaries.

Checks, for every file under the workflows directory:
  * it loads as YAML (GitHub runs none of a file's jobs when it does not);
  * every job has `runs-on` and a non-empty `steps` list;
  * every pattern of every --gtest_filter a step passes to a test binary
    matches at least one test that binary lists with --gtest_list_tests,
    so a renamed or deleted suite cannot leave a CI step running nothing.

Usage: check_workflows.py <workflows-dir> <test-binary-dir>

Exits 0 when every check holds and 1 otherwise, printing each failure.
Exits 77 (the ctest skip code) when PyYAML is not installed.
"""
import pathlib
import re
import subprocess
import sys

try:
    import yaml
except ImportError:
    print("PyYAML is not installed; skipping the workflow check")
    sys.exit(77)

# `<dir>/test_host --gtest_filter='A*:B*'`, with the filter quoted or bare.
FILTER_USE = re.compile(
    r"""(?:\S*/)?(test_\w+)\s+--gtest_filter=(?:'([^']*)'|"([^"]*)"|(\S+))""")


def list_tests(binary):
    """Full `Suite.Test` names the binary reports, parameters included."""
    out = subprocess.run([str(binary), "--gtest_list_tests"], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    names = []
    suite = None
    for line in out.splitlines():
        text = line.split("#", 1)[0].rstrip()  # drop "# GetParam() = ..."
        if not text:
            continue
        if not line.startswith(" "):
            suite = text if text.endswith(".") else None
        elif suite is not None:
            names.append(suite + text.strip())
    return names


def glob_matches(pattern, names):
    """gtest filter semantics: `*` any string, `?` any one character."""
    rx = re.compile("".join(".*" if c == "*" else "." if c == "?" else re.escape(c)
                            for c in pattern) + r"\Z")
    return any(rx.match(name) for name in names)


def step_commands(job):
    for step in job.get("steps") or []:
        if isinstance(step, dict) and isinstance(step.get("run"), str):
            yield step.get("name", "<unnamed step>"), step["run"]


def check_file(path, bin_dir, listed, failures):
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as e:
        failures.append(f"{path.name}: not valid YAML: {e}")
        return 0
    jobs = doc.get("jobs") if isinstance(doc, dict) else None
    if not isinstance(jobs, dict) or not jobs:
        failures.append(f"{path.name}: no jobs")
        return 0
    patterns = 0
    for job_id, job in jobs.items():
        if not isinstance(job, dict):
            failures.append(f"{path.name}: job '{job_id}' is not a mapping")
            continue
        if "runs-on" not in job:
            failures.append(f"{path.name}: job '{job_id}' has no runs-on")
        if not isinstance(job.get("steps"), list) or not job["steps"]:
            failures.append(f"{path.name}: job '{job_id}' has no steps")
        for step_name, run in step_commands(job):
            for line in run.splitlines():
                uses = list(FILTER_USE.finditer(line))
                if "--gtest_filter" in line and not uses:
                    failures.append(f"{path.name}: {job_id} / {step_name}: cannot tell which "
                                    f"binary this filter is passed to: {line.strip()}")
                for use in uses:
                    binary = use.group(1)
                    filt = next(g for g in use.groups()[1:] if g is not None)
                    if binary not in listed:
                        exe = bin_dir / binary
                        if not exe.is_file():
                            failures.append(f"{path.name}: {job_id} / {step_name}: no test "
                                            f"binary {exe}")
                            listed[binary] = None
                        else:
                            listed[binary] = list_tests(exe)
                    names = listed[binary]
                    if names is None:
                        continue
                    for pattern in re.split(r"[:-]", filt):
                        if not pattern:
                            continue
                        patterns += 1
                        if not glob_matches(pattern, names):
                            failures.append(f"{path.name}: {job_id} / {step_name}: "
                                            f"{binary} --gtest_filter pattern '{pattern}' "
                                            f"matches no test")
    return patterns


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    workflows = pathlib.Path(argv[1])
    bin_dir = pathlib.Path(argv[2])
    files = sorted(p for p in workflows.iterdir() if p.suffix in (".yml", ".yaml"))
    if not files:
        print(f"no workflow files under {workflows}")
        return 1
    failures = []
    listed = {}
    patterns = sum(check_file(p, bin_dir, listed, failures) for p in files)
    for failure in failures:
        print("FAIL", failure)
    print(f"{len(files)} workflow file(s), {patterns} --gtest_filter pattern(s), "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
