#!/usr/bin/env bash
# doc-commands guard: every `--bin` / `--test` / `--example` / `--bench`
# target, every `target/release/<bin>` and every `.github/scripts/*.sh` that
# README.md, DESIGN.md, the CI workflow or the verify skill names must exist —
# as a `[[bin]]` / `[[test]]` / `[[example]]` / `[[bench]]` entry of a
# Cargo.toml, as an auto-discovered `src/bin/`, `tests/`, `examples/` or
# `benches/` file of a crate, or on disk — so deleting a target cannot leave
# a dangling command behind. And every `--flag` written after
# `--bin <name> --` must be a string literal (`"--flag"`) of that binary's
# source or of the figure binaries' shared `crates/bench/src/lib.rs`, so
# deleting a flag cannot either: the `arg_*` lookups ignore what they do not
# know, and a stale command line would run and measure something else.
#
# usage: doc-commands.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/../..}"

python3 - <<'PY'
import glob, os, re, sys

docs = ["README.md", "DESIGN.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"]
manifests = glob.glob("crates/*/Cargo.toml") + ["benchmark/Cargo.toml"]
auto_dirs = {"bin": "src/bin", "test": "tests", "example": "examples", "bench": "benches"}

targets = set()  # (kind, name)
bin_sources = {}  # bin name -> files that may read its flags
for m in manifests:
    text = open(m).read()
    root = os.path.dirname(m)
    for kind, name in re.findall(r'\[\[(bin|test|example|bench)\]\]\s*\nname = "([^"]+)"', text):
        targets.add((kind, name))
    # A binary with an explicit path is a `main.rs` with sibling modules.
    for name, path in re.findall(r'\[\[bin\]\]\s*\nname = "([^"]+)"\s*\npath = "([^"]+)"', text):
        bin_sources[name] = glob.glob(os.path.join(root, os.path.dirname(path), "*.rs"))
    for kind, sub in auto_dirs.items():
        for f in glob.glob(os.path.join(root, sub, "*.rs")):
            name = os.path.splitext(os.path.basename(f))[0]
            targets.add((kind, name))
            if kind == "bin":
                bin_sources[name] = [f]
shared = "crates/bench/src/lib.rs"

missing, checked = [], 0
for doc in docs:
    if not os.path.exists(doc):
        continue
    text = open(doc).read()
    named = set(re.findall(r"--(bin|test|example|bench)[ =]([A-Za-z0-9_-]+)", text))
    named |= {("bin", b) for b in re.findall(r"target/release/([a-z][a-z0-9_]+)", text)}
    for kind, name in sorted(named):
        checked += 1
        if (kind, name) not in targets:
            missing.append(f"{doc}: --{kind} {name} is not a target of any Cargo.toml")
    # The arguments of a documented run: up to the end of the command line
    # (backslash-newline continues it), a pipe, a comment or a closing
    # backtick.
    for name, tail in re.findall(r"--bin[ =]([A-Za-z0-9_-]+) -- ((?:\\\n|[^\n`|#])*)", text):
        literals = "".join(open(f).read() for f in bin_sources.get(name, []) + [shared])
        for flag in sorted(set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", tail))):
            checked += 1
            if f'"{flag}"' not in literals:
                missing.append(f"{doc}: --bin {name} -- {flag}: no \"{flag}\" literal in its source or {shared}")
    for script in sorted(set(re.findall(r"\.github/scripts/[A-Za-z0-9_-]+\.sh", text))):
        checked += 1
        if not os.access(script, os.X_OK):
            missing.append(f"{doc}: {script} is missing or not executable")

for line in missing:
    print(f"doc-commands: {line}")
print(f"doc-commands: {checked} command(s) checked, {len(missing)} dangling")
sys.exit(1 if missing else 0)
PY
