#!/usr/bin/env python3
"""Reachability gate: every src/ function must be linked into a shipped binary.

Usage:

    python3 ci/check_unreached_modules.py BUILD_DIR BINARY...

BUILD_DIR is a CMake build tree of this repository, configured with

    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections -fno-inline
        -fno-inline-functions -fno-inline-small-functions -fno-ipa-sra
        -fno-ipa-cp"
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

Its compile_commands.json names the object file of every src/**/*.cc
source of the checkout it was configured from, so objects left behind by
deleted sources are never read. Each BINARY is a shipped executable built
with the same flags: the examples, the paper benches, perfbench and
perfbench_selftest. Test binaries must not be passed; a function that
only tests call is what this gate exists to find.

For every src/ object the gate collects its strong text symbols in the
crowdfusion namespace (`nm` type T). With one section per function and
section garbage collection at link time, a binary keeps exactly the
functions some path from its entry point reaches, so each such symbol
must be defined in at least one binary. The gate names every symbol that
is in none of them and exits 1. An object none of whose functions is
reached shows up as all of its symbols. There is no allowlist.

Header-inline functions and templates are not judged: they are weak
symbols emitted into every object that uses them, and no object owns
them. Without -fno-inline, a function inlined into each of its callers
leaves no symbol in the binaries and would read as unreached; without
-ffunction-sections or --gc-sections, a linked object brings all of its
functions along and every symbol would read as reached. So a build tree
that lacks any of these flags cannot be judged, and the gate refuses it.

Exits 0 when every judged symbol is reached, 1 when one is not, 2 on a
usage or tool error or a build it cannot judge.
"""

import json
import os
import re
import shlex
import subprocess
import sys

# Mangled nested names rooted at ::crowdfusion, with optional cv- and
# ref-qualifiers on member functions (_ZN, _ZNK, _ZNKR, ...).
CROWDFUSION_SYMBOL = re.compile(r"^_ZN[rVKRO]*11crowdfusion")

# Every src/ compile must carry these, or the binaries say nothing about
# which functions are reached.
REQUIRED_COMPILE_FLAGS = ("-ffunction-sections", "-fno-inline")
REQUIRED_LINK_FLAG = "--gc-sections"


class Unjudgeable(Exception):
    """The build tree or a binary cannot be judged (exit 2)."""


def defined_symbols(path):
    """(name, nm type) of every defined symbol in an object or binary."""
    done = subprocess.run(["nm", "--defined-only", "-P", path],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise Unjudgeable(f"nm failed on {path}: {done.stderr.strip()}")
    symbols = []
    for line in done.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 2:
            symbols.append((fields[0], fields[1]))
    return symbols


def demangle(names):
    """The demangled form of each mangled name, in order."""
    done = subprocess.run(["c++filt"], input="\n".join(names),
                          capture_output=True, text=True)
    if done.returncode != 0:
        return list(names)
    return done.stdout.splitlines()


def compile_args(entry):
    return entry.get("arguments") or shlex.split(entry["command"])


def object_path(entry):
    """The object file a compile_commands.json entry writes."""
    output = entry.get("output")
    if output is None:
        args = compile_args(entry)
        output = args[args.index("-o") + 1]
    return os.path.normpath(os.path.join(entry["directory"], output))


def cache_value(build_dir, key):
    """The value of KEY in the build tree's CMakeCache.txt, or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    try:
        with open(cache) as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError as error:
        raise Unjudgeable(f"cannot read {cache}: {error}")
    return None


def src_objects(build_dir):
    """[(source relative to the checkout, object path)] for src/**/*.cc.

    Refuses the tree when a src/ compile lacks a required flag.
    """
    root = cache_value(build_dir, "crowdfusion_SOURCE_DIR")
    if root is None:
        raise Unjudgeable(
            f"{build_dir}/CMakeCache.txt names no crowdfusion_SOURCE_DIR")
    src = os.path.join(root, "src") + os.sep
    database = os.path.join(build_dir, "compile_commands.json")
    try:
        with open(database) as handle:
            entries = json.load(handle)
    except (OSError, ValueError) as error:
        raise Unjudgeable(f"cannot read {database}: {error}")
    objects = {}
    for entry in entries:
        source = os.path.normpath(
            os.path.join(entry["directory"], entry["file"]))
        if not (source.startswith(src) and source.endswith(".cc")):
            continue
        relative = os.path.relpath(source, root)
        args = compile_args(entry)
        for flag in REQUIRED_COMPILE_FLAGS:
            if flag not in args:
                raise Unjudgeable(
                    f"{relative} is compiled without {flag} "
                    f"({database}); reconfigure {build_dir} with the "
                    "flags in this script's docstring")
        objects[relative] = object_path(entry)
    link_flags = cache_value(build_dir, "CMAKE_EXE_LINKER_FLAGS") or ""
    if REQUIRED_LINK_FLAG not in link_flags:
        raise Unjudgeable(
            f"{build_dir} links without -Wl,{REQUIRED_LINK_FLAG} "
            "(CMAKE_EXE_LINKER_FLAGS); every function of a linked object "
            "would read as reached")
    return sorted(objects.items())


def unreached_symbols(build_dir, binaries):
    """(judged symbol count, [(source, [unreached mangled name])])."""
    for binary in binaries:
        if not os.path.isfile(binary):
            raise Unjudgeable(f"binary not found: {binary}")
    objects = src_objects(build_dir)
    if not objects:
        raise Unjudgeable(f"no src/ objects in {build_dir}")

    linked = set()
    for binary in binaries:
        linked.update(name for name, _ in defined_symbols(binary))

    judged, unreached = 0, []
    for source, obj in objects:
        if not os.path.isfile(obj):
            raise Unjudgeable(f"object not built: {obj} ({source})")
        strong = sorted({name for name, kind in defined_symbols(obj)
                         if kind == "T" and CROWDFUSION_SYMBOL.match(name)})
        judged += len(strong)
        missing = [name for name in strong if name not in linked]
        if missing:
            unreached.append((source, missing))
    return judged, unreached


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    build_dir, binaries = argv[1], argv[2:]
    try:
        judged, unreached = unreached_symbols(build_dir, binaries)
    except Unjudgeable as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    for source, missing in unreached:
        for name in demangle(missing):
            print(f"UNREACHED: {source}: {name}")
    count = sum(len(missing) for _, missing in unreached)
    if count:
        print(f"FAIL: {count} of {judged} strong crowdfusion text symbols "
              f"in {len(unreached)} src/ files are linked into none of the "
              f"{len(binaries)} binaries; delete them, move them under "
              "tests/, or use them")
        return 1
    print(f"OK: all {judged} strong crowdfusion text symbols of src/ are "
          f"linked into at least one of the {len(binaries)} binaries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
